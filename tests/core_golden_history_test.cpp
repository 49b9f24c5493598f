// Golden same-seed campaign histories. Each scenario pins the virtual
// time to verdict, split and message counts, wire bytes, base-ref
// accounting, checkpoint-chain counts, the master-tier and fault
// counters of one seeded campaign, run once untraced and once with a
// tracer whose Chrome trace is hashed and pinned too. A refactor of the
// campaign, wire or checkpoint paths must leave every pinned value
// untouched; a deliberate behaviour change re-records them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"
#include "obs/trace.hpp"

namespace gridsat::core {
namespace {

struct History {
  double seconds = 0.0;
  std::uint64_t total_splits = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t base_ref_transfers = 0;
  std::uint64_t base_ref_bytes_saved = 0;
  std::uint64_t checkpoints_full = 0;
  std::uint64_t checkpoints_delta = 0;
  std::uint64_t migrations = 0;
  std::uint64_t root_messages_handled = 0;
  std::uint64_t sub_messages_handled = 0;
  std::uint64_t sub_master_bounces = 0;
  std::uint64_t brokered_splits = 0;
  std::uint64_t base_renegotiations = 0;
  std::uint64_t races_cancelled = 0;
  std::uint64_t checkpoint_recoveries = 0;
  std::uint64_t client_deaths = 0;
  std::uint64_t sub_master_rehomes = 0;
  /// 64-bit FNV-1a of obs::chrome_trace_json (0 under GRIDSAT_TRACE=OFF).
  std::uint64_t trace_hash = 0;

  bool operator==(const History&) const = default;
};

void PrintTo(const History& h, std::ostream* os) {
  os->precision(17);
  *os << "{.seconds = " << h.seconds << ", .total_splits = " << h.total_splits
      << ", .messages = " << h.messages
      << ", .bytes_transferred = " << h.bytes_transferred
      << ", .base_ref_transfers = " << h.base_ref_transfers
      << ", .base_ref_bytes_saved = " << h.base_ref_bytes_saved
      << ", .checkpoints_full = " << h.checkpoints_full
      << ", .checkpoints_delta = " << h.checkpoints_delta
      << ", .migrations = " << h.migrations
      << ", .root_messages_handled = " << h.root_messages_handled
      << ", .sub_messages_handled = " << h.sub_messages_handled
      << ", .sub_master_bounces = " << h.sub_master_bounces
      << ", .brokered_splits = " << h.brokered_splits
      << ", .base_renegotiations = " << h.base_renegotiations
      << ", .races_cancelled = " << h.races_cancelled
      << ", .checkpoint_recoveries = " << h.checkpoint_recoveries
      << ", .client_deaths = " << h.client_deaths
      << ", .sub_master_rehomes = " << h.sub_master_rehomes
      << ", .trace_hash = " << h.trace_hash << "ull}";
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Faults and grid events a scenario injects before run().
enum class Faults {
  kNone,
  /// Heavy checkpoints every second; a busy client dies at t = 10 s and
  /// recovers from its chain.
  kClientKill,
  /// The grid1 sub-master dies at t = 60 s and is re-homed.
  kSubMasterKill,
  /// Light checkpoints with recovery; site grid2 goes down at 30 s for
  /// 60 s, a host joins at grid3 at 40 s, host 5 is released at 50 s.
  kElastic,
  /// Every host is marked base-resident before any client holds the
  /// base, so each first base-ref ship is renegotiated.
  kBaseMiss,
};

struct Scenario {
  const char* name;
  solver::ParallelMode mode;
  std::size_t sub_masters;
  Faults faults;
  std::size_t chain_max;  ///< 0: full snapshots only
  History golden;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

/// Runs the scenario's campaign, with `tracer` attached when it is not
/// null; trace_hash is that tracer's hash, or 0 for an untraced run.
History replay(const Scenario& s, obs::Tracer* tracer) {
  GridSatConfig config;
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1024 * 1024;
  config.parallel_mode = s.mode;
  config.sub_masters = s.sub_masters;
  config.checkpoint_chain_max = s.chain_max;
  if (s.faults == Faults::kClientKill) {
    config.checkpoint = CheckpointMode::kHeavy;
    config.checkpoint_interval_s = 1.0;
    config.recover_from_checkpoints = true;
  } else if (s.faults == Faults::kElastic) {
    config.checkpoint = CheckpointMode::kLight;
    config.recover_from_checkpoints = true;
  }
  Campaign campaign(gen::pigeonhole_unsat(8), "grid0",
                    testbeds::synthetic_grid(12, 4, 2003), config);
  switch (s.faults) {
    case Faults::kNone:
      break;
    case Faults::kClientKill:
      campaign.schedule_client_failure(4, 10.0);
      break;
    case Faults::kSubMasterKill:
      campaign.schedule_sub_master_failure("grid1", 60.0);
      break;
    case Faults::kElastic: {
      campaign.schedule_site_outage("grid2", 30.0, 60.0);
      sim::HostSpec joiner;
      joiner.name = "g12";
      joiner.site = "grid3";
      joiner.speed = 5000.0;
      joiner.memory_bytes = 2 * 1024 * 1024;
      joiner.base_load = 0.2;
      joiner.load_jitter = 0.1;
      joiner.seed = 12;
      campaign.schedule_host_join(joiner, 40.0);
      campaign.schedule_host_release(5, 50.0);
      break;
    }
    case Faults::kBaseMiss:
      for (std::size_t i = 0; i < campaign.num_hosts(); ++i) {
        campaign.debug_mark_base_resident(i);
      }
      break;
  }
  if (tracer != nullptr) campaign.set_tracer(tracer);
  const GridSatResult r = campaign.run();
  EXPECT_EQ(r.status, CampaignStatus::kUnsat);
  std::uint64_t trace_hash = 0;
  if (tracer != nullptr && obs::kTraceCompiledIn) {
    for (std::uint32_t w = 0; w < tracer->num_workers(); ++w) {
      EXPECT_EQ(tracer->dropped(w), 0u) << tracer->worker_name(w);
    }
    trace_hash = fnv1a64(obs::chrome_trace_json(*tracer));
  }
  return History{
      .seconds = r.seconds,
      .total_splits = r.total_splits,
      .messages = r.messages,
      .bytes_transferred = r.bytes_transferred,
      .base_ref_transfers = r.base_ref_transfers,
      .base_ref_bytes_saved = r.base_ref_bytes_saved,
      .checkpoints_full = r.checkpoints_full,
      .checkpoints_delta = r.checkpoints_delta,
      .migrations = r.migrations,
      .root_messages_handled = r.root_messages_handled,
      .sub_messages_handled = r.sub_messages_handled,
      .sub_master_bounces = r.sub_master_bounces,
      .brokered_splits = r.brokered_splits,
      .base_renegotiations = r.base_renegotiations,
      .races_cancelled = r.races_cancelled,
      .checkpoint_recoveries = r.checkpoint_recoveries,
      .client_deaths = r.client_deaths,
      .sub_master_rehomes = r.sub_master_rehomes,
      .trace_hash = trace_hash,
  };
}

class GoldenHistoryTest : public testing::TestWithParam<Scenario> {};

TEST_P(GoldenHistoryTest, ReplaysExactly) {
  const Scenario& s = GetParam();
  // The untraced run is the default path; the traced run must match it
  // in every count and the virtual time, and pins the trace's hash.
  History untraced_want = s.golden;
  untraced_want.trace_hash = 0;
  EXPECT_EQ(replay(s, nullptr), untraced_want) << "untraced";

  obs::Tracer tracer(1u << 16, obs::Tracer::Clock::kManual);
  tracer.set_enabled(true);
  History traced_want = s.golden;
  if constexpr (!obs::kTraceCompiledIn) traced_want.trace_hash = 0;
  EXPECT_EQ(replay(s, &tracer), traced_want) << "traced";
}

using solver::ParallelMode;

// Fields a golden leaves out are pinned at 0.
INSTANTIATE_TEST_SUITE_P(
    Campaigns, GoldenHistoryTest,
    testing::Values(
        Scenario{"Flat", ParallelMode::kSplit, 0, Faults::kNone, 8,
                 {.seconds = 555.07202257210429, .total_splits = 167,
                  .messages = 1502, .bytes_transferred = 2091561,
                  .base_ref_transfers = 166, .base_ref_bytes_saved = 64439,
                  .migrations = 3, .root_messages_handled = 817,
                  .trace_hash = 5309447710766601262ull}},
        Scenario{"Hier", ParallelMode::kSplit, 4, Faults::kNone, 8,
                 {.seconds = 458.03919582633478, .total_splits = 251,
                  .messages = 2624, .bytes_transferred = 2484087,
                  .base_ref_transfers = 249, .base_ref_bytes_saved = 89965,
                  .root_messages_handled = 651, .sub_messages_handled = 1305,
                  .brokered_splits = 91,
                  .trace_hash = 17115554532724519855ull}},
        Scenario{"Portfolio", ParallelMode::kPortfolio, 0, Faults::kNone, 8,
                 {.seconds = 561.45258416599745, .messages = 3289,
                  .bytes_transferred = 158436, .root_messages_handled = 295,
                  .races_cancelled = 11,
                  .trace_hash = 11836133801256722473ull}},
        // One split child in this run bounces off a busy racing host; it
        // is requeued, not mistaken for that host's race copy and dropped.
        Scenario{"Hybrid", ParallelMode::kHybrid, 0, Faults::kNone, 8,
                 {.seconds = 834.92576599379026, .total_splits = 97,
                  .messages = 2384, .bytes_transferred = 2098218,
                  .base_ref_transfers = 106, .base_ref_bytes_saved = 44857,
                  .root_messages_handled = 639, .races_cancelled = 12,
                  .trace_hash = 3803271425574612611ull}},
        Scenario{"HeavyCheckpointWithClientKill", ParallelMode::kSplit, 0,
                 Faults::kClientKill, 8,
                 {.seconds = 796.24168774417308, .total_splits = 296,
                  .messages = 16629, .bytes_transferred = 18921088,
                  .base_ref_transfers = 292, .base_ref_bytes_saved = 98033,
                  .checkpoints_full = 930, .checkpoints_delta = 6220,
                  .migrations = 1, .root_messages_handled = 8547,
                  .checkpoint_recoveries = 1, .client_deaths = 1,
                  .trace_hash = 11025847343428582603ull}},
        Scenario{"FullOnlyCheckpointWithClientKill", ParallelMode::kSplit, 0,
                 Faults::kClientKill, 0,
                 {.seconds = 844.32363966767036, .total_splits = 293,
                  .messages = 17573, .bytes_transferred = 111471212,
                  .base_ref_transfers = 292, .base_ref_bytes_saved = 103439,
                  .checkpoints_full = 7689, .migrations = 3,
                  .root_messages_handled = 9089, .checkpoint_recoveries = 1,
                  .client_deaths = 1, .trace_hash = 12433670225986663121ull}},
        Scenario{"HierSubMasterKill", ParallelMode::kSplit, 4,
                 Faults::kSubMasterKill, 8,
                 {.seconds = 458.03919582633478, .total_splits = 251,
                  .messages = 2630, .bytes_transferred = 2484663,
                  .base_ref_transfers = 249, .base_ref_bytes_saved = 89965,
                  .root_messages_handled = 652, .sub_messages_handled = 1306,
                  .sub_master_bounces = 1, .brokered_splits = 91,
                  .sub_master_rehomes = 1,
                  .trace_hash = 16546038364673416079ull}},
        Scenario{"FlatElastic", ParallelMode::kSplit, 0, Faults::kElastic, 8,
                 {.seconds = 609.77775449349633, .total_splits = 306,
                  .messages = 4561, .bytes_transferred = 4159034,
                  .base_ref_transfers = 302, .base_ref_bytes_saved = 99193,
                  .checkpoints_full = 1076, .migrations = 2,
                  .root_messages_handled = 2532, .checkpoint_recoveries = 4,
                  .client_deaths = 4, .trace_hash = 17941856278867323217ull}},
        Scenario{"FlatBaseMiss", ParallelMode::kSplit, 0, Faults::kBaseMiss, 8,
                 {.seconds = 682.50676742080782, .total_splits = 324,
                  .messages = 2443, .bytes_transferred = 4297969,
                  .base_ref_transfers = 340, .base_ref_bytes_saved = 114668,
                  .migrations = 2, .root_messages_handled = 1532,
                  .base_renegotiations = 12,
                  .trace_hash = 7270735875257170454ull}}),
    [](const testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gridsat::core
