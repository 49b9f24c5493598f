// Golden same-seed campaign histories. Each scenario pins the virtual
// time to verdict, split and message counts, wire bytes, base-ref
// accounting and checkpoint-chain counts of one seeded campaign. A
// refactor of the campaign, wire or checkpoint paths must leave every
// pinned value untouched; a deliberate behaviour change re-records them
// and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"

namespace gridsat::core {
namespace {

/// seconds, total_splits, messages, bytes_transferred, base_ref_transfers,
/// base_ref_bytes_saved, checkpoints_full, checkpoints_delta.
using History = std::tuple<double, std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t>;

struct Scenario {
  const char* name;
  solver::ParallelMode mode;
  std::size_t sub_masters;
  /// Heavy checkpoints every second; a busy client dies at t = 10 s and
  /// recovers from its chain.
  bool heavy_with_kill;
  std::size_t chain_max;  ///< 0: full snapshots only
  History golden;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class GoldenHistoryTest : public testing::TestWithParam<Scenario> {};

TEST_P(GoldenHistoryTest, ReplaysExactly) {
  const Scenario& s = GetParam();
  GridSatConfig config;
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1024 * 1024;
  config.parallel_mode = s.mode;
  config.sub_masters = s.sub_masters;
  config.checkpoint_chain_max = s.chain_max;
  if (s.heavy_with_kill) {
    config.checkpoint = CheckpointMode::kHeavy;
    config.checkpoint_interval_s = 1.0;
    config.recover_from_checkpoints = true;
  }
  Campaign campaign(gen::pigeonhole_unsat(8), "grid0",
                    testbeds::synthetic_grid(12, 4, 2003), config);
  if (s.heavy_with_kill) campaign.schedule_client_failure(4, 10.0);
  const GridSatResult r = campaign.run();
  EXPECT_EQ(r.status, CampaignStatus::kUnsat);
  EXPECT_EQ(r.checkpoint_recoveries, s.heavy_with_kill ? 1u : 0u);
  EXPECT_EQ(History(r.seconds, r.total_splits, r.messages,
                    r.bytes_transferred, r.base_ref_transfers,
                    r.base_ref_bytes_saved, r.checkpoints_full,
                    r.checkpoints_delta),
            s.golden);
}

using solver::ParallelMode;

INSTANTIATE_TEST_SUITE_P(
    Campaigns, GoldenHistoryTest,
    testing::Values(
        Scenario{"Flat", ParallelMode::kSplit, 0, false, 8,
                 {555.07202257210429, 167, 1502, 2091561, 166, 64439, 0, 0}},
        Scenario{"Hier", ParallelMode::kSplit, 4, false, 8,
                 {458.03919582633478, 251, 2624, 2484087, 249, 89965, 0, 0}},
        Scenario{"Portfolio", ParallelMode::kPortfolio, 0, false, 8,
                 {561.45258416599745, 0, 3289, 158436, 0, 0, 0, 0}},
        // One split child in this run bounces off a busy racing host; it
        // is requeued, not mistaken for that host's race copy and dropped.
        Scenario{"Hybrid", ParallelMode::kHybrid, 0, false, 8,
                 {834.92576599379026, 97, 2384, 2098218, 106, 44857, 0, 0}},
        Scenario{"HeavyCheckpointWithClientKill", ParallelMode::kSplit, 0,
                 true, 8,
                 {796.24168774417308, 296, 16629, 18921088, 292, 98033, 930,
                  6220}},
        Scenario{"FullOnlyCheckpointWithClientKill", ParallelMode::kSplit, 0,
                 true, 0,
                 {844.32363966767036, 293, 17573, 111471212, 292, 103439,
                  7689, 0}}),
    [](const testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gridsat::core
