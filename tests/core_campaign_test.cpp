// End-to-end GridSAT campaign tests: verdict correctness against the
// sequential solver, the Figure-3 split protocol on the wire, scheduler
// behaviour (splits, backlog, memory floor), clause sharing, failure
// handling with and without checkpoint recovery, batch (Blue Horizon)
// integration, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/campaign.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "util/strings.hpp"

namespace gridsat::core {
namespace {

using cnf::CnfFormula;

constexpr std::size_t kMiB = 1024 * 1024;

/// Small deterministic testbed: 4 dedicated hosts at two sites.
std::vector<sim::HostSpec> tiny_testbed() {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = i < 2 ? "east" : "west";
    spec.speed = 3000.0 + 500.0 * i;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 100 + i;
    hosts.push_back(spec);
  }
  return hosts;
}

GridSatConfig fast_split_config() {
  GridSatConfig config;
  config.split_timeout_s = 5.0;       // force early splitting
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  return config;
}

TEST(CampaignTest, SolvesSatInstanceAndVerifiesModel) {
  const CnfFormula f = gen::random_ksat_planted(60, 250, 3, 11);
  Campaign campaign(f, "east", tiny_testbed(), fast_split_config());
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kSat);
  EXPECT_TRUE(is_model(f, result.model));
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GE(result.max_active_clients, 1u);
}

TEST(CampaignTest, RefutesUnsatInstance) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", tiny_testbed(), fast_split_config());
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.total_work, 0u);
}

TEST(CampaignTest, HardUnsatInstanceSplitsAcrossClients) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  Campaign campaign(f, "east", tiny_testbed(), config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.total_splits, 0u);
  EXPECT_GT(result.max_active_clients, 1u);
  EXPECT_GT(result.messages, 10u);
  EXPECT_GT(result.bytes_transferred, 0u);
}

class CampaignSequentialAgreement : public testing::TestWithParam<int> {};

TEST_P(CampaignSequentialAgreement, MatchesSequentialVerdict) {
  const int seed = GetParam();
  const CnfFormula f = gen::random_ksat(
      40, static_cast<std::size_t>(40 * 4.26), 3,
      static_cast<std::uint64_t>(seed) * 613 + 29);
  SequentialOptions seq_options;
  seq_options.host = testbeds::fastest_dedicated();
  seq_options.timeout_s = 1e9;
  const SequentialResult seq = run_sequential(f, seq_options);
  ASSERT_NE(seq.status, solver::SolveStatus::kUnknown);

  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 1.0;  // stress the protocol
  Campaign campaign(f, "east", tiny_testbed(), config);
  const GridSatResult result = campaign.run();
  if (seq.status == solver::SolveStatus::kSat) {
    ASSERT_EQ(result.status, CampaignStatus::kSat) << "seed " << seed;
    EXPECT_TRUE(is_model(f, result.model));
  } else {
    EXPECT_EQ(result.status, CampaignStatus::kUnsat) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CampaignSequentialAgreement,
                         testing::Range(0, 12));

TEST(CampaignTest, OverallTimeoutFires) {
  const CnfFormula f = gen::pigeonhole_unsat(11);  // far too hard
  GridSatConfig config = fast_split_config();
  config.overall_timeout_s = 30.0;
  Campaign campaign(f, "east", tiny_testbed(), config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kTimeout);
  EXPECT_DOUBLE_EQ(result.seconds, 30.0);
}

TEST(CampaignTest, Figure3ProtocolOnTheWire) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  Campaign campaign(f, "east", tiny_testbed(), config);
  campaign.bus().enable_trace();
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);

  // The trace must contain the five-message split scenario in causal
  // order: SPLIT_REQUEST -> SPLIT_GRANT -> SUBPROBLEM (P2P) ->
  // SUBPROBLEM_ACK and SPLIT_DONE.
  const auto& trace = campaign.bus().trace();
  const auto find_kind = [&](const std::string& kind) {
    return std::find_if(trace.begin(), trace.end(),
                        [&](const sim::MessageRecord& r) {
                          return r.kind == kind;
                        });
  };
  const auto req = find_kind("SPLIT_REQUEST");
  const auto grant = find_kind("SPLIT_GRANT");
  const auto sub = find_kind("SUBPROBLEM");
  const auto ack = find_kind("SUBPROBLEM_ACK");
  const auto done = find_kind("SPLIT_DONE");
  ASSERT_NE(req, trace.end());
  ASSERT_NE(grant, trace.end());
  ASSERT_NE(sub, trace.end());
  ASSERT_NE(ack, trace.end());
  ASSERT_NE(done, trace.end());
  EXPECT_LE(req->sent_at, grant->sent_at);
  EXPECT_LE(grant->sent_at, done->sent_at);

  // The P2P subproblem transfer dwarfs the control messages (paper: "by
  // far the largest message sent").
  std::size_t largest_subproblem = 0;
  for (const auto& r : trace) {
    if (r.kind == "SUBPROBLEM" &&
        r.from != "master") {  // peer-to-peer, not initial assignment
      largest_subproblem = std::max(largest_subproblem, r.bytes);
    }
  }
  EXPECT_GT(largest_subproblem, 96u);
}

TEST(CampaignTest, ClauseSharingHappensAndIsCounted) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.share_max_len = 10;
  Campaign campaign(f, "east", tiny_testbed(), config);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.clauses_shared, 0u);
  EXPECT_GT(result.clause_batches_shared, 0u);
}

TEST(CampaignTest, ImportUsefulnessIsAccountedAndDeterministic) {
  // Shared clauses merged into a client count as imported; the subset
  // conflict analysis actually walked counts as used. Both totals live
  // in the result and are stable across identically-seeded runs.
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.share_max_len = 10;
  Campaign a(f, "east", tiny_testbed(), config);
  Campaign b(f, "east", tiny_testbed(), config);
  const GridSatResult ra = a.run();
  const GridSatResult rb = b.run();
  ASSERT_EQ(ra.status, CampaignStatus::kUnsat);
  EXPECT_GT(ra.clauses_imported, 0u);
  EXPECT_LE(ra.clauses_imported_used, ra.clauses_imported);
  EXPECT_EQ(ra.clauses_imported, rb.clauses_imported);
  EXPECT_EQ(ra.clauses_imported_used, rb.clauses_imported_used);
}

TEST(CampaignTest, ShareLengthZeroDisablesSharing) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.share_max_len = 0;
  Campaign campaign(f, "east", tiny_testbed(), config);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.clauses_shared, 0u);
}

TEST(CampaignTest, MemoryFloorExcludesTinyHosts) {
  auto hosts = tiny_testbed();
  sim::HostSpec tiny;
  tiny.name = "tiny";
  tiny.site = "east";
  tiny.speed = 99999.0;  // fastest, but memory-starved
  tiny.memory_bytes = 256 * 1024;
  hosts.push_back(tiny);
  GridSatConfig config = fast_split_config();
  config.min_client_memory = 1 * kMiB;
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", hosts, config);
  campaign.bus().enable_trace();
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  // The tiny host never appears as a message endpoint (never launched).
  for (const auto& record : campaign.bus().trace()) {
    EXPECT_EQ(record.to.find("tiny"), std::string::npos);
    EXPECT_EQ(record.from.find("tiny"), std::string::npos);
  }
}

TEST(CampaignTest, DeterministicAcrossRuns) {
  const CnfFormula f = gen::urquhart_like(9, 4);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  Campaign a(f, "east", tiny_testbed(), config);
  Campaign b(f, "east", tiny_testbed(), config);
  const GridSatResult ra = a.run();
  const GridSatResult rb = b.run();
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.total_splits, rb.total_splits);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.total_work, rb.total_work);
}

TEST(CampaignFailureTest, IdleClientDeathIsTolerated) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  GridSatConfig config = fast_split_config();
  Campaign campaign(f, "east", tiny_testbed(), config);
  // Host 3 is idle early on (problem starts on one client); kill it.
  campaign.schedule_client_failure(3, 4.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
}

TEST(CampaignFailureTest, BusyClientDeathWithoutRecoveryAborts) {
  const CnfFormula f = gen::pigeonhole_unsat(9);
  GridSatConfig config = fast_split_config();
  config.recover_from_checkpoints = false;
  Campaign campaign(f, "east", tiny_testbed(), config);
  // The first client is busy with the whole problem by t=10.
  campaign.schedule_client_failure(0, 10.0);
  const GridSatResult result = campaign.run();
  // Either host 0 held a subproblem (error, the paper's stated limit) or
  // the problem had been assigned elsewhere.
  EXPECT_TRUE(result.status == CampaignStatus::kError ||
              result.status == CampaignStatus::kUnsat);
  EXPECT_EQ(result.checkpoint_recoveries, 0u);
}

TEST(CampaignFailureTest, HeavyCheckpointRecoveryCompletesRun) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", tiny_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
}

TEST(CampaignFailureTest, LightCheckpointRecoveryCompletesRun) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kLight;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", tiny_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
}

// --- Elastic-grid scenarios (DESIGN.md §4g) ----------------------------

TEST(CampaignScenarioTest, HostJoinExpandsThePoolMidRun) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  Campaign campaign(f, "east", tiny_testbed(), config);
  sim::HostSpec late;
  late.name = "late0";
  late.site = "east";
  late.speed = 9000.0;
  late.memory_bytes = 32 * kMiB;
  late.seed = 777;
  campaign.schedule_host_join(late, 5.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.hosts_joined, 1u);
  EXPECT_EQ(campaign.num_hosts(), 5u);
}

TEST(CampaignScenarioTest, IdleHostReleaseIsTolerated) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", tiny_testbed(), fast_split_config());
  // Host 3 is idle early (the run starts on one client); release it.
  campaign.schedule_host_release(3, 4.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.hosts_released, 1u);
}

TEST(CampaignScenarioTest, BusyHostReleaseRecoversFromCheckpoint) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", tiny_testbed(), config);
  campaign.schedule_host_release(0, 10.0);  // host 0 is busy by t=10
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.hosts_released, 1u);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
}

TEST(CampaignScenarioTest, SiteOutageStormKillsAndRestoresTheSite) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", tiny_testbed(), config);
  // Both "west" machines go dark at t=8 and come back 40 virtual
  // seconds later; the verdict must survive the correlated failure.
  campaign.schedule_site_outage("west", 8.0, 40.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.site_outages, 1u);
  EXPECT_GE(result.client_deaths, 2u);
}

TEST(CampaignScenarioTest, ElasticScenarioRunsAreDeterministic) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  auto run_once = [&] {
    Campaign campaign(f, "east", tiny_testbed(), config);
    sim::HostSpec late;
    late.name = "late0";
    late.site = "west";
    late.speed = 7000.0;
    late.memory_bytes = 32 * kMiB;
    late.seed = 12;
    campaign.schedule_host_join(late, 3.0);
    campaign.schedule_site_outage("west", 9.0, 30.0);
    return campaign.run();
  };
  const GridSatResult ra = run_once();
  const GridSatResult rb = run_once();
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.total_work, rb.total_work);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.total_splits, rb.total_splits);
}

// --- Certification: campaign-wide stitched refutations -----------------

GridSatConfig certify_config() {
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.solver.log_proof = true;
  return config;
}

// Certification end-to-ends are meaningless without the proof hooks
// (-DGRIDSAT_PROOF=OFF).
#define REQUIRE_PROOF_HOOKS() \
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off"

TEST(CampaignCertifyTest, RefutationAcrossSplitsCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "east", tiny_testbed(), certify_config());
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.total_splits, 0u);  // a genuinely distributed run
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
  EXPECT_GT(check.steps_checked, 0u);
}

TEST(CampaignCertifyTest, XorChainRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::urquhart_like(9, 4);
  Campaign campaign(f, "east", tiny_testbed(), certify_config());
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message;
}

TEST(CampaignCertifyTest, RecoveredRunStillCertifies) {
  // A busy client dies mid-run; the checkpoint-recovered re-solve must
  // still stitch into one certifiable refutation (the recovered leaf
  // subsumes or pairs with the dead client's search space).
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = certify_config();
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", tiny_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message;
}

TEST(CampaignCertifyTest, NoProofWhenLoggingOff) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", tiny_testbed(), fast_split_config());
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.proof, nullptr);
  EXPECT_FALSE(campaign.certify().valid);
}

// --- Regression: premature UNSAT with a split payload in flight --------

TEST(CampaignFailureTest, InFlightSplitPayloadBlocksPrematureUnsat) {
  // Race (Figure 3): the donor refutes its own half while message (3) —
  // the complementary half — is still crossing a slow inter-site link.
  // The master then sees every client idle; it must NOT declare UNSAT
  // over the in-flight (and later requeued) payload. Calibrate the
  // timeline from an unperturbed run, then kill the receiver and the
  // (by then idle) donor while the payload is in flight: the requeued
  // subproblem sits in pending_restores_ with no client busy, the exact
  // state the premature-UNSAT bug fired in.
  const CnfFormula f = gen::pigeonhole_unsat(7);
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 2; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = i == 0 ? "east" : "west";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 100 + i;
    hosts.push_back(spec);
  }
  GridSatConfig config = certify_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kLight;
  config.recover_from_checkpoints = true;
  config.overall_timeout_s = 1e6;
  const sim::LinkSpec thin{2.0, 16.0};  // 2 s latency, 16 B/s

  // Pass 1: unperturbed timeline on the same network.
  Campaign probe(f, "east", hosts, config);
  probe.network().set_link("east", "west", thin);
  probe.bus().enable_trace();
  ASSERT_EQ(probe.run().status, CampaignStatus::kUnsat);
  double payload_sent = -1.0;
  double payload_arrives = -1.0;
  double donor_idle = -1.0;
  for (const auto& r : probe.bus().trace()) {
    if (payload_sent < 0 && r.kind == "SUBPROBLEM" && r.from != "master") {
      payload_sent = r.sent_at;
      payload_arrives = r.delivered_at;
    }
    if (donor_idle < 0 && r.kind == "SUBPROBLEM_UNSAT") {
      donor_idle = r.sent_at;
    }
  }
  ASSERT_GT(payload_sent, 0.0) << "no peer-to-peer split in the probe run";
  ASSERT_GT(donor_idle, 0.0);
  // The calibration this regression needs: the donor goes idle while the
  // payload is still on the wire.
  ASSERT_LT(donor_idle, payload_arrives - 3.0)
      << "timeline drifted; widen the link or shrink the instance";

  // Pass 2: same timeline, but both clients die before the payload lands.
  const double kill_receiver = donor_idle + 0.5;
  const double kill_donor = donor_idle + 1.0;
  ASSERT_LT(kill_donor + 1.5, payload_arrives);  // monitor lag included
  Campaign campaign(f, "east", hosts, config);
  campaign.network().set_link("east", "west", thin);
  campaign.schedule_client_failure(1, kill_receiver);
  campaign.schedule_client_failure(0, kill_donor);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  // The verdict must postdate the payload's requeue and re-solve; the
  // premature bug declared UNSAT the moment the payload was lost.
  EXPECT_GT(result.seconds, payload_arrives + config.client_launch_s);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
  // And the stitched proof covers the requeued half: the oracle that
  // flushed this bug out in the first place.
  if (solver::kProofCompiledIn) {
    const solver::ProofCheckResult check = campaign.certify();
    EXPECT_TRUE(check.valid) << check.message;
  }
}

// --- Regression: stale checkpoint recovered on a reused host -----------

TEST(CampaignFailureTest, StaleCheckpointIsNotRecoveredOnReusedHost) {
  // A host refutes subproblem A (checkpointing along the way), is handed
  // subproblem B, and dies before B's first checkpoint. The master used
  // to keep A's checkpoint on file and "recover" it — resurrecting
  // already-refuted space while silently dropping B. With the fix the
  // spent checkpoint is erased, so the death is an honest kError (no
  // checkpoint exists for B yet).
  const CnfFormula f = gen::pigeonhole_unsat(8);
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 2; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "east";
    spec.speed = 3000.0 + 500.0 * i;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 100 + i;
    hosts.push_back(spec);
  }
  GridSatConfig config = certify_config();
  config.split_timeout_s = 2.0;
  config.checkpoint = CheckpointMode::kLight;
  config.recover_from_checkpoints = true;

  // Pass 1: find a host that finishes one subproblem and acks another,
  // with a checkpoint on file from the first.
  Campaign probe(f, "east", hosts, config);
  probe.bus().enable_trace();
  ASSERT_EQ(probe.run().status, CampaignStatus::kUnsat);
  std::size_t victim = 0;
  double ack_at = -1.0;
  double next_checkpoint_at = -1.0;
  for (std::size_t h = 0; h < hosts.size() && ack_at < 0; ++h) {
    const std::string from = "client:" + hosts[h].name;
    bool checkpointed = false;
    bool finished = false;
    for (const auto& r : probe.bus().trace()) {
      if (r.from != from) continue;
      if (r.kind == "CHECKPOINT") {
        if (finished && ack_at >= 0) {
          next_checkpoint_at = r.sent_at;
          break;
        }
        checkpointed = true;
      } else if (r.kind == "SUBPROBLEM_UNSAT" && checkpointed) {
        finished = true;
      } else if (r.kind == "SUBPROBLEM_ACK" && finished) {
        ack_at = r.sent_at;
        victim = h;
      }
    }
    if (ack_at >= 0 && next_checkpoint_at < 0) ack_at = -1.0;  // no window
  }
  ASSERT_GT(ack_at, 0.0)
      << "no host was reused after refuting a checkpointed subproblem; "
         "timeline drifted — adjust the instance or split timeout";
  ASSERT_GT(next_checkpoint_at, ack_at);

  // Pass 2: kill the victim inside the (ack, first-checkpoint) window.
  Campaign campaign(f, "east", hosts, config);
  campaign.schedule_client_failure(victim,
                                   (ack_at + next_checkpoint_at) / 2.0);
  const GridSatResult result = campaign.run();
  // The stale-checkpoint bug produced kUnsat here (with part of the
  // search space silently dropped and an uncertifiable proof). Honest
  // outcomes are kError (no checkpoint for the new subproblem) — or, if
  // the timeline drifts, a certified kUnsat.
  if (result.status == CampaignStatus::kUnsat) {
    if (solver::kProofCompiledIn) {
      const solver::ProofCheckResult check = campaign.certify();
      EXPECT_TRUE(check.valid)
          << "UNSAT verdict with an uncertifiable proof: stale checkpoint "
             "recovery dropped part of the search space: " << check.message;
    }
  } else {
    EXPECT_EQ(result.status, CampaignStatus::kError);
    EXPECT_EQ(result.checkpoint_recoveries, 0u);
  }
}

TEST(CampaignBatchTest, BatchNodesJoinAndHelp) {
  const CnfFormula f = gen::pigeonhole_unsat(9);
  GridSatConfig config = fast_split_config();
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 1e9;
  Campaign campaign(f, "east", tiny_testbed(), config);
  BatchOptions batch;
  batch.spec.mean_queue_wait_s = 20.0;  // nodes arrive quickly
  batch.spec.seed = 5;
  batch.max_duration_s = 1e8;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec node;
    node.name = "bh" + std::to_string(i);
    node.site = "sdsc";
    node.speed = 20000.0;
    node.memory_bytes = 128 * kMiB;
    batch.node_hosts.push_back(node);
  }
  campaign.set_batch(std::move(batch));
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_TRUE(result.batch_submitted);
  EXPECT_TRUE(result.batch_started);
  EXPECT_GT(result.batch_queue_wait_s, 0.0);
}

TEST(CampaignBatchTest, EarlySolveCancelsQueuedJob) {
  const CnfFormula f = gen::pigeonhole_unsat(6);  // easy: solved pre-grant
  GridSatConfig config = fast_split_config();
  Campaign campaign(f, "east", tiny_testbed(), config);
  BatchOptions batch;
  batch.spec.mean_queue_wait_s = 1e7;
  sim::HostSpec node;
  node.name = "bh0";
  node.site = "sdsc";
  node.speed = 20000.0;
  node.memory_bytes = 128 * kMiB;
  batch.node_hosts.push_back(node);
  campaign.set_batch(std::move(batch));
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_TRUE(result.batch_submitted);
  EXPECT_FALSE(result.batch_started);
  EXPECT_TRUE(result.batch_cancelled);
}

TEST(CampaignBatchTest, BatchExpiryTerminatesRun) {
  const CnfFormula f = gen::pigeonhole_unsat(11);  // unsolvable here
  GridSatConfig config = fast_split_config();
  config.overall_timeout_s = 1e9;
  Campaign campaign(f, "east", tiny_testbed(), config);
  BatchOptions batch;
  batch.spec.mean_queue_wait_s = 50.0;
  batch.max_duration_s = 100.0;
  batch.terminate_on_expiry = true;
  sim::HostSpec node;
  node.name = "bh0";
  node.site = "sdsc";
  node.speed = 5000.0;
  node.memory_bytes = 64 * kMiB;
  batch.node_hosts.push_back(node);
  campaign.set_batch(std::move(batch));
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kTimeout);
  EXPECT_TRUE(result.batch_started);
  EXPECT_GT(result.batch_run_s, 0.0);
}

TEST(SequentialTest, ReportsTimeoutAndMemout) {
  SequentialOptions options;
  options.host = testbeds::fastest_dedicated();
  options.timeout_s = 1.0;  // 8000 work units: nowhere near enough
  const SequentialResult r = run_sequential(gen::pigeonhole_unsat(9), options);
  EXPECT_EQ(r.status, solver::SolveStatus::kUnknown);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(render_time_cell(r), "TIME_OUT");

  SequentialOptions memout_options;
  memout_options.host = testbeds::fastest_dedicated();
  memout_options.host.memory_bytes = 48 * 1024;
  memout_options.timeout_s = 1e9;
  const SequentialResult m =
      run_sequential(gen::pigeonhole_unsat(9), memout_options);
  EXPECT_EQ(m.status, solver::SolveStatus::kMemOut);
  EXPECT_EQ(render_time_cell(m), "MEM_OUT");
}

TEST(SequentialTest, SolvesAndTimesSensibly) {
  SequentialOptions options;
  options.host = testbeds::fastest_dedicated();
  options.timeout_s = 1e9;
  const CnfFormula f = gen::pigeonhole_unsat(7);
  const SequentialResult r = run_sequential(f, options);
  EXPECT_EQ(r.status, solver::SolveStatus::kUnsat);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_NEAR(r.seconds, static_cast<double>(r.work) / options.host.speed,
              1e-6);
}

TEST(TestbedsTest, ShapesMatchThePaper) {
  const auto t1 = testbeds::grads34();
  EXPECT_EQ(t1.size(), 34u);
  std::set<std::string> sites1;
  for (const auto& h : t1) sites1.insert(h.site);
  EXPECT_EQ(sites1, (std::set<std::string>{"utk", "uiuc", "ucsd"}));

  const auto t2 = testbeds::grads27_ucsb();
  EXPECT_EQ(t2.size(), 27u);
  std::set<std::string> sites2;
  for (const auto& h : t2) sites2.insert(h.site);
  EXPECT_EQ(sites2, (std::set<std::string>{"uiuc", "ucsd", "ucsb"}));

  const auto bh = testbeds::blue_horizon(100);
  EXPECT_EQ(bh.size(), 100u);
  for (const auto& h : bh) {
    EXPECT_EQ(h.site, "sdsc");
    EXPECT_EQ(h.base_load, 0.0);
  }

  const auto fastest = testbeds::fastest_dedicated();
  for (const auto& h : t1) {
    EXPECT_LE(h.speed, fastest.speed);
  }
}

}  // namespace
}  // namespace gridsat::core
