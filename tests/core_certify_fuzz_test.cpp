// Certification fuzz smoke: every seeded scenario (random instance ×
// testbed × knobs × injected client failures) must satisfy the oracle in
// core/fuzz.hpp — SAT models satisfy, UNSAT refutations stitch and
// certify, ERROR only after an injected kill. A failing seed reproduces
// with `./examples/gridsat_fuzz --seed N`.
#include <cstdio>

#include <gtest/gtest.h>

#include "core/fuzz.hpp"
#include "solver/parallel.hpp"
#include "solver/proof.hpp"

namespace gridsat::core {
namespace {

class CertifyFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertifyFuzzTest, ScenarioSatisfiesTheOracle) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  const fuzz::ScenarioOutcome outcome = fuzz::run_scenario(GetParam());
  EXPECT_TRUE(outcome.ok())
      << fuzz::describe(outcome)
      << "\nreproduce with: ./examples/gridsat_fuzz --seed " << outcome.seed;
  // Keep per-seed behaviour visible in --output-on-failure logs.
  std::printf("  %s\n", fuzz::describe(outcome).c_str());
}

// 24 fixed seeds (the CI smoke requires >= 20). Chosen to be arbitrary,
// not curated: nothing here is tuned to avoid a failure.
INSTANTIATE_TEST_SUITE_P(Seeds, CertifyFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// Seeds that once broke the oracle: 44 (a hybrid child bounced off a host
// racing another child was dropped), 1034 (a relaunch freed a dead client
// whose compute slice was still queued), 1484 (a racer's stale verdict
// refuted the child it started after a race cancel), 10660 (a host was
// relaunched before the master noticed its client's death).
INSTANTIATE_TEST_SUITE_P(Regressions, CertifyFuzzTest,
                         ::testing::Values<std::uint64_t>(44, 1034, 1484,
                                                          10660));

TEST(CertifyFuzzAggregateTest, SweepExercisesEveryScenarioDimension) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  // The oracle only means something if the sweep actually reaches the
  // machinery under test: refutations, injected failures, splits.
  std::size_t unsat_certified = 0;
  std::size_t with_failures = 0;
  std::size_t racing = 0;
  std::size_t hierarchical = 0;
  std::size_t sub_kills = 0;
  std::uint64_t rehomes = 0;
  std::uint64_t splits = 0;
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    const fuzz::ScenarioOutcome o = fuzz::run_scenario(seed);
    ASSERT_TRUE(o.ok()) << fuzz::describe(o);
    if (o.status == CampaignStatus::kUnsat) ++unsat_certified;
    if (o.failures > 0) ++with_failures;
    if (o.mode != solver::ParallelMode::kSplit) ++racing;
    if (o.sub_masters > 0) ++hierarchical;
    sub_kills += o.sub_master_kills;
    rehomes += o.sub_master_rehomes;
    splits += o.splits;
  }
  EXPECT_GE(unsat_certified, 5u);
  EXPECT_GE(with_failures, 8u);
  EXPECT_GE(racing, 3u);  // portfolio/hybrid scenarios reach the oracle
  // Hierarchical topologies (DESIGN.md §4j) are drawn, sub-masters get
  // killed, and at least one site is actually re-homed in the sweep.
  EXPECT_GE(hierarchical, 5u);
  EXPECT_GE(sub_kills, 3u);
  EXPECT_GE(rehomes, 1u);
  EXPECT_GT(splits, 0u);
}

// Calibrated regression (recalibrate if scenario derivation changes):
// seed 67 draws a hierarchical UNSAT campaign whose sub-masters die inside
// the summary-forwarding window — in-flight reports bounce to the root,
// the sites are re-homed, and the refutation must still stitch and
// certify.
TEST(CertifyFuzzRegressionTest, SubMasterDeathInSummaryWindowCertifies) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  const fuzz::ScenarioOutcome o = fuzz::run_scenario(67);
  ASSERT_TRUE(o.ok()) << fuzz::describe(o);
  ASSERT_GT(o.sub_masters, 0u) << "seed 67 no longer draws a hierarchical "
                                  "scenario; recalibrate\n"
                               << fuzz::describe(o);
  EXPECT_GT(o.sub_master_kills, 0u);
  EXPECT_GE(o.sub_master_rehomes, 1u);
  EXPECT_GE(o.sub_master_bounces, 1u);
  EXPECT_EQ(o.status, CampaignStatus::kUnsat);
  EXPECT_GT(o.proof_steps, 0u);
}

}  // namespace
}  // namespace gridsat::core
