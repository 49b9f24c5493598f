// Certification fuzz smoke: every seeded scenario (random instance ×
// testbed × knobs × injected client failures) must satisfy the oracle in
// core/fuzz.hpp — SAT models satisfy, UNSAT refutations stitch and
// certify, ERROR only after an injected kill. A failing seed reproduces
// with `./examples/gridsat_fuzz --seed N`.
#include <cstdio>
#include <ostream>
#include <string>

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
// racing another child was dropped), 1034 and 41004 (a relaunch freed a
// dead client whose compute slice was still queued; caught by the ASan
// build), 1484 and 15491 (a racer's stale verdict refuted the child it
// started after a race cancel), 10660 (a host was relaunched before the
// master noticed its client's death). Seeds 1034 and 1484 no longer reach
// their bug since every scenario runs the full learned-clause pipeline;
// 41004 and 15491 do, and fail with the respective fix reverted.
INSTANTIATE_TEST_SUITE_P(Regressions, CertifyFuzzTest,
                         ::testing::Values<std::uint64_t>(44, 1034, 1484,
                                                          10660, 41004,
                                                          15491));

// Seeds whose scenario drew every learned-clause pass on (minimization,
// binary strengthening, on-the-fly subsumption, compaction) while those
// passes were switchable. The passes now always run and the retired draws
// are still consumed, so each of these seeds keeps its instance, hosts,
// kills and mode — and its whole summary line, recorded back then. Chosen
// to cover splits, migrations, recoveries, races, batch hosts, sub-master
// re-homes and bounces, and an ERROR verdict. A deliberate behaviour change
// re-records a line from `./examples/gridsat_fuzz --seed N`.
struct PinnedSummary {
  std::uint64_t seed;
  const char* line;
};

void PrintTo(const PinnedSummary& p, std::ostream* os) {
  *os << "seed " << p.seed;
}

const PinnedSummary kAllPassesSeeds[] = {
    {28,
     "seed 28: urq-7/58, 2 hosts, 3 kills, hybrid"
     " -> UNSAT in 7.25014"
     " vs (1 splits, 0 migrations, 0 recoveries, 265 proof steps)"},
    {31,
     "seed 31: php-6, 2 hosts, 3 kills"
     " -> UNSAT in 46.074"
     " vs (3 splits, 2 migrations, 2 recoveries, 896 proof steps)"},
    {34,
     "seed 34: php-6, 5 hosts, 1 kills, portfolio"
     " -> UNSAT in 40.8968"
     " vs (0 splits, 0 migrations, 0 recoveries, 3 cancelled,"
     " 1825 proof steps)"},
    {36,
     "seed 36: rand3-516950, 4 hosts, 1 kills, portfolio"
     " -> SAT in 2.06375"
     " vs (0 splits, 0 migrations, 0 recoveries)"},
    {40,
     "seed 40: urq-8/31, 4 hosts, 0 kills"
     " -> UNSAT in 9.00347"
     " vs (2 splits, 0 migrations, 0 recoveries, 514 proof steps)"},
    {41,
     "seed 41: urq-9/59, 3 hosts, 0 kills, 2 sub-masters"
     " -> UNSAT in 21.444"
     " vs (6 splits, 0 migrations, 0 recoveries, 2 brokered,"
     " 1030 proof steps)"},
    {52,
     "seed 52: urq-8/44, 5 hosts, 1 kills"
     " -> UNSAT in 10.6509"
     " vs (1 splits, 1 migrations, 0 recoveries, 507 proof steps)"},
    {62,
     "seed 62: rand3-157581, 2 hosts, 1 kills, 2 sub-masters (2 killed,"
     " 1 rehomed, 0 bounces)"
     " -> SAT in 2.31864"
     " vs (0 splits, 0 migrations, 0 recoveries)"},
    {78,
     "seed 78: urq-9/59, 5 hosts, 1 kills, batch, portfolio"
     " -> UNSAT in 12.3125"
     " vs (0 splits, 0 migrations, 0 recoveries, 3 cancelled,"
     " 1365 proof steps)"},
    {93,
     "seed 93: php-5, 5 hosts, 2 kills, batch, 1 sub-masters"
     " -> ERROR in 4.20131"
     " vs (0 splits, 0 migrations, 0 recoveries)"},
    {101,
     "seed 101: urq-10/38, 5 hosts, 3 kills"
     " -> UNSAT in 25.9273"
     " vs (8 splits, 0 migrations, 3 recoveries, 2131 proof steps)"},
    {113,
     "seed 113: rand3-824875, 5 hosts, 2 kills, portfolio"
     " -> UNSAT in 2.31522"
     " vs (0 splits, 0 migrations, 0 recoveries, 4 cancelled,"
     " 147 proof steps)"},
    {119,
     "seed 119: urq-10/33, 2 hosts, 0 kills, batch"
     " -> UNSAT in 38.1449"
     " vs (2 splits, 0 migrations, 0 recoveries, 2050 proof steps)"},
    {125,
     "seed 125: php-5, 2 hosts, 1 kills, batch, 2 sub-masters (2 killed,"
     " 0 rehomed, 0 bounces)"
     " -> UNSAT in 6.42838"
     " vs (2 splits, 0 migrations, 0 recoveries, 2 brokered, 140 proof steps)"},
    {139,
     "seed 139: urq-7/31, 2 hosts, 2 kills"
     " -> UNSAT in 8.79411"
     " vs (0 splits, 1 migrations, 0 recoveries, 267 proof steps)"},
    {143,
     "seed 143: urq-9/13, 4 hosts, 1 kills, portfolio"
     " -> UNSAT in 8.12936"
     " vs (0 splits, 0 migrations, 0 recoveries, 3 cancelled,"
     " 969 proof steps)"},
    {218,
     "seed 218: urq-10/15, 3 hosts, 2 kills, hybrid"
     " -> UNSAT in 12.1459"
     " vs (2 splits, 0 migrations, 0 recoveries, 1 cancelled,"
     " 918 proof steps)"},
    {248,
     "seed 248: rand3-1005956, 4 hosts, 0 kills, batch, hybrid"
     " -> UNSAT in 2.17608"
     " vs (0 splits, 0 migrations, 0 recoveries, 13 proof steps)"},
    {271,
     "seed 271: planted-773313, 3 hosts, 3 kills, 2 sub-masters (2 killed,"
     " 0 rehomed, 4 bounces)"
     " -> SAT in 2.22944"
     " vs (0 splits, 0 migrations, 0 recoveries)"},
    {273,
     "seed 273: urq-9/26, 2 hosts, 3 kills"
     " -> UNSAT in 20.9517"
     " vs (2 splits, 0 migrations, 3 recoveries, 1057 proof steps)"},
    {312,
     "seed 312: php-7, 2 hosts, 1 kills, 2 sub-masters (1 killed, 1 rehomed,"
     " 0 bounces)"
     " -> UNSAT in 176.547"
     " vs (12 splits, 0 migrations, 1 recoveries, 12 brokered,"
     " 3315 proof steps)"},
    {330,
     "seed 330: urq-8/45, 4 hosts, 3 kills, portfolio"
     " -> UNSAT in 10.7255"
     " vs (0 splits, 0 migrations, 0 recoveries, 1216 proof steps)"},
    {362,
     "seed 362: urq-10/38, 3 hosts, 1 kills, batch, 2 sub-masters (1 killed,"
     " 1 rehomed, 1 bounces)"
     " -> UNSAT in 31.6038"
     " vs (5 splits, 0 migrations, 1 recoveries, 3 brokered,"
     " 2053 proof steps)"},
    {390,
     "seed 390: rand3-342029, 3 hosts, 3 kills, 1 sub-masters (1 killed,"
     " 0 rehomed, 0 bounces)"
     " -> UNSAT in 2.32928"
     " vs (0 splits, 0 migrations, 0 recoveries, 33 proof steps)"},
};

class PinnedSummaryTest : public ::testing::TestWithParam<PinnedSummary> {};

TEST_P(PinnedSummaryTest, SummaryLineUnchanged) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  const fuzz::ScenarioOutcome outcome = fuzz::run_scenario(GetParam().seed);
  EXPECT_TRUE(outcome.ok()) << fuzz::describe(outcome);
  EXPECT_EQ(fuzz::describe(outcome), GetParam().line);
}

INSTANTIATE_TEST_SUITE_P(
    AllPasses, PinnedSummaryTest, ::testing::ValuesIn(kAllPassesSeeds),
    [](const ::testing::TestParamInfo<PinnedSummary>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

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
