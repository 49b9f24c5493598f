// Cross-module integration: the thread-parallel solver agreeing with the
// simulated campaign, DIMACS files flowing through the whole pipeline, and
// proofs logged for instances the campaign refutes.
#include <gtest/gtest.h>

#include "cnf/dimacs.hpp"
#include "core/campaign.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/quasigroup.hpp"
#include "solver/parallel.hpp"
#include "solver/proof.hpp"
#include "util/strings.hpp"

namespace gridsat {
namespace {

using cnf::CnfFormula;
using core::CampaignStatus;
using solver::SolveStatus;

constexpr std::size_t kMiB = 1024 * 1024;

std::vector<sim::HostSpec> hosts4() {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("h", i);
    spec.site = "one";
    spec.speed = 4000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  return hosts;
}

core::GridSatConfig quick_config() {
  core::GridSatConfig config;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 1e8;
  config.min_client_memory = 1 * kMiB;
  return config;
}

TEST(IntegrationTest, ParallelSolverAgreesWithCampaign) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  core::Campaign campaign(f, "one", hosts4(), quick_config());
  const auto campaign_status = campaign.run().status;

  solver::ParallelOptions options;
  options.num_threads = 3;
  options.slice_work = 50'000;
  solver::ParallelSolver parallel(f, options);
  const auto parallel_status = parallel.solve().status;

  EXPECT_EQ(campaign_status, CampaignStatus::kUnsat);
  EXPECT_EQ(parallel_status, SolveStatus::kUnsat);
}

TEST(IntegrationTest, DimacsFileThroughWholePipeline) {
  // Generate -> write -> parse -> campaign, end to end.
  gen::QuasigroupParams params;
  params.order = 6;
  params.seed = 4;
  const CnfFormula original = gen::quasigroup_completion(params);
  const std::string path = testing::TempDir() + "/integration_qg.cnf";
  cnf::write_dimacs_file(original, path);
  const CnfFormula loaded = cnf::parse_dimacs_file(path);
  ASSERT_TRUE(original == loaded);

  core::Campaign campaign(loaded, "one", hosts4(), quick_config());
  const core::GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kSat);
  EXPECT_TRUE(is_model(original, result.model));
}

TEST(IntegrationTest, SequentialProofForCampaignRefutedInstance) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  // The campaign refutes it; an independent proof-logging sequential run
  // certifies the UNSAT verdict mechanically.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  core::Campaign campaign(f, "one", hosts4(), quick_config());
  ASSERT_EQ(campaign.run().status, CampaignStatus::kUnsat);

  solver::SolverConfig config;
  config.log_proof = true;
  solver::CdclSolver certifier(f, config);
  ASSERT_EQ(certifier.solve(), SolveStatus::kUnsat);
  const auto check = solver::check_unsat_proof(f, certifier.proof());
  EXPECT_TRUE(check.valid) << check.message;
}

}  // namespace
}  // namespace gridsat
