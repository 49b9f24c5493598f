// Command-line SAT solver over standard DIMACS files — the shape of tool
// a downstream user actually wants first. Solves sequentially by default;
// --grid runs a simulated GridSAT campaign on the GrADS-34 testbed.
//
// Usage:
//   ./dimacs_solve problem.cnf
//   ./dimacs_solve --threads=8 problem.cnf                (real threads)
//   ./dimacs_solve --grid --share-len=10 problem.cnf      (simulated grid)
//   ./dimacs_solve --work-budget=100000000 problem.cnf
#include <cstdio>

#include "cnf/dimacs.hpp"
#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "solver/cdcl.hpp"
#include "solver/parallel.hpp"
#include "util/flags.hpp"

using namespace gridsat;  // NOLINT

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_bool("grid", false, "solve on the simulated 34-host grid");
  flags.define_i64("threads", 0,
                   "solve with N real threads (GridSAT algorithm, no sim)");
  flags.define_i64("share-len", 10, "max shared learned-clause length (grid)");
  flags.define_f64("split-timeout", 100.0, "split timeout seconds (grid)");
  flags.define_f64("timeout", 1e9, "virtual-seconds cap");
  flags.define_i64("work-budget", 0, "sequential work-unit cap (0 = none)");
  flags.define_bool("stats", false, "print solver statistics");
  flags.define_i64("seed", 1, "solver seed");
  if (!flags.parse(argc, argv) || flags.positional().size() != 1) {
    std::fputs(flags.usage("dimacs_solve <file.cnf>").c_str(), stderr);
    return 2;
  }

  cnf::CnfFormula formula;
  try {
    formula = cnf::parse_dimacs_file(flags.positional()[0]);
  } catch (const cnf::DimacsError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("c parsed %u vars, %zu clauses\n", formula.num_vars(),
              formula.num_clauses());

  if (flags.i64("threads") > 0) {
    solver::ParallelOptions options;
    options.num_threads = static_cast<std::size_t>(flags.i64("threads"));
    options.share_max_len = static_cast<std::size_t>(flags.i64("share-len"));
    options.solver.seed = static_cast<std::uint64_t>(flags.i64("seed"));
    solver::ParallelSolver parallel(formula, options);
    const solver::ParallelResult result = parallel.solve();
    std::printf("c threads=%zu splits=%llu refuted=%llu shared=%llu\n",
                result.stats.threads,
                static_cast<unsigned long long>(result.stats.splits),
                static_cast<unsigned long long>(
                    result.stats.subproblems_refuted),
                static_cast<unsigned long long>(
                    result.stats.clauses_published));
    if (result.status == solver::SolveStatus::kSat) {
      std::printf("s SATISFIABLE\nv ");
      for (cnf::Var v = 1; v <= formula.num_vars(); ++v) {
        std::printf("%s%u ",
                    result.model[v] == cnf::LBool::kFalse ? "-" : "", v);
      }
      std::printf("0\n");
      return 10;
    }
    if (result.status == solver::SolveStatus::kUnsat) {
      std::printf("s UNSATISFIABLE\n");
      return 20;
    }
    std::printf("s UNKNOWN\n");
    return 0;
  }

  if (flags.boolean("grid")) {
    core::GridSatConfig config;
    config.share_max_len = static_cast<std::size_t>(flags.i64("share-len"));
    config.split_timeout_s = flags.f64("split-timeout");
    config.overall_timeout_s = flags.f64("timeout");
    config.min_client_memory = 1 << 20;
    config.solver.seed = static_cast<std::uint64_t>(flags.i64("seed"));
    core::Campaign campaign(formula, core::testbeds::kMasterSite,
                            core::testbeds::grads34(), config);
    const core::GridSatResult result = campaign.run();
    std::printf("c grid: %.1f virtual s, %zu clients, %llu splits\n",
                result.seconds, result.max_active_clients,
                static_cast<unsigned long long>(result.total_splits));
    switch (result.status) {
      case core::CampaignStatus::kSat: {
        std::printf("s SATISFIABLE\nv ");
        for (cnf::Var v = 1; v <= formula.num_vars(); ++v) {
          std::printf("%s%u ",
                      result.model[v] == cnf::LBool::kFalse ? "-" : "", v);
        }
        std::printf("0\n");
        return 10;
      }
      case core::CampaignStatus::kUnsat:
        std::printf("s UNSATISFIABLE\n");
        return 20;
      default:
        std::printf("s UNKNOWN\n");
        return 0;
    }
  }

  solver::SolverConfig config;
  config.seed = static_cast<std::uint64_t>(flags.i64("seed"));
  solver::CdclSolver solver(formula, config);
  const std::uint64_t budget = flags.i64("work-budget") > 0
                                   ? static_cast<std::uint64_t>(
                                         flags.i64("work-budget"))
                                   : ~std::uint64_t{0};
  const solver::SolveStatus status = solver.solve(budget);
  if (flags.boolean("stats")) {
    const auto& s = solver.stats();
    std::printf("c decisions=%llu conflicts=%llu propagations=%llu "
                "learned=%llu restarts=%llu db=%zuB\n",
                static_cast<unsigned long long>(s.decisions),
                static_cast<unsigned long long>(s.conflicts),
                static_cast<unsigned long long>(s.propagations),
                static_cast<unsigned long long>(s.learned_clauses),
                static_cast<unsigned long long>(s.restarts),
                solver.db_bytes());
  }
  switch (status) {
    case solver::SolveStatus::kSat: {
      std::printf("s SATISFIABLE\nv ");
      for (cnf::Var v = 1; v <= formula.num_vars(); ++v) {
        std::printf("%s%u ",
                    solver.model()[v] == cnf::LBool::kFalse ? "-" : "", v);
      }
      std::printf("0\n");
      return 10;
    }
    case solver::SolveStatus::kUnsat:
      std::printf("s UNSATISFIABLE\n");
      return 20;
    case solver::SolveStatus::kMemOut:
      std::printf("s UNKNOWN\nc memory limit exceeded\n");
      return 0;
    case solver::SolveStatus::kUnknown:
      std::printf("s UNKNOWN\n");
      return 0;
  }
  return 0;
}
