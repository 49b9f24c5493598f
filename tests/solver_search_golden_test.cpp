// Golden search trajectories of the CDCL engine. Each case pins the
// verdict and the search counters of one default-config solve: decisions,
// conflicts, implied literals (and the share the binary store implied),
// learned literals, the literals each learned-clause pass removed
// (recursive minimization, binary strengthening, on-the-fly subsumption),
// DB reductions with their locality compactions, and the work units the
// simulator turns into virtual time. The values were recorded when those
// passes were still switchable, with every pass on; a refactor of BCP,
// analysis or DB maintenance must leave them untouched, and a deliberate
// heuristic change re-records them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "cnf/formula.hpp"
#include "gen/circuit_families.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/planning.hpp"
#include "gen/quasigroup.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;

CnfFormula binary_heavy(cnf::Var num_vars, std::size_t num_binary,
                        std::size_t num_ternary, std::uint64_t seed) {
  const CnfFormula f2 = gen::random_ksat(num_vars, num_binary, 2, seed);
  const CnfFormula f3 =
      gen::random_ksat(num_vars, num_ternary, 3, seed * 31 + 17);
  CnfFormula f(num_vars);
  for (const auto& c : f2.clauses()) f.add_clause(c);
  for (const auto& c : f3.clauses()) f.add_clause(c);
  return f;
}

CnfFormula xor_40(bool consistent) {
  gen::XorSystemParams params;
  params.num_vars = 40;
  params.num_equations = 40;
  params.consistent = consistent;
  params.seed = 5;
  return gen::xor_system(params);
}

CnfFormula quasigroup_6(bool completable) {
  gen::QuasigroupParams params;
  params.order = 6;
  params.completable = completable;
  params.seed = 4;
  return gen::quasigroup_completion(params);
}

struct Trajectory {
  SolveStatus status = SolveStatus::kUnknown;
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t bin_strengthened_literals = 0;
  std::uint64_t otf_strengthened = 0;
  std::uint64_t db_reductions = 0;
  std::uint64_t arena_compactions = 0;
  std::uint64_t work = 0;

  bool operator==(const Trajectory&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Trajectory& t) {
  return os << to_string(t.status) << " {" << t.decisions << ", "
            << t.conflicts << ", " << t.propagations << ", "
            << t.binary_propagations << ", " << t.learned_literals << ", "
            << t.minimized_literals << ", " << t.bin_strengthened_literals
            << ", " << t.otf_strengthened << ", " << t.db_reductions << ", "
            << t.arena_compactions << ", " << t.work << "}";
}

struct GoldenCase {
  const char* name;
  CnfFormula (*make)();
  /// reduce_base 60 / reduce_growth 1.01: reduce_db() and its compaction
  /// run every few dozen conflicts instead of never on these sizes.
  bool eager_reduce;
  Trajectory expected;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

using enum SolveStatus;

// expected: {status, decisions, conflicts, propagations, binary_propagations,
//            learned_literals, minimized_literals, bin_strengthened_literals,
//            otf_strengthened, db_reductions, arena_compactions, work}
const GoldenCase kCases[] = {
    {"rand3_50_1", [] { return gen::random_ksat(50, 213, 3, 1); }, false,
     {kUnsat, 116, 110, 2125, 4, 456, 94, 0, 1, 0, 0, 17120}},
    {"rand3_50_5", [] { return gen::random_ksat(50, 213, 3, 5); }, false,
     {kUnsat, 66, 58, 996, 1, 207, 47, 1, 0, 0, 0, 7274}},
    {"rand3_50_6", [] { return gen::random_ksat(50, 213, 3, 6); }, false,
     {kSat, 32, 21, 391, 0, 91, 19, 0, 1, 0, 0, 2953}},
    {"rand3_80_1", [] { return gen::random_ksat(80, 341, 3, 1); }, false,
     {kUnsat, 646, 543, 13758, 21, 3222, 854, 0, 5, 0, 0, 138967}},
    {"rand3_80_2", [] { return gen::random_ksat(80, 341, 3, 2); }, false,
     {kSat, 57, 30, 783, 0, 234, 25, 0, 0, 0, 0, 6097}},
    {"rand4_40_1", [] { return gen::random_ksat(40, 396, 4, 1); }, false,
     {kSat, 707, 626, 8563, 3, 4195, 1256, 0, 2, 0, 0, 182156}},
    {"binary_heavy_30", [] { return binary_heavy(30, 45, 80, 11); }, false,
     {kUnsat, 2, 3, 44, 43, 2, 0, 0, 0, 0, 0, 103}},
    {"php_6", [] { return gen::pigeonhole_unsat(6); }, false,
     {kUnsat, 461, 379, 5648, 3574, 3690, 338, 95, 34, 0, 0, 136496}},
    {"php_7", [] { return gen::pigeonhole_unsat(7); }, false,
     {kUnsat, 1611, 1346, 18866, 11778, 18694, 2272, 635, 134, 0, 0, 1357143}},
    {"php_8_into_8", [] { return gen::pigeonhole(8, 8); }, false,
     {kSat, 525, 420, 7078, 4660, 8550, 238, 137, 56, 0, 0, 289264}},
    {"urquhart_5", [] { return gen::urquhart_like(5, 1); }, false,
     {kUnsat, 63, 64, 261, 0, 192, 99, 0, 1, 0, 0, 3828}},
    {"xor_consistent", [] { return xor_40(true); }, false,
     {kSat, 18, 13, 226, 0, 50, 5, 0, 0, 0, 0, 1911}},
    {"xor_inconsistent", [] { return xor_40(false); }, false,
     {kUnsat, 19, 19, 268, 6, 56, 4, 0, 4, 0, 0, 2124}},
    {"quasigroup_6_sat", [] { return quasigroup_6(true); }, false,
     {kSat, 2, 0, 199, 180, 0, 0, 0, 0, 0, 0, 953}},
    {"quasigroup_6_unsat", [] { return quasigroup_6(false); }, false,
     {kUnsat, 0, 1, 90, 90, 0, 0, 0, 0, 0, 0, 106}},
    {"adder_miter", [] { return gen::adder_miter(6, false, 1); }, false,
     {kUnsat, 310, 232, 6358, 2646, 1462, 433, 6, 26, 0, 0, 52207}},
    {"adder_miter_bug", [] { return gen::adder_miter(6, true, 1); }, false,
     {kSat, 16, 4, 186, 58, 36, 8, 0, 2, 0, 0, 1278}},
    {"mult_comm_3", [] { return gen::mult_comm_miter(3); }, false,
     {kUnsat, 94, 71, 3141, 1695, 325, 166, 2, 1, 0, 0, 18540}},
    {"factoring_143", [] { return gen::factoring(143, 8); }, false,
     {kSat, 111, 52, 4551, 2351, 284, 123, 1, 1, 0, 0, 23402}},
    {"chessboard_3", [] { return gen::mutilated_chessboard(3); }, false,
     {kUnsat, 54, 42, 1196, 894, 219, 14, 1, 4, 0, 0, 7260}},
    {"coloring_40", [] { return gen::graph_coloring(40, 100, 3, 7); }, false,
     {kUnsat, 28, 24, 850, 650, 62, 2, 2, 0, 0, 0, 2834}},
    {"hanoi_3", [] { return gen::hanoi_sat(3, 7); }, false,
     {kSat, 147, 32, 1640, 1229, 155, 13, 2, 2, 0, 0, 8425}},
    {"rand3_80_1_reduce", [] { return gen::random_ksat(80, 341, 3, 1); }, true,
     {kUnsat, 657, 556, 14235, 33, 3413, 621, 0, 6, 20, 20, 108948}},
    {"rand4_40_1_reduce", [] { return gen::random_ksat(40, 396, 4, 1); }, true,
     {kSat, 1012, 888, 12393, 18, 5909, 1538, 8, 3, 32, 32, 204099}},
    {"adder_miter_reduce", [] { return gen::adder_miter(6, false, 1); }, true,
     {kUnsat, 393, 291, 7834, 3181, 1824, 374, 11, 45, 9, 9, 54607}},
    {"chessboard_4_reduce", [] { return gen::mutilated_chessboard(4); }, true,
     {kUnsat, 3988, 2452, 70044, 48799, 17436, 1328, 134, 120, 928, 928,
      455653}},
};

class CdclSearchGoldenTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(CdclSearchGoldenTest, SameSearchAsRecorded) {
  const GoldenCase& golden = GetParam();
  const CnfFormula f = golden.make();
  SolverConfig config;
  if (golden.eager_reduce) {
    config.reduce_base = 60;
    config.reduce_growth = 1.01;
  }
  CdclSolver solver(f, config);
  const SolveStatus status = solver.solve();
  const SolverStats& s = solver.stats();
  const Trajectory actual{status,
                          s.decisions,
                          s.conflicts,
                          s.propagations,
                          s.binary_propagations,
                          s.learned_literals,
                          s.minimized_literals,
                          s.bin_strengthened_literals,
                          s.otf_strengthened,
                          s.db_reductions,
                          s.arena_compactions,
                          s.work};
  EXPECT_EQ(actual, golden.expected);
  EXPECT_EQ(solver.check_invariants(), "");
  if (status == kSat) {
    EXPECT_TRUE(is_model(f, solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, CdclSearchGoldenTest, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gridsat::solver
