// Checkpoint (paper §3.4) unit tests: serialization round trips, restore
// semantics, and size relations between light and heavy checkpoints.
#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::core {
namespace {

using cnf::Lit;

TEST(CheckpointTest, RoundTrip) {
  Checkpoint cp;
  cp.heavy = true;
  cp.delta = true;
  cp.incarnation = 7;
  cp.epoch = 3;
  cp.base_epoch = 2;
  cp.units = {{Lit(1, false), false}, {Lit(5, true), true}};
  // Canonical wire order: clauses ascending by length, literal codes
  // sorted within a clause (the codec is free to reorder both — watch
  // order is rebuilt on attach).
  cp.learned = {{Lit(4, true)}, {Lit(2, false), Lit(3, true)}};
  const Checkpoint back = Checkpoint::from_bytes(cp.to_bytes());
  EXPECT_EQ(back, cp);
}

TEST(CheckpointTest, RoundTripCanonicalizesClauseOrder) {
  Checkpoint cp;
  cp.heavy = true;
  cp.learned = {{Lit(3, true), Lit(2, false)}, {Lit(4, true)}};
  const Checkpoint back = Checkpoint::from_bytes(cp.to_bytes());
  // Same clause multiset, canonical order: short clauses first, sorted
  // literal codes inside each clause.
  const cnf::ClauseBlock expect = {{Lit(4, true)},
                                   {Lit(2, false), Lit(3, true)}};
  EXPECT_EQ(back.learned, expect);
  // Round-tripping the canonical form is a fixpoint.
  EXPECT_EQ(Checkpoint::from_bytes(back.to_bytes()), back);
}

TEST(CheckpointTest, EmptyRoundTrip) {
  Checkpoint cp;
  const Checkpoint back = Checkpoint::from_bytes(cp.to_bytes());
  EXPECT_EQ(back, cp);
  EXPECT_FALSE(back.heavy);
}

TEST(CheckpointTest, LightIsSmallerThanHeavy) {
  // Run a solver, snapshot both ways; the heavy checkpoint carries the
  // learned clauses ("check-pointing learned clauses requires a lot
  // [of] space", §3.4).
  const auto f = gen::pigeonhole_unsat(7);
  solver::CdclSolver solver(f);
  (void)solver.solve(200'000);
  Checkpoint light;
  light.units = solver.level0_units();
  Checkpoint heavy;
  heavy.heavy = true;
  heavy.units = solver.level0_units();
  heavy.learned = solver.learned_clauses();
  ASSERT_FALSE(heavy.learned.empty());
  EXPECT_LT(light.wire_size(), heavy.wire_size());
}

TEST(CheckpointTest, LightRestoreRebuildsFromProblemFile) {
  const auto f = gen::random_ksat(20, 85, 3, 9);
  solver::CdclSolver solver(f);
  const auto direct = solver.solve();

  Checkpoint light;
  light.units = solver.level0_units();
  const solver::Subproblem sp = light.restore(f);
  EXPECT_EQ(sp.num_problem_clauses, f.num_clauses());
  EXPECT_EQ(sp.clauses.size(), f.num_clauses());

  solver::CdclSolver resumed(sp);
  EXPECT_EQ(resumed.solve(), direct);
}

TEST(CheckpointTest, HeavyRestoreKeepsLearnedClauses) {
  const auto f = gen::pigeonhole_unsat(7);
  solver::CdclSolver solver(f);
  (void)solver.solve(200'000);
  Checkpoint heavy;
  heavy.heavy = true;
  heavy.units = solver.level0_units();
  heavy.learned = solver.learned_clauses();
  const solver::Subproblem sp = heavy.restore(f);
  EXPECT_EQ(sp.num_problem_clauses, f.num_clauses());
  EXPECT_GT(sp.clauses.size(), f.num_clauses());

  solver::CdclSolver resumed(sp);
  EXPECT_EQ(resumed.solve(), solver::SolveStatus::kUnsat);
}

TEST(CheckpointTest, RestorePreservesTaintFlags) {
  Checkpoint cp;
  cp.units = {{Lit(2, false), true}, {Lit(3, true), false}};
  cnf::CnfFormula f(3);
  f.add_dimacs_clause({1, 2, 3});
  const solver::Subproblem sp = cp.restore(f);
  ASSERT_EQ(sp.units.size(), 2u);
  EXPECT_TRUE(sp.units[0].tainted);
  EXPECT_FALSE(sp.units[1].tainted);
}

}  // namespace
}  // namespace gridsat::core
