// Properties of search-space splitting (paper §3.1 / Figure 2) and sound
// clause sharing (§3.2):
//   * the two branches of a split partition the search space — the
//     original formula is SAT iff some branch is SAT;
//   * recursive splitting down to many leaves preserves the verdict;
//   * every clause exported through the share callback is implied by the
//     ORIGINAL formula, even when learned under split assumptions;
//   * importing shared clauses never changes a verdict;
//   * subproblem serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "util/rng.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

/// Run the solver a little so it builds a decision stack, then split.
/// Returns nullopt if the instance resolved before a split was possible.
std::optional<Subproblem> advance_and_split(CdclSolver& solver,
                                            std::uint64_t slice = 200) {
  for (int attempts = 0; attempts < 2000; ++attempts) {
    const SolveStatus status = solver.solve(slice);
    if (status != SolveStatus::kUnknown) return std::nullopt;
    if (solver.can_split()) return solver.split();
  }
  ADD_FAILURE() << "never reached a splittable state";
  return std::nullopt;
}

TEST(SplitTest, SplitPartitionsSearchSpace) {
  int splits_seen = 0;
  for (int seed = 0; seed < 20; ++seed) {
    const CnfFormula f = gen::random_ksat(14, 59, 3, seed * 31 + 5);
    const bool truth = brute_force_solve(f).has_value();

    CdclSolver a(f);
    auto other = advance_and_split(a);
    if (!other.has_value()) continue;  // solved before splitting; fine
    ++splits_seen;
    CdclSolver b(*other);
    const SolveStatus sa = a.solve();
    const SolveStatus sb = b.solve();
    ASSERT_NE(sa, SolveStatus::kUnknown);
    ASSERT_NE(sb, SolveStatus::kUnknown);
    const bool combined =
        (sa == SolveStatus::kSat) || (sb == SolveStatus::kSat);
    EXPECT_EQ(combined, truth) << "seed " << seed;
    if (sa == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, a.model()));
    }
    if (sb == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, b.model()));
    }
  }
  EXPECT_GT(splits_seen, 0) << "sweep never exercised a split";
}

TEST(SplitTest, RecursiveSplittingPreservesVerdict) {
  for (int seed = 0; seed < 8; ++seed) {
    const CnfFormula f = gen::random_ksat(16, 68, 3, seed * 97 + 11);
    const bool truth = brute_force_solve(f).has_value();

    // Maintain a pool of solvers; repeatedly split the front one until we
    // have up to 8 leaves, then solve them all.
    std::deque<std::unique_ptr<CdclSolver>> pool;
    pool.push_back(std::make_unique<CdclSolver>(f));
    bool found_sat = false;
    std::vector<std::unique_ptr<CdclSolver>> leaves;
    while (!pool.empty()) {
      auto solver = std::move(pool.front());
      pool.pop_front();
      if (pool.size() + leaves.size() < 7) {
        auto other = advance_and_split(*solver, 100);
        if (other.has_value()) {
          pool.push_back(std::make_unique<CdclSolver>(*other));
          pool.push_back(std::move(solver));
          continue;
        }
      }
      leaves.push_back(std::move(solver));
    }
    for (auto& leaf : leaves) {
      const SolveStatus status = leaf->solve();
      ASSERT_NE(status, SolveStatus::kUnknown);
      if (status == SolveStatus::kSat) {
        found_sat = true;
        EXPECT_TRUE(is_model(f, leaf->model()));
      }
    }
    EXPECT_EQ(found_sat, truth) << "seed " << seed;
  }
}

TEST(SplitTest, SplitBranchAssumptionIsTainted) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  CdclSolver a(f);
  const auto other = advance_and_split(a);
  ASSERT_TRUE(other.has_value());
  // The complementary branch must contain exactly one tainted unit more
  // than the donor's level-0 prefix, and its path must mention it.
  int tainted = 0;
  for (const auto& u : other->units) {
    if (u.tainted) ++tainted;
  }
  EXPECT_GE(tainted, 1);
  EXPECT_FALSE(other->path.empty());
  EXPECT_GT(other->num_problem_clauses, 0u);
}

TEST(SplitTest, CannotSplitAtLevelZero) {
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1, 2});
  CdclSolver solver(f);
  EXPECT_FALSE(solver.can_split());
  solver.solve();
  EXPECT_FALSE(solver.can_split());  // solved
}

/// Check that `clause` is implied by `formula`: formula AND NOT(clause)
/// must be unsatisfiable. Uses a fresh CDCL solver as the checker.
bool implied_by(const CnfFormula& formula, const cnf::Clause& clause) {
  Subproblem sp;
  sp.num_vars = formula.num_vars();
  for (const Lit l : clause) {
    sp.num_vars = std::max(sp.num_vars, l.var());
  }
  for (const auto& c : formula.clauses()) sp.clauses.push_back(c);
  sp.num_problem_clauses = sp.clauses.size();
  for (const Lit l : clause) {
    sp.units.push_back(SubproblemUnit{~l, /*tainted=*/false});
  }
  CdclSolver checker(sp);
  return checker.solve() == SolveStatus::kUnsat;
}

TEST(SharingSoundnessTest, SharedClausesImpliedByOriginalFormula) {
  // The load-bearing property for GridSAT's global clause sharing: even
  // clauses learned in a split branch (under assumptions) must be valid
  // for the original formula because tainted level-0 literals are kept.
  for (int seed = 0; seed < 6; ++seed) {
    const CnfFormula f = gen::random_ksat(13, 55, 3, seed * 131 + 3);
    CdclSolver a(f);
    auto other = advance_and_split(a, 150);
    if (!other.has_value()) continue;
    CdclSolver b(*other);

    std::vector<cnf::Clause> shared;
    const auto keep = [&](std::span<const Lit> c, std::uint32_t) {
      if (shared.size() < 50) shared.emplace_back(c.begin(), c.end());
    };
    b.set_share_callback(keep);
    a.set_share_callback(keep);
    a.solve();
    b.solve();
    for (const auto& clause : shared) {
      EXPECT_TRUE(implied_by(f, clause))
          << "seed " << seed << ": shared clause not implied by original";
    }
  }
}

TEST(SharingSoundnessTest, DeepSplitChainStillSound) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver current(f);
  std::vector<Subproblem> branches;
  for (int depth = 0; depth < 4; ++depth) {
    auto other = advance_and_split(current, 300);
    ASSERT_TRUE(other.has_value()) << "depth " << depth;
    branches.push_back(std::move(*other));
  }
  // The deepest branch carries several tainted assumptions; clauses it
  // learns must still be implied by the original formula.
  CdclSolver leaf(branches.back());
  std::vector<cnf::Clause> shared;
  leaf.set_share_callback([&](std::span<const Lit> c, std::uint32_t) {
    if (shared.size() < 30) shared.emplace_back(c.begin(), c.end());
  });
  leaf.solve(2'000'000);
  ASSERT_FALSE(shared.empty());
  for (const auto& clause : shared) {
    EXPECT_TRUE(implied_by(f, clause));
  }
}

TEST(SharingTest, ImportPreservesVerdict) {
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = gen::random_ksat(14, 60, 3, seed * 41 + 17);
    const bool truth = brute_force_solve(f).has_value();

    // Harvest clauses from one run, inject into a fresh solver.
    CdclSolver donor(f);
    cnf::ClauseBlock harvest;
    donor.set_share_callback([&](std::span<const Lit> c, std::uint32_t) {
      if (c.size() <= 10 && harvest.size() < 200) harvest.push_back(c);
    });
    donor.solve();

    CdclSolver receiver(f);
    receiver.import_clauses(harvest);
    const SolveStatus status = receiver.solve();
    EXPECT_EQ(status,
              truth ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "seed " << seed;
    if (status == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, receiver.model()));
    }
    EXPECT_GE(receiver.stats().imported_clauses, 0u);
  }
}

TEST(SharingTest, PresortedAndScrambledImportsAgree) {
  // A grid client sorts each clause once when it exports it, so receivers
  // load canonical clauses. That is free only if literal order never
  // reaches the search: the same imports, presorted or scrambled, must
  // leave two receivers in identical states.
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver donor(f);
  cnf::ClauseBlock exported;
  donor.set_share_callback(
      [&](std::span<const Lit> c, std::uint32_t) { exported.push_back(c); });
  const auto child = advance_and_split(donor, 2'000);
  ASSERT_TRUE(child.has_value());
  (void)donor.solve(40'000);
  ASSERT_GT(exported.size(), 50u);
  cnf::ClauseBlock presorted;
  cnf::ClauseBlock scrambled;
  util::Xoshiro256 rng(23);
  for (const std::span<const Lit> c : exported) {
    const std::span<Lit> sorted = presorted.push_back(c);
    std::sort(sorted.begin(), sorted.end());
    const std::span<Lit> shuffled = scrambled.push_back(c);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
  }
  ASSERT_NE(presorted, scrambled);

  CdclSolver a(*child);
  CdclSolver b(*child);
  // Two level-0 merges each: before the first slice and mid-search.
  for (int round = 0; round < 2; ++round) {
    a.import_clauses(presorted);
    b.import_clauses(scrambled);
    EXPECT_EQ(a.solve(150'000), b.solve(150'000)) << "round " << round;
    EXPECT_TRUE(a.stats() == b.stats()) << "round " << round;
    EXPECT_EQ(a.check_invariants(), "") << "round " << round;
    EXPECT_EQ(b.check_invariants(), "") << "round " << round;
  }
  EXPECT_GT(a.stats().imported_clauses, 0u);
  EXPECT_GT(a.stats().conflicts, 0u);
}

TEST(SharingTest, ImportedUnitForcesImplication) {
  // Paper §3.2 case 1: a clause with one unknown literal results in an
  // implication once merged.
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({3, 2});
  CdclSolver solver(f);
  solver.import_clauses({cnf::Clause{Lit(3, true)}});
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.value(3), cnf::LBool::kFalse);
  EXPECT_EQ(solver.stats().imported_clauses, 1u);
}

TEST(SharingTest, ImportedContradictionRefutesSubproblem) {
  // Paper §3.2 case 3: an imported clause with all literals false at
  // level 0 makes the subproblem unsatisfiable.
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({2});
  CdclSolver solver(f);
  solver.import_clauses({cnf::Clause{Lit(1, true), Lit(2, true)}});
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(SharingTest, SatisfiedImportDiscarded) {
  // Paper §3.2 case 4: clauses satisfied at level 0 are discarded.
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({2, 3});
  CdclSolver solver(f);
  solver.import_clauses({cnf::Clause{Lit(1, false), Lit(2, false)}});
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.stats().imported_useless, 1u);
}

TEST(SharingTest, PendingImportsCounted) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  CdclSolver solver(f);
  solver.import_clauses({cnf::Clause{Lit(1, false)}, cnf::Clause{Lit(2, false)}});
  EXPECT_EQ(solver.pending_imports(), 2u);
  solver.solve();
  EXPECT_EQ(solver.pending_imports(), 0u);
}

TEST(SubproblemTest, SerializationRoundTrip) {
  Subproblem sp;
  sp.num_vars = 20;
  sp.units = {SubproblemUnit{Lit(3, false), false},
              SubproblemUnit{Lit(7, true), true}};
  sp.clauses = {{Lit(1, false), Lit(2, true)},
                {Lit(4, false), Lit(5, false), Lit(6, true)},
                {Lit(20, true)}};
  sp.num_problem_clauses = 2;
  sp.path = "~V7";
  const auto bytes = sp.to_bytes();
  EXPECT_EQ(bytes.size(), sp.wire_size());
  const Subproblem back = Subproblem::from_bytes(bytes);
  EXPECT_EQ(back, sp);
}

TEST(SubproblemTest, WireSizeMatchesSerializedSize) {
  const CnfFormula f = gen::urquhart_like(8, 2);
  CdclSolver solver(f);
  auto other = advance_and_split(solver);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->to_bytes().size(), other->wire_size());
}

TEST(SubproblemTest, RoundTrippedSubproblemSolvesIdentically) {
  // Fine slices: binary-first BCP resolves this instance quickly, so ask
  // for a split at the earliest opportunity rather than every 200 units.
  const CnfFormula f = gen::graph_coloring(12, 30, 3, 7);
  CdclSolver solver(f);
  auto other = advance_and_split(solver, 20);
  ASSERT_TRUE(other.has_value());
  CdclSolver direct(*other);
  CdclSolver viawire(Subproblem::from_bytes(other->to_bytes()));
  EXPECT_EQ(direct.solve(), viawire.solve());
  EXPECT_EQ(direct.stats().decisions, viawire.stats().decisions);
}

TEST(MigrationTest, ToSubproblemResumesElsewhere) {
  // §3.4 migration: a client's current state can be captured and resumed
  // on another host with the same verdict.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  const bool truth = false;  // pigeonhole is UNSAT
  CdclSolver source(f);
  (void)source.solve(5'000);  // make some progress
  const Subproblem snapshot = source.to_subproblem();
  CdclSolver target(snapshot);
  const SolveStatus status = target.solve();
  EXPECT_EQ(status, truth ? SolveStatus::kSat : SolveStatus::kUnsat);
}

TEST(MigrationTest, MigratedStateKeepsLearnedClauses) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver source(f);
  (void)source.solve(50'000);
  const Subproblem snapshot = source.to_subproblem();
  EXPECT_GT(snapshot.clauses.size(), snapshot.num_problem_clauses)
      << "learned clauses should ride along in a migration";
}

/// True when every clause lists its literals strictly ascending: the
/// canonical order split() ships (arena clauses hold no duplicates).
bool strictly_ascending(const Subproblem& sp) {
  for (const std::span<const Lit> c : sp.clauses) {
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (!(c[i - 1] < c[i])) return false;
    }
  }
  return true;
}

TEST(RehydrationTest, SplitShipsEveryClauseInCanonicalOrder) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver donor(f);
  for (int split = 0; split < 5; ++split) {
    auto child = advance_and_split(donor, 2'000);
    ASSERT_TRUE(child.has_value()) << "split " << split;
    EXPECT_TRUE(strictly_ascending(*child)) << "split " << split;
  }
  EXPECT_TRUE(strictly_ascending(donor.to_subproblem()));
}

TEST(RehydrationTest, LoadDoesNotDependOnLiteralOrder) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver donor(f);
  const auto child = advance_and_split(donor, 20'000);
  ASSERT_TRUE(child.has_value());
  ASSERT_GT(child->clauses.size(), child->num_problem_clauses)
      << "the child should carry learned clauses";
  // The same clauses, each shuffled, and one carrying a duplicate literal.
  Subproblem scrambled = *child;
  util::Xoshiro256 rng(15);
  scrambled.clauses.clear();
  for (std::size_t k = 0; k < child->clauses.size(); ++k) {
    const auto lits = child->clauses[k];
    cnf::Clause c(lits.begin(), lits.end());
    for (std::size_t i = c.size(); i > 1; --i) {
      std::swap(c[i - 1], c[rng.below(i)]);
    }
    if (k + 1 == child->clauses.size()) {
      c.insert(c.begin() + static_cast<std::ptrdiff_t>(rng.below(c.size())),
               c.back());
    }
    scrambled.clauses.push_back(c);
  }
  ASSERT_NE(scrambled.clauses, child->clauses);

  CdclSolver canonical(*child);
  CdclSolver shuffled(scrambled);
  EXPECT_EQ(canonical.solve(300'000), shuffled.solve(300'000));
  EXPECT_GT(canonical.stats().conflicts, 0u);
  EXPECT_EQ(canonical.stats().decisions, shuffled.stats().decisions);
  EXPECT_EQ(canonical.stats().propagations, shuffled.stats().propagations);
  EXPECT_EQ(canonical.stats().conflicts, shuffled.stats().conflicts);
  EXPECT_EQ(canonical.to_subproblem(), shuffled.to_subproblem());
}

}  // namespace
}  // namespace gridsat::solver
