// Proof logging / checking tests: recorded refutations verify; corrupted
// ones are rejected; every clause a split solver shares is RUP against
// the ORIGINAL formula (the mechanical witness of GridSAT's sharing
// soundness); DRAT rendering round-trips basics.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "gen/circuit_families.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "solver/parallel.hpp"
#include "solver/proof.hpp"
#include "util/rng.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

SolverConfig proof_config() {
  SolverConfig config;
  config.log_proof = true;
  return config;
}

// Tests that need the solver itself to emit DRUP steps are meaningless
// when the hooks are compiled out (-DGRIDSAT_PROOF=OFF).
#define REQUIRE_PROOF_HOOKS() \
  if (!kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off"

TEST(ProofTest, PigeonholeRefutationChecks) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  ASSERT_TRUE(solver.proof().ends_with_empty_clause());
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
  EXPECT_GT(result.steps_checked, 0u);
}

TEST(ProofTest, TrivialContradictionChecks) {
  REQUIRE_PROOF_HOOKS();
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1});
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
}

class ProofSweep : public testing::TestWithParam<int> {};

TEST_P(ProofSweep, RandomUnsatRefutationsCheck) {
  REQUIRE_PROOF_HOOKS();
  const int seed = GetParam();
  const CnfFormula f = gen::random_ksat(16, 90, 3, seed * 523 + 7);
  CdclSolver solver(f, proof_config());
  if (solver.solve() != SolveStatus::kUnsat) {
    GTEST_SKIP() << "instance happens to be SAT";
  }
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProofSweep, testing::Range(0, 10));

TEST(ProofTest, ProofWithDbReductionsStillChecks) {
  REQUIRE_PROOF_HOOKS();
  // Force reductions mid-run so deletion steps appear in the log.
  const CnfFormula f = gen::pigeonhole_unsat(7);
  SolverConfig config = proof_config();
  config.reduce_base = 50;
  config.reduce_growth = 1.05;
  CdclSolver solver(f, config);
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  bool has_deletion = false;
  for (const auto& step : solver.proof().steps()) {
    has_deletion |= step.deletion;
  }
  EXPECT_TRUE(has_deletion) << "expected deletion steps in the log";
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
}

TEST(ProofTest, CorruptedProofRejected) {
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);

  // Tamper: inject a clause that is NOT implied (a fresh unit that the
  // formula does not force).
  ProofLog tampered;
  tampered.add(cnf::Clause{Lit(1, false)});
  for (const auto& step : solver.proof().steps()) {
    if (step.deletion) {
      tampered.remove(step.clause);
    } else {
      tampered.add(step.clause);
    }
  }
  // The injected unit may or may not be RUP for this formula; assert the
  // checker at least never crashes and the real proof still validates.
  (void)check_unsat_proof(f, tampered);

  // A proof that never reaches the empty clause must be rejected.
  ProofLog truncated;
  for (const auto& step : solver.proof().steps()) {
    if (!step.deletion && step.clause.empty()) break;
    if (step.deletion) {
      truncated.remove(step.clause);
    } else {
      truncated.add(step.clause);
    }
  }
  const ProofCheckResult result = check_unsat_proof(f, truncated);
  EXPECT_FALSE(result.valid);
  EXPECT_FALSE(result.message.empty());
}

TEST(ProofTest, NonRupInjectionFails) {
  // V1..V3 free: the unit clause (V1) is not RUP for the empty formula.
  CnfFormula f(3);
  f.add_dimacs_clause({1, 2});
  ProofLog bogus;
  bogus.add(cnf::Clause{Lit(3, false)});
  bogus.add_empty();
  const ProofCheckResult result = check_unsat_proof(f, bogus);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.failed_step, 0u);
}

TEST(ProofTest, IsRupBasics) {
  // {(a+b), (~a+b)} makes (b) RUP; (a) is not.
  std::vector<cnf::Clause> db{{Lit(1, false), Lit(2, false)},
                              {Lit(1, true), Lit(2, false)}};
  EXPECT_TRUE(is_rup(db, 2, {Lit(2, false)}));
  EXPECT_FALSE(is_rup(db, 2, {Lit(1, false)}));
  // Tautologies are trivially fine.
  EXPECT_TRUE(is_rup(db, 2, {Lit(1, false), Lit(1, true)}));
}

TEST(ProofTest, SharedClausesFromSplitSolversAreRupAgainstOriginal) {
  // The GridSAT sharing-soundness witness: run a solver, split it twice,
  // and check every clause either branch exports against the ORIGINAL
  // formula extended by previously exported clauses.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  std::vector<cnf::Clause> database = f.clauses();
  std::size_t checked = 0;
  bool all_rup = true;
  const auto checker = [&](std::span<const cnf::Lit> lits, std::uint32_t) {
    const cnf::Clause c(lits.begin(), lits.end());
    // Append in causal order: a clause may resolve on earlier learned
    // clauses (including ones the donor learned before the split, which
    // the branch inherits), so the checker database must contain every
    // export that preceded it.
    if (checked < 60) {
      ++checked;
      if (!is_rup(database, f.num_vars(), c)) all_rup = false;
    }
    database.push_back(c);
  };
  CdclSolver a(f);
  a.set_share_callback(checker);
  // advance to a splittable state
  while (!a.can_split() && a.solve(200) == SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(a.can_split());
  const Subproblem branch = a.split();
  CdclSolver b(branch);
  b.set_share_callback(checker);
  (void)b.solve(400'000);
  (void)a.solve(400'000);
  ASSERT_GT(checked, 0u);
  EXPECT_TRUE(all_rup)
      << "a split solver exported a clause not implied-by-UP from the "
         "original formula";
}

TEST(ProofTest, ImportedClausesKeepExportsRupAgainstOriginal) {
  // The import-path mirror of the split-export test above: clauses flow
  // donor -> SharedClausePool -> importing branch solver, and everything
  // the importer subsequently exports must still be RUP against the
  // ORIGINAL formula extended by previously exported clauses — imported
  // clauses become antecedents of the importer's learned clauses, so an
  // unsound import would surface here.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  std::vector<cnf::Clause> database = f.clauses();
  std::size_t checked = 0;
  bool all_rup = true;
  const auto checker = [&](std::span<const cnf::Lit> lits, std::uint32_t) {
    const cnf::Clause c(lits.begin(), lits.end());
    if (checked < 60) {
      ++checked;
      if (!is_rup(database, f.num_vars(), c)) all_rup = false;
    }
    database.push_back(c);
  };

  SharedClausePool pool(2);
  CdclSolver donor(f);
  donor.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t lbd) {
    checker(c, lbd);
    cnf::ClauseBlock one;
    one.push_back(c);
    pool.publish(0, one);
  });
  while (!donor.can_split() && donor.solve(200) == SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(donor.can_split());
  const Subproblem branch = donor.split();
  (void)donor.solve(150'000);  // populate the pool with donor exports

  CdclSolver importer(branch);
  importer.set_share_callback(checker);
  auto cursor = pool.make_cursor();
  cnf::ClauseBlock incoming;
  ASSERT_GT(pool.collect(/*self=*/1, cursor, incoming), 0u);
  importer.import_clauses(incoming);
  (void)importer.solve(400'000);
  ASSERT_GT(checked, 0u);
  EXPECT_TRUE(all_rup)
      << "an importing split solver exported a clause not implied-by-UP "
         "from the original formula";
}

// --- ProofChecker (the watched-literal checker behind certify()) -------

TEST(ProofCheckerTest, AgreesWithReferenceCheckerOnRealProofs) {
  REQUIRE_PROOF_HOOKS();
  // certify() must accept exactly what the naive reference checker
  // accepts on solver-produced refutations, including ones with
  // deletions.
  SolverConfig config = proof_config();
  config.reduce_base = 50;
  config.reduce_growth = 1.05;
  for (const int n : {5, 6}) {
    const CnfFormula f = gen::pigeonhole_unsat(n);
    CdclSolver solver(f, config);
    ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
    const ProofCheckResult naive = check_unsat_proof(f, solver.proof());
    const ProofCheckResult fast = certify(f, solver.proof());
    EXPECT_TRUE(naive.valid) << naive.message;
    EXPECT_TRUE(fast.valid) << fast.message;
    EXPECT_EQ(naive.steps_checked, fast.steps_checked);
  }
}

TEST(ProofCheckerTest, RejectsWhatTheReferenceCheckerRejects) {
  CnfFormula f(3);
  f.add_dimacs_clause({1, 2});
  ProofLog bogus;
  bogus.add(cnf::Clause{Lit(3, false)});  // free variable: not RUP
  bogus.add_empty();
  const ProofCheckResult result = certify(f, bogus);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.failed_step, 0u);

  ProofLog truncated;  // never derives the empty clause
  truncated.add(cnf::Clause{Lit(1, false)});
  const ProofCheckResult t = certify(f, truncated);
  EXPECT_FALSE(t.valid);
  EXPECT_FALSE(t.message.empty());
}

TEST(ProofCheckerTest, RandomSweepAgreement) {
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = gen::random_ksat(16, 90, 3, seed * 523 + 7);
    CdclSolver solver(f, proof_config());
    if (solver.solve() != SolveStatus::kUnsat) continue;
    const ProofCheckResult naive = check_unsat_proof(f, solver.proof());
    const ProofCheckResult fast = certify(f, solver.proof());
    EXPECT_EQ(naive.valid, fast.valid) << "seed " << seed;
  }
}

// Semantic pins for the checker's corner cases. Each small proof is run
// through certify() and, where the two agree by design, through the
// reference checker too.

cnf::Clause clause_of(std::initializer_list<std::int64_t> dimacs) {
  cnf::Clause c;
  for (const std::int64_t d : dimacs) c.push_back(Lit::from_dimacs(d));
  return c;
}

void expect_both(const CnfFormula& f, const ProofLog& proof, bool valid,
                 std::size_t steps_checked, std::size_t failed_step = 0) {
  for (const ProofCheckResult& r :
       {certify(f, proof), check_unsat_proof(f, proof)}) {
    EXPECT_EQ(r.valid, valid) << r.message;
    EXPECT_EQ(r.steps_checked, steps_checked);
    EXPECT_EQ(r.failed_step, failed_step);
  }
}

TEST(ProofCheckerTest, DuplicateAddSurvivesOneDeletion) {
  // {1 2} is RUP via the pair {1 2 ±3}; once those are gone, only a live
  // copy of {1 2} makes {1} RUP (with {1 -2}).
  CnfFormula f(4);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({1, 2, -3});
  f.add_dimacs_clause({1, -2});
  f.add_dimacs_clause({-1, 4});
  f.add_dimacs_clause({-1, -4});
  const auto proof_deleting = [](int copies_deleted) {
    ProofLog proof;
    proof.add(clause_of({1, 2}));
    proof.add(clause_of({2, 1}));
    for (int i = 0; i < copies_deleted; ++i) proof.remove(clause_of({1, 2}));
    proof.remove(clause_of({1, 2, 3}));
    proof.remove(clause_of({-3, 2, 1}));
    proof.add(clause_of({1}));
    proof.add_empty();
    return proof;
  };
  expect_both(f, proof_deleting(1), true, 7);
  // Both copies gone: {1} is no longer RUP.
  expect_both(f, proof_deleting(2), false, 6, 6);
}

TEST(ProofCheckerTest, DeletingAnAbsentClauseIsHarmless) {
  CnfFormula f(2);
  f.add_dimacs_clause({1, 2});
  f.add_dimacs_clause({1, -2});
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({-1, -2});
  ProofLog proof;
  proof.remove(clause_of({1}));
  proof.remove(clause_of({1, 2, 3}));  // not in the database, nor in range
  proof.remove(clause_of({2, -1, 1}));
  proof.add(clause_of({1}));
  proof.add_empty();
  expect_both(f, proof, true, 5);
}

TEST(ProofCheckerTest, RepeatedLiteralClausePropagates) {
  // {1 1 2} watches literal 1 twice; once 1 is false it must still imply 2.
  CnfFormula f(4);
  f.add_dimacs_clause({1, 1, 2});
  f.add_dimacs_clause({-2, 3});
  f.add_dimacs_clause({-2, -3});
  f.add_dimacs_clause({-1, 4});
  f.add_dimacs_clause({-1, -4});
  ProofLog proof;
  proof.add(clause_of({1}));
  proof.add_empty();
  expect_both(f, proof, true, 2);
}

TEST(ProofCheckerTest, RootUnitSurvivesDeletionOfItsAntecedent) {
  // The documented superset behaviour: 2 is implied at the root by {1}
  // and {-1 2}; deleting {-1 2} keeps 2 on the checker's root trail, so
  // {2} stays RUP for certify() while the reference checker rejects it.
  CnfFormula f(4);
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({-2, 3, 4});
  f.add_dimacs_clause({-2, -3, 4});
  f.add_dimacs_clause({-2, 3, -4});
  f.add_dimacs_clause({-2, -3, -4});
  ProofLog proof;
  proof.remove(clause_of({-1, 2}));
  proof.add(clause_of({2}));
  proof.add(clause_of({3}));
  proof.add_empty();
  const ProofCheckResult fast = certify(f, proof);
  EXPECT_TRUE(fast.valid) << fast.message;
  EXPECT_EQ(fast.steps_checked, 4u);
  const ProofCheckResult naive = check_unsat_proof(f, proof);
  EXPECT_FALSE(naive.valid);
  EXPECT_EQ(naive.failed_step, 1u);
}

TEST(ProofCheckerTest, OutOfRangeLemmaRejectedAtItsIndex) {
  // {1 2 5} would be implied by {1 2}, but variable 5 is not in the
  // formula.
  CnfFormula f(2);
  f.add_dimacs_clause({1, 2});
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.add(clause_of({1, 2, 5}));
  proof.add_empty();
  expect_both(f, proof, false, 1, 1);
}

TEST(ProofCheckerTest, OutOfRangeTautologyRejectedAtItsIndex) {
  // A tautology is implied by anything, but one over a variable outside
  // the formula is malformed: accepting it would attach it out of range.
  CnfFormula f(2);
  f.add_dimacs_clause({1, 2});
  f.add_dimacs_clause({-1, 2});
  ProofLog proof;
  proof.add(clause_of({2}));
  proof.add(clause_of({3, -3}));
  proof.add(clause_of({-2}));
  expect_both(f, proof, false, 1, 1);
  EXPECT_FALSE(is_rup(f.clauses(), f.num_vars(), clause_of({1, 3, -3})));
}

TEST(ProofCheckerTest, FormulaWithEmptyClauseAcceptsAnyProof) {
  CnfFormula f(3);
  f.add_dimacs_clause({1, 2});
  f.add_clause({});
  ProofLog proof;
  proof.add(clause_of({3}));  // not implied by {1 2}, but nothing needs to be
  proof.add(clause_of({-3}));
  proof.add_empty();
  expect_both(f, proof, true, 3);
  ProofLog only_empty;
  only_empty.add_empty();
  expect_both(f, only_empty, true, 1);
}

// Seeded mutations of real proofs: certify() and the reference checker
// must agree exactly on adds-only proofs (root implications never lose
// their antecedent there), and certify() may only accept more on proofs
// with deletions.
enum class Mutation { kDrop, kNegate, kTruncate, kToggleDeletion };

ProofLog mutate(const ProofLog& proof, Mutation kind, util::Xoshiro256& rng) {
  std::vector<ProofStep> steps = proof.steps();
  const std::size_t at = rng.below(steps.size());
  switch (kind) {
    case Mutation::kDrop:
      steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case Mutation::kNegate:
      if (!steps[at].clause.empty()) {
        Lit& l = steps[at].clause[rng.below(steps[at].clause.size())];
        l = ~l;
      }
      break;
    case Mutation::kTruncate:
      steps.resize(at);
      break;
    case Mutation::kToggleDeletion:
      steps[at].deletion = !steps[at].deletion;
      break;
  }
  ProofLog out;
  for (ProofStep& s : steps) {
    if (s.deletion) out.remove(std::move(s.clause));
    else out.add(std::move(s.clause));
  }
  return out;
}

TEST(ProofCheckerTest, MutatedStitchedProofsAgreeWithReference) {
  REQUIRE_PROOF_HOOKS();
  util::Xoshiro256 rng(14);
  for (const CnfFormula& f :
       {gen::urquhart_like(10, 3), gen::pigeonhole_unsat(6)}) {
    ParallelOptions options;
    options.num_threads = 4;
    options.slice_work = 10'000;
    options.solver.log_proof = true;
    ParallelSolver solver(f, options);
    const ParallelResult result = solver.solve();
    ASSERT_EQ(result.status, SolveStatus::kUnsat);
    ASSERT_TRUE(result.proof != nullptr);
    ASSERT_TRUE(result.proof_stitched) << result.proof_error;
    for (int trial = 0; trial < 8; ++trial) {
      const auto kind = static_cast<Mutation>(trial % 3);
      const ProofLog mutated = mutate(*result.proof, kind, rng);
      const ProofCheckResult naive = check_unsat_proof(f, mutated);
      const ProofCheckResult fast = certify(f, mutated);
      EXPECT_EQ(naive.valid, fast.valid) << "trial " << trial;
      EXPECT_EQ(naive.steps_checked, fast.steps_checked) << "trial " << trial;
      EXPECT_EQ(naive.failed_step, fast.failed_step) << "trial " << trial;
    }
  }
}

TEST(ProofCheckerTest, MutatedProofsWithDeletionsAcceptASuperset) {
  REQUIRE_PROOF_HOOKS();
  SolverConfig config = proof_config();
  config.reduce_base = 50;
  config.reduce_growth = 1.05;
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f, config);
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 16; ++trial) {
    const auto kind = static_cast<Mutation>(trial % 4);
    const ProofLog mutated = mutate(solver.proof(), kind, rng);
    if (check_unsat_proof(f, mutated).valid) {
      EXPECT_TRUE(certify(f, mutated).valid) << "trial " << trial;
    }
  }
}

// --- Subsumption: dormant clauses and their revival --------------------
// certify() detaches every clause a newer lemma subsumes and re-attaches
// it when the subsumer is deleted. These cases pin the exactness of that
// rule on its edges; every verdict below is the one the checker gave
// before it detached anything.

// {1 2} is RUP via {1 2 ±3}; {2 3} then needs {1 2 3} once {-1} holds.
CnfFormula revival_formula() {
  CnfFormula f(7);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({1, 2, -3});
  f.add_dimacs_clause({-1, 5});
  f.add_dimacs_clause({-1, -5});
  f.add_dimacs_clause({-2, 3, 6});
  f.add_dimacs_clause({-2, 3, -6});
  f.add_dimacs_clause({-3, 7});
  f.add_dimacs_clause({-3, -7});
  return f;
}

TEST(ProofCheckerSubsumptionTest, RevivedClauseServesALaterStep) {
  // {1 2} makes {1 2 3} and {1 2 -3} dormant; deleting {1 2} revives
  // both, and {2 3} needs the revived {1 2 3}.
  const CnfFormula f = revival_formula();
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.remove(clause_of({2, 1}));
  proof.remove(clause_of({1, 2, -3}));  // found through the revived copy
  proof.add(clause_of({-1}));
  proof.add(clause_of({2, 3}));
  proof.add(clause_of({3}));
  proof.add_empty();
  expect_both(f, proof, true, 7);
  const ProofCheckResult r = certify(f, proof);
  EXPECT_EQ(r.clauses_revived, 2u);
  EXPECT_GE(r.clauses_subsumed, 2u);
}

TEST(ProofCheckerSubsumptionTest, DeletionFindsTheRevivedCopy) {
  // The fingerprint index follows a revived clause to its fresh copy: once
  // {1 2 -3} is deleted through it, {1 2} is no longer RUP.
  CnfFormula f(4);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({1, 2, -3});
  f.add_dimacs_clause({1, -2});
  f.add_dimacs_clause({-1, 4});
  f.add_dimacs_clause({-1, -4});
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.remove(clause_of({1, 2}));
  proof.remove(clause_of({-3, 1, 2}));
  proof.add(clause_of({1, 2}));
  proof.add_empty();
  expect_both(f, proof, false, 3, 3);
  EXPECT_EQ(certify(f, proof).clauses_revived, 2u);
}

TEST(ProofCheckerSubsumptionTest, RevivedClauseKeepsItsDependents) {
  // {1 2 3} detaches {1 2 3 ±4}, then sleeps under {1 2} itself. Its
  // revived copy inherits those dependents, so deleting the copy revives
  // them, and re-deriving {1 2 3} needs them.
  CnfFormula f(6);
  f.add_dimacs_clause({1, 2, 3, 4});
  f.add_dimacs_clause({1, 2, 3, -4});
  f.add_dimacs_clause({1, 2, -3});
  f.add_dimacs_clause({-1, 5});
  f.add_dimacs_clause({-1, -5});
  f.add_dimacs_clause({-2, 6});
  f.add_dimacs_clause({-2, -6});
  ProofLog proof;
  proof.add(clause_of({1, 2, 3}));
  proof.add(clause_of({1, 2}));
  proof.remove(clause_of({1, 2}));
  proof.remove(clause_of({1, 2, 3}));
  proof.add(clause_of({3, 2, 1}));
  proof.add(clause_of({1, 2}));
  proof.add(clause_of({-1}));
  proof.add(clause_of({-2}));
  proof.add_empty();
  expect_both(f, proof, true, 9);
  EXPECT_EQ(certify(f, proof).clauses_revived, 4u);
}

TEST(ProofCheckerSubsumptionTest, DeletedDormantClauseStaysDeleted) {
  // {1 2 3} is deleted while dormant; deleting its subsumer must not
  // bring it back, so {2 3} is rejected where it always was.
  const CnfFormula f = revival_formula();
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.remove(clause_of({3, 2, 1}));
  proof.remove(clause_of({1, 2}));
  proof.add(clause_of({-1}));
  proof.add(clause_of({2, 3}));
  proof.add_empty();
  expect_both(f, proof, false, 4, 4);
  EXPECT_EQ(certify(f, proof).clauses_revived, 1u);
}

TEST(ProofCheckerSubsumptionTest, RepeatedLiteralIsNotASecondLiteral) {
  // Literal codes of V2 and V34 share a signature bit, and the clauses on
  // 2 make 1 the rarer literal of {1 2}, so {1 1 34} is a candidate that
  // only the exact test turns away: counting the repeated 1 twice would
  // detach {1 1 34}, which {1 34} needs.
  CnfFormula f(36);
  f.add_dimacs_clause({1, 1, 34});
  f.add_dimacs_clause({1, 2, 4});
  f.add_dimacs_clause({1, 2, -4});
  f.add_dimacs_clause({2, 8, 9});
  f.add_dimacs_clause({2, 8, -9});
  f.add_dimacs_clause({2, -8, 9});
  f.add_dimacs_clause({-1, 5});
  f.add_dimacs_clause({-1, -5});
  f.add_dimacs_clause({-34, 6});
  f.add_dimacs_clause({-34, -6});
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.add(clause_of({1, 34}));
  proof.add(clause_of({-1}));
  proof.add_empty();
  expect_both(f, proof, true, 4);
  // {1 2} detaches {1 2 ±4}; {1 34} detaches {1 1 34}.
  EXPECT_EQ(certify(f, proof).clauses_subsumed, 3u);
}

TEST(ProofCheckerSubsumptionTest, RootUnitSubsumerRevivesItsClauses) {
  // The unit {1} sits on the root trail, not in a watch list, yet it
  // detaches {1 2} and {1 -2}. Deleting it revives both, satisfied by the
  // root literal that outlives its antecedent (the superset behaviour).
  CnfFormula f(5);
  f.add_dimacs_clause({1, 2});
  f.add_dimacs_clause({1, -2});
  f.add_dimacs_clause({-1, 3, 4});
  f.add_dimacs_clause({-1, 3, -4});
  f.add_dimacs_clause({-1, -3, 5});
  f.add_dimacs_clause({-1, -3, -5});
  ProofLog proof;
  proof.add(clause_of({1}));
  proof.remove(clause_of({1}));
  proof.add(clause_of({3}));
  proof.add_empty();
  const ProofCheckResult fast = certify(f, proof);
  EXPECT_TRUE(fast.valid) << fast.message;
  EXPECT_EQ(fast.steps_checked, 4u);
  EXPECT_EQ(fast.clauses_subsumed, 2u);
  EXPECT_EQ(fast.clauses_revived, 2u);
  const ProofCheckResult naive = check_unsat_proof(f, proof);
  EXPECT_FALSE(naive.valid);
  EXPECT_EQ(naive.failed_step, 2u);
}

TEST(ProofCheckerSubsumptionTest, DuplicateLemmaRevivedWhenItsTwinIsDeleted) {
  // The second {1 2} detaches the first; deleting {1 2} removes the
  // newer copy and revives the older, which {1} then needs.
  CnfFormula f(4);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({1, 2, -3});
  f.add_dimacs_clause({1, -2});
  f.add_dimacs_clause({-1, 4});
  f.add_dimacs_clause({-1, -4});
  ProofLog proof;
  proof.add(clause_of({1, 2}));
  proof.add(clause_of({2, 1}));
  proof.remove(clause_of({1, 2}));
  proof.remove(clause_of({1, 2, 3}));
  proof.remove(clause_of({-3, 2, 1}));
  proof.add(clause_of({1}));
  proof.add_empty();
  expect_both(f, proof, true, 7);
  const ProofCheckResult r = certify(f, proof);
  EXPECT_EQ(r.clauses_subsumed, 3u);
  EXPECT_EQ(r.clauses_revived, 1u);
}

// Golden verdicts on single-solver proofs that carry deletions: a small
// reduce_base makes reduce_db fire, and on-the-fly strengthening logs a
// clause and deletes the one it strengthened. On such proofs certify()
// accepts a superset of the reference checker, so the expected values
// are the ones certify() gave before it detached subsumed clauses.
struct GoldenProof {
  const char* name;
  CnfFormula (*make)();
};

void PrintTo(const GoldenProof& g, std::ostream* os) { *os << g.name; }

const GoldenProof kGoldenProofs[] = {
    {"pigeonhole_5", [] { return gen::pigeonhole_unsat(5); }},
    {"pigeonhole_6", [] { return gen::pigeonhole_unsat(6); }},
    {"urquhart_6", [] { return gen::urquhart_like(6, 1); }},
    {"urquhart_8", [] { return gen::urquhart_like(8, 2); }},
    {"random3sat_40", [] { return gen::random_ksat(40, 220, 3, 11); }},
    {"random3sat_50", [] { return gen::random_ksat(50, 270, 3, 5); }},
    {"chessboard_4", [] { return gen::mutilated_chessboard(4); }},
    {"adder_miter_6", [] { return gen::adder_miter(6, false, 3); }},
};

struct GoldenRow {
  const char* proof;
  int trial;  ///< -1: the proof as logged; k >= 0: seeded mutation k
  bool valid;
  std::size_t steps_checked;
  std::size_t failed_step;
};

const GoldenRow kGoldenRows[] = {
    {"pigeonhole_5", -1, true, 412, 0},
    {"pigeonhole_5", 0, false, 19, 19},
    {"pigeonhole_5", 1, true, 412, 0},
    {"pigeonhole_5", 2, false, 274, 0},
    {"pigeonhole_5", 3, false, 143, 143},
    {"pigeonhole_5", 4, false, 314, 314},
    {"pigeonhole_5", 5, true, 412, 0},
    {"pigeonhole_5", 6, false, 243, 0},
    {"pigeonhole_5", 7, true, 412, 0},
    {"pigeonhole_6", -1, true, 2203, 0},
    {"pigeonhole_6", 0, true, 2202, 0},
    {"pigeonhole_6", 1, true, 2203, 0},
    {"pigeonhole_6", 2, false, 1470, 0},
    {"pigeonhole_6", 3, true, 2203, 0},
    {"pigeonhole_6", 4, true, 2202, 0},
    {"pigeonhole_6", 5, false, 995, 995},
    {"pigeonhole_6", 6, false, 1304, 0},
    {"pigeonhole_6", 7, true, 2203, 0},
    {"urquhart_6", -1, true, 290, 0},
    {"urquhart_6", 0, false, 12, 12},
    {"urquhart_6", 1, false, 6, 6},
    {"urquhart_6", 2, false, 193, 0},
    {"urquhart_6", 3, false, 101, 101},
    {"urquhart_6", 4, false, 220, 220},
    {"urquhart_6", 5, true, 290, 0},
    {"urquhart_6", 6, false, 171, 0},
    {"urquhart_6", 7, true, 290, 0},
    {"urquhart_8", -1, true, 1070, 0},
    {"urquhart_8", 0, false, 45, 45},
    {"urquhart_8", 1, false, 24, 24},
    {"urquhart_8", 2, false, 714, 0},
    {"urquhart_8", 3, true, 1070, 0},
    {"urquhart_8", 4, false, 814, 814},
    {"urquhart_8", 5, true, 1070, 0},
    {"urquhart_8", 6, false, 633, 0},
    {"urquhart_8", 7, false, 537, 537},
    {"random3sat_40", -1, true, 118, 0},
    {"random3sat_40", 0, true, 117, 0},
    {"random3sat_40", 1, false, 2, 2},
    {"random3sat_40", 2, false, 78, 0},
    {"random3sat_40", 3, true, 118, 0},
    {"random3sat_40", 4, true, 117, 0},
    {"random3sat_40", 5, true, 118, 0},
    {"random3sat_40", 6, false, 69, 0},
    {"random3sat_40", 7, true, 118, 0},
    {"random3sat_50", -1, true, 102, 0},
    {"random3sat_50", 0, false, 5, 5},
    {"random3sat_50", 1, false, 4, 4},
    {"random3sat_50", 2, false, 68, 0},
    {"random3sat_50", 3, true, 102, 0},
    {"random3sat_50", 4, true, 101, 0},
    {"random3sat_50", 5, false, 47, 47},
    {"random3sat_50", 6, false, 60, 0},
    {"random3sat_50", 7, true, 102, 0},
    {"chessboard_4", -1, true, 2425, 0},
    {"chessboard_4", 0, false, 105, 105},
    {"chessboard_4", 1, false, 54, 54},
    {"chessboard_4", 2, false, 1618, 0},
    {"chessboard_4", 3, true, 2425, 0},
    {"chessboard_4", 4, true, 2424, 0},
    {"chessboard_4", 5, true, 2425, 0},
    {"chessboard_4", 6, false, 1435, 0},
    {"chessboard_4", 7, false, 1221, 1221},
    {"adder_miter_6", -1, true, 1186, 0},
    {"adder_miter_6", 0, true, 1185, 0},
    {"adder_miter_6", 1, true, 1186, 0},
    {"adder_miter_6", 2, false, 791, 0},
    {"adder_miter_6", 3, false, 441, 441},
    {"adder_miter_6", 4, true, 1185, 0},
    {"adder_miter_6", 5, true, 1186, 0},
    {"adder_miter_6", 6, false, 702, 0},
    {"adder_miter_6", 7, false, 620, 620},
};

class ProofCheckerGoldenTest : public testing::TestWithParam<GoldenProof> {};

TEST_P(ProofCheckerGoldenTest, SameVerdictsAsRecorded) {
  REQUIRE_PROOF_HOOKS();
  const GoldenProof& golden = GetParam();
  const CnfFormula f = golden.make();
  SolverConfig config = proof_config();
  config.reduce_base = 30;
  config.reduce_growth = 1.05;
  CdclSolver solver(f, config);
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  std::size_t deletions = 0;
  for (const ProofStep& step : solver.proof().steps()) {
    deletions += step.deletion ? 1 : 0;
  }
  EXPECT_GT(deletions, 0u);
  std::size_t rows = 0;
  std::size_t revived = 0;
  for (const GoldenRow& row : kGoldenRows) {
    if (std::string(row.proof) != golden.name) continue;
    ++rows;
    ProofLog proof = solver.proof();
    if (row.trial >= 0) {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(100 + row.trial));
      proof = mutate(solver.proof(), static_cast<Mutation>(row.trial % 4),
                     rng);
    }
    const ProofCheckResult r = certify(f, proof);
    revived += r.clauses_revived;
    EXPECT_TRUE(r.valid == row.valid &&
                r.steps_checked == row.steps_checked &&
                r.failed_step == row.failed_step)
        << "recorded {\"" << row.proof << "\", " << row.trial << ", "
        << row.valid << ", " << row.steps_checked << ", " << row.failed_step
        << "}, got {\"" << golden.name << "\", " << row.trial << ", "
        << (r.valid ? "true" : "false") << ", " << r.steps_checked << ", "
        << r.failed_step << "},";
  }
  EXPECT_GE(rows, 3u);
  EXPECT_GT(revived, 0u) << "no deletion revived a dormant clause";
}

INSTANTIATE_TEST_SUITE_P(
    Proofs, ProofCheckerGoldenTest, testing::ValuesIn(kGoldenProofs),
    [](const testing::TestParamInfo<GoldenProof>& info) {
      return std::string(info.param.name);
    });

// --- DistributedProofBuilder: split-tree stitching ---------------------

TEST(DistributedProofBuilderTest, StitchesSiblingLeaves) {
  // Leaves ¬(d1) and ¬(¬d1) resolve to the empty clause.
  const Lit d1(1, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1});
  builder.add_leaf({~d1});
  EXPECT_EQ(builder.leaf_count(), 2u);
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, StitchesADeeperTree) {
  // Four leaves covering the full (d1, d2) split tree, in a scrambled
  // arrival order, plus an ancestor re-solve that subsumption removes.
  const Lit d1(1, false);
  const Lit d2(2, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1, d2});
  builder.add_leaf({~d1});
  builder.add_leaf({d1, ~d2});
  builder.add_leaf({d1, d2});  // a recovered subproblem refuted twice
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, RootLeafAloneSuffices) {
  DistributedProofBuilder builder;
  builder.add_leaf({});  // the root itself was refuted
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, StitchesOverlappingRecoveredTrees) {
  // Regression: flushed out by the certification oracle on pigeonhole-8
  // with two client kills and heavy-checkpoint recovery. A recovered
  // client re-splits its subtree under a fresh decision order, so the
  // surviving leaves cover the cube as two OVERLAPPING split trees with
  // no sibling for the deepest set, where the greedy deepest-first rule
  // used to give up (even though {~V2 V3}/{~V2 ~V3} ARE siblings, and
  // the verdict itself was sound). The stitch must fall back to refuting
  // the residual leaf clauses and splicing that derivation into the log.
  REQUIRE_PROOF_HOOKS();  // the fallback needs a proof-logging refuter
  const Lit v1(1, false);
  const Lit v2(2, false);
  const Lit v3(3, false);
  DistributedProofBuilder builder;
  // The exact residual cover observed in the failing campaign:
  //   {V1 V2} {~V1 V2 V3} {V2 ~V3} {~V2 V3} {~V2 ~V3}
  builder.add_leaf({v1, v2});
  builder.add_leaf({~v1, v2, v3});
  builder.add_leaf({v2, ~v3});
  builder.add_leaf({~v2, v3});
  builder.add_leaf({~v2, ~v3});
  ASSERT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
  // The spliced derivation must be RUP against the leaf clauses alone:
  // replaying the log against a formula holding exactly those clauses
  // makes the leaf adds trivially RUP and checks everything after them.
  CnfFormula leaves(3);
  leaves.add_clause({~v1, ~v2});
  leaves.add_clause({v1, ~v2, ~v3});
  leaves.add_clause({~v2, v3});
  leaves.add_clause({v2, ~v3});
  leaves.add_clause({v2, v3});
  const ProofCheckResult check = certify(leaves, builder.log());
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
}

TEST(DistributedProofBuilderTest, MissingSiblingFailsTheStitch) {
  // Only one half of the split reported: the stitch must refuse — this
  // is exactly how the oracle catches a dropped subproblem or a stale
  // checkpoint recovery — and name the guiding path it never saw
  // refuted.
  const Lit d1(1, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1});
  EXPECT_FALSE(builder.stitch());
  EXPECT_NE(builder.stitch_error().find("no sibling cover"),
            std::string::npos)
      << builder.stitch_error();
  EXPECT_NE(builder.stitch_error().find("~V1"), std::string::npos)
      << builder.stitch_error();
}

TEST(DistributedProofBuilderTest, NoLeavesFailsTheStitch) {
  DistributedProofBuilder builder;
  EXPECT_FALSE(builder.stitch());
  EXPECT_FALSE(builder.stitch_error().empty());
}

// --- End-to-end: the thread-parallel solver's stitched refutation ------

TEST(DistributedProofTest, ParallelRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(7);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 20'000;  // force splits and sharing
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const ProofCheckResult check = certify(f, *result.proof);
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
  EXPECT_GT(check.steps_checked, 0u);
}

TEST(DistributedProofTest, ParallelXorChainRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::urquhart_like(10, 3);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 10'000;
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const ProofCheckResult check = certify(f, *result.proof);
  EXPECT_TRUE(check.valid) << check.message;
  // A stitched log is adds-only and mostly subsumed by its own later
  // lemmas; the checker must keep detaching them.
  EXPECT_GT(check.clauses_subsumed, 0u);
  EXPECT_EQ(check.clauses_revived, 0u);
}

TEST(DistributedProofTest, NoProofWithoutLogProof) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  ParallelOptions options;
  options.num_threads = 2;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_EQ(result.proof, nullptr);
}

TEST(DistributedProofTest, StitchedProofExportsWellFormedDrat) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(6);
  ParallelOptions options;
  options.num_threads = 2;
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  std::ostringstream out;
  result.proof->write_drat(out);
  const std::string drat = out.str();
  ASSERT_FALSE(drat.empty());
  // Every line is "[d] lit ... 0"; the last non-deletion line is "0".
  std::istringstream in(drat);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '0') << line;
    if (line.rfind("d ", 0) != 0) last = line;
  }
  EXPECT_EQ(last, "0") << "DRAT must end at the empty clause";
}

TEST(ProofTest, DratRendering) {
  ProofLog log;
  log.add(cnf::Clause{Lit(1, false), Lit(2, true)});
  log.remove(cnf::Clause{Lit(3, false)});
  log.add_empty();
  std::ostringstream out;
  log.write_drat(out);
  EXPECT_EQ(out.str(), "1 -2 0\nd 3 0\n0\n");
}

TEST(ProofTest, SatRunsLeaveNoEmptyClause) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_FALSE(solver.proof().ends_with_empty_clause());
}

}  // namespace
}  // namespace gridsat::solver
