// Clausal (DRUP-style) proof logging and checking.
//
// The solver can record every learned clause it adds and every clause it
// deletes. For an UNSAT run the record is a machine-checkable refutation:
// each added clause must be RUP — unit-propagating its negation over the
// original formula plus the previously added clauses yields a conflict —
// and the final entry is the empty clause.
//
// This postdates the paper (DRUP checking became standard a decade
// later), but it earns its place here twice over: it certifies the
// UNSAT verdicts of the reproduction, and it gives a direct mechanical
// witness for GridSAT's sharing soundness — clauses learned in a *split*
// solver (under guiding-path assumptions) check as RUP against the
// ORIGINAL formula, because tainted level-0 literals stay in the clause
// (see cdcl.hpp).
//
// Distributed runs (ParallelSolver, Campaign) extend this to a single
// global refutation (DESIGN.md §4d):
//   * every solver streams its clause additions, in arrival order, into
//     one shared adds-only log (a DistributedProofBuilder); deletions are
//     dropped — RUP is monotone under database growth, and a deletion
//     replayed from one worker would remove the single shared copy other
//     workers still depend on;
//   * a subproblem refuted under guiding-path assumptions contributes the
//     *negated-assumption* clause as its leaf;
//   * stitch() resolves sibling leaves bottom-up (¬(P∧d) and ¬(P∧¬d)
//     yield ¬P, which is RUP given both) until the empty clause falls
//     out. When checkpoint recovery re-splits a subtree under a fresh
//     decision order the leaves form OVERLAPPING trees with no exact
//     siblings; stitch() then refutes the residual leaf clauses with a
//     proof-logging CdclSolver and splices that derivation in (each step
//     is RUP against the leaf clauses preceding it). A genuinely
//     incomplete leaf cover — the signature of a dropped subproblem or a
//     stale checkpoint — makes stitch() fail and name the never-refuted
//     guiding path, which is exactly what the certification fuzz oracle
//     looks for.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cnf/formula.hpp"

namespace gridsat::solver {

/// Compile-time kill switch for the proof hooks on the solver hot path
/// (CMake option GRIDSAT_PROOF, default ON). Mirrors obs::kTraceCompiledIn:
/// with the option OFF every `log_proof` check constant-folds to false, so
/// the overhead guard can compare the runtime-disabled default against a
/// build with no hooks at all.
#if defined(GRIDSAT_PROOF_OFF)
inline constexpr bool kProofCompiledIn = false;
#else
inline constexpr bool kProofCompiledIn = true;
#endif

struct ProofStep {
  bool deletion = false;
  cnf::Clause clause;  ///< empty clause = final refutation step

  friend bool operator==(const ProofStep&, const ProofStep&) = default;
};

/// Append-only proof record. The solver writes it; the checker replays it.
class ProofLog {
 public:
  void add(cnf::Clause clause) {
    steps_.push_back(ProofStep{false, std::move(clause)});
  }
  void remove(cnf::Clause clause) {
    steps_.push_back(ProofStep{true, std::move(clause)});
  }
  void add_empty() { steps_.push_back(ProofStep{false, {}}); }

  [[nodiscard]] const std::vector<ProofStep>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool ends_with_empty_clause() const noexcept {
    return !steps_.empty() && !steps_.back().deletion &&
           steps_.back().clause.empty();
  }

  /// Standard DRAT text rendering ("d" lines for deletions, "0"
  /// terminators), consumable by external checkers.
  void write_drat(std::ostream& out) const;

 private:
  std::vector<ProofStep> steps_;
};

struct ProofCheckResult {
  bool valid = false;
  std::size_t steps_checked = 0;
  std::size_t failed_step = 0;  ///< index of the first bad step, if any
  std::string message;          ///< empty when valid
  /// ProofChecker only: clauses an accepted lemma made dormant, and
  /// dormant clauses re-attached when their subsumer was deleted.
  std::size_t clauses_subsumed = 0;
  std::size_t clauses_revived = 0;
};

/// Replay a refutation against `formula`: every addition must be RUP with
/// respect to the current clause database; deletions shrink it; the proof
/// must end with (or reach) the empty clause. O(steps x database) — a
/// reference checker, not a competition one. Use certify() for anything
/// bigger than a unit test.
ProofCheckResult check_unsat_proof(const cnf::CnfFormula& formula,
                                   const ProofLog& proof);

/// Check a single clause for the RUP property against a clause set
/// (exposed for the sharing-soundness property tests).
bool is_rup(const std::vector<cnf::Clause>& database, cnf::Var num_vars,
            const cnf::Clause& clause);

/// Incremental watched-literal RUP checker. Same verdicts as
/// check_unsat_proof on adds-only proofs, but it never rescans the
/// database: the root trail persists across steps, assumption literals
/// are pushed and rolled back per check, and deletions detach lazily. A
/// step costs one visit per watch entry of every literal its propagation
/// falsifies, so the layout is built for the visit: clause literals sit
/// in one flat arena (a header, then the literal codes), each watch entry
/// carries a blocker literal that is refreshed whenever the first watched
/// literal is seen true, and truth values are read from a table indexed
/// by literal code. Most visits find the blocker true and never touch the
/// arena.
///
/// Each accepted lemma L makes every attached clause C ⊇ L dormant: the
/// watch scan skips and drops C like a deleted clause, and C is chained
/// to L. This is exact — while L is live, C never propagates or conflicts
/// where L does not — and on distributed logs, where on-the-fly
/// strengthening logs a stronger clause shortly after the weaker one and
/// the weaker one's deletion is never logged, it detaches nearly the
/// whole database. Deleting a clause re-attaches its still-dormant
/// dependents as fresh arena copies.
///
/// One difference from the reference checker is deliberate: root-level
/// implications survive the deletion of their antecedent clause (sound —
/// the implication was already derived), so this checker accepts a
/// superset of what the reference accepts.
class ProofChecker {
 public:
  explicit ProofChecker(const cnf::CnfFormula& formula);

  /// Replay a whole proof from the post-construction state. A fresh
  /// checker is required per proof (state is consumed).
  ProofCheckResult check(const ProofLog& proof);

 private:
  /// Arena words per clause ahead of its literals: size, state, the head
  /// of its dependents chain, the next link in its subsumer's chain, and
  /// a 64-bit literal signature in two words.
  static constexpr std::uint32_t kHeaderWords = 6;
  static constexpr std::uint32_t kSize = 0, kState = 1, kDeps = 2, kNext = 3,
                                 kSig = 4;
  /// Clause states; the watch scan keeps only kLive clauses.
  static constexpr std::uint32_t kLive = 0, kDead = 1, kDormant = 2;
  static constexpr std::uint32_t kNoClause = UINT32_MAX;  ///< chain end

  struct Watch {
    std::uint32_t cref;  ///< arena offset of the clause
    cnf::Lit blocker;    ///< another literal; the clause is skipped if true
  };

  [[nodiscard]] cnf::LBool value(cnf::Lit l) const noexcept {
    return value_[l.code()];
  }
  [[nodiscard]] cnf::Lit* lits(std::uint32_t cref) noexcept {
    return reinterpret_cast<cnf::Lit*>(arena_.data() + cref + kHeaderWords);
  }
  [[nodiscard]] std::uint64_t signature(std::uint32_t cref) const noexcept {
    return arena_[cref + kSig] |
           std::uint64_t{arena_[cref + kSig + 1]} << 32;
  }
  /// True when the clause at `cref` has exactly the literals of `sorted`.
  [[nodiscard]] bool holds(std::uint32_t cref, const cnf::Clause& sorted);
  void enqueue(cnf::Lit l);
  bool propagate();  // true iff a conflict was reached
  void rollback_to_root();
  /// Append a clause to the arena (live, no dependents) and return its
  /// offset; attach() then watches it.
  std::uint32_t store(const cnf::Clause& clause);
  void attach(std::uint32_t cref);
  std::uint32_t add_clause(const cnf::Clause& clause);
  void delete_clause(const cnf::Clause& clause);
  /// Make every live clause that contains the lemma at `cref` dormant.
  void subsume(std::uint32_t cref, const cnf::Clause& lemma);
  /// Exact subset test: true when the clause at `cref` contains each of
  /// the `distinct` literals of `lemma`, which lemma_mark_ marks.
  bool contains(std::uint32_t cref, const cnf::Clause& lemma,
                std::uint32_t distinct);
  /// Re-attach the still-dormant dependents of a deleted clause.
  void revive_dependents(std::uint32_t cref);
  bool rup(const cnf::Clause& clause);

  cnf::Var num_vars_ = 0;
  std::vector<std::uint32_t> arena_;
  std::vector<std::vector<Watch>> watches_;  // indexed by lit code
  std::vector<cnf::LBool> value_;            // indexed by lit code
  std::vector<cnf::Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t root_size_ = 0;    // trail prefix that persists across checks
  bool root_falsified_ = false;  // formula already refuted at level 0
  // Order-insensitive clause fingerprint -> arena offsets, for deletions.
  std::unordered_multimap<std::uint64_t, std::uint32_t> index_;
  // Watched clauses by literal code, for subsumption candidates; entries
  // of clauses no longer live drop lazily when the list is scanned.
  std::vector<std::vector<std::uint32_t>> occurs_;
  // lemma_mark_[code] == mark_stamp_ iff the code is in the current lemma.
  std::vector<std::uint32_t> lemma_mark_;
  std::uint32_t mark_stamp_ = 0;
  std::size_t subsumed_ = 0;
  std::size_t revived_ = 0;
};

/// One-call certification with the watched-literal checker.
ProofCheckResult certify(const cnf::CnfFormula& formula,
                         const ProofLog& proof);

/// Where a solver streams its proof additions when it is one voice in a
/// distributed refutation (implemented by DistributedProofBuilder).
class ProofSink {
 public:
  virtual ~ProofSink() = default;
  virtual void proof_add(cnf::Clause clause) = 0;
};

/// Accumulates the global arrival-ordered adds-only proof of a
/// distributed UNSAT run, then stitches the split tree shut.
///
/// Usage: hand the builder (as a ProofSink) to every solver; call
/// add_leaf(assumptions) each time a subproblem is refuted; after the
/// run's verdict, call stitch() and check the log with certify().
/// proof_add/add_leaf are mutex-serialized so ParallelSolver workers can
/// share one builder; the Campaign's virtual-time loop is single-threaded
/// and pays one uncontended lock per event.
class DistributedProofBuilder final : public ProofSink {
 public:
  /// Arrival-ordered clause addition (learned or imported). Deletions are
  /// intentionally not representable here — see the header comment.
  void proof_add(cnf::Clause clause) override;

  /// Record that a subproblem with this guiding-path assumption set was
  /// refuted, and append its negated-assumption clause to the log. An
  /// empty assumption set is the root: its leaf is the empty clause.
  void add_leaf(const std::vector<cnf::Lit>& assumptions);

  [[nodiscard]] std::size_t leaf_count() const;

  /// Resolve sibling leaves bottom-up and append the resolvents (and the
  /// final empty clause) to the log; leaves that form overlapping split
  /// trees (checkpoint recovery re-splits under a fresh decision order)
  /// are closed by refuting the residual leaf clauses with a
  /// proof-logging solver and splicing that derivation in. Returns false
  /// — leaving the log without an empty clause — when the recorded leaves
  /// do not cover the split tree; stitch_error() then names the
  /// never-refuted guiding path. Duplicate and ancestor-subsumed leaves
  /// are pruned. Idempotent: a second call returns the first call's
  /// verdict.
  bool stitch();

  [[nodiscard]] const std::string& stitch_error() const noexcept {
    return stitch_error_;
  }
  [[nodiscard]] const ProofLog& log() const noexcept { return log_; }
  [[nodiscard]] ProofLog take_log() { return std::move(log_); }

 private:
  // Assumption sets as sorted literal-code vectors.
  using LitSet = std::vector<std::uint32_t>;

  /// Subsumption-reducing insert: skipped if a subset is present; erases
  /// supersets. Returns true if the collection now contains a set that is
  /// a subset of (or equal to) `s`.
  void insert_reduced(LitSet s);

  mutable std::mutex mu_;
  ProofLog log_;
  std::set<LitSet> sets_;
  std::size_t leaves_ = 0;
  bool stitched_ = false;
  bool stitch_ok_ = false;
  std::string stitch_error_;
};

}  // namespace gridsat::solver
