// CDCL solver — a from-scratch re-implementation of the Chaff algorithm
// the paper uses as its core (§2):
//
//   * two-watched-literal BCP (§2.4),
//   * VSIDS per-literal decision heuristic with periodic decay (§2.4),
//   * FirstUIP conflict analysis and non-chronological backjumping (§2.2),
//   * learned-clause database with activity-based reduction,
//   * level-0 pruning of satisfied clauses (§3.1 — the paper's own patch
//     to sequential zChaff, applied here to both comparator and clients),
//   * budgeted, resumable execution (the Grid client runs the solver in
//     slices between message-handling turns),
//   * splitting (§3.1 / Fig. 2) and sound global clause sharing (§3.2).
//
// Soundness of sharing under splits: a split plants an *assumption*
// literal at decision level 0, so naively-learned clauses would be valid
// only relative to that guiding path. We track a taint bit per level-0
// variable (assumption, or implied through a tainted literal). Conflict
// analysis normally drops level-0 literals; tainted ones are instead kept
// in the learned clause. Every learned clause is therefore implied by the
// *original* formula and can be shared with any client, exactly the
// "shares clauses globally as soon as they are generated" behaviour of
// §5, without unsound pruning.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnf/clause_block.hpp"
#include "cnf/formula.hpp"
#include "obs/trace.hpp"
#include "solver/clause_arena.hpp"
#include "solver/proof.hpp"
#include "solver/subproblem.hpp"
#include "util/rng.hpp"

namespace gridsat::solver {

enum class SolveStatus : std::uint8_t {
  kSat,      ///< model found (retrieve with model())
  kUnsat,    ///< subproblem refuted
  kUnknown,  ///< work budget exhausted; call solve() again to resume
  kMemOut,   ///< clause database exceeded the configured memory limit
};

const char* to_string(SolveStatus s) noexcept;

/// Restart cadence shape (all schedules count conflicts and share
/// SolverConfig::restart_base as their unit).
enum class RestartPolicy : std::uint8_t {
  kLuby,       ///< base * luby(n): 1,1,2,1,1,2,4,... (the default)
  kGeometric,  ///< base * 1.5^n: slow exponential back-off
  kLinear,     ///< base * (n + 1): arithmetic back-off
};

/// Polarity of a fresh decision variable when no phase has been saved
/// (or phase saving is off).
enum class PolarityInit : std::uint8_t {
  kActivity,  ///< the winning VSIDS literal's own sign (the default)
  kFalse,     ///< always assign false
  kTrue,      ///< always assign true
  kRandom,    ///< coin flip per decision (seeded; deterministic)
};

struct SolverConfig {
  /// VSIDS: activity added per bump; decays by dividing the increment.
  double var_activity_decay = 0.95;
  double clause_activity_decay = 0.999;
  /// Conflicts between VSIDS decays. Chaff divides all counters by a
  /// constant periodically; dividing the *increment* by var_activity_decay
  /// every decay_interval conflicts is the constant-time equivalent.
  /// interval 1 + decay 0.95 is the standard smooth schedule; interval
  /// 256 + decay 0.5 mimics zChaff's coarse halving.
  std::uint32_t decay_interval = 1;

  /// Restart interval unit (conflicts); 0 disables restarting.
  std::uint32_t restart_base = 512;

  /// Shape of the restart schedule (portfolio diversification axis; see
  /// solver/diversify.hpp). Luby reproduces the historical behaviour.
  RestartPolicy restart_policy = RestartPolicy::kLuby;

  /// Learned-DB reduction trigger: start threshold and geometric growth.
  std::size_t reduce_base = 8000;
  double reduce_growth = 1.15;

  /// Hard cap on live clause-database bytes; exceeded (and unreclaimable
  /// by reduction) => kMemOut. The sequential comparator gets the host's
  /// capacity; GridSAT clients split before they hit it.
  std::size_t memory_limit_bytes = std::numeric_limits<std::size_t>::max();

  /// When false, hitting the memory limit is immediately fatal (kMemOut)
  /// instead of triggering emergency DB reductions. 2003-era zChaff could
  /// not free antecedent clauses (paper §4.2): "the solver cannot make
  /// any further progress" once the DB overflows — the Table-1 MEM_OUT
  /// comparator semantics. GridSAT clients keep the squeeze (they ask for
  /// a split at 60% and the squeeze only bridges the grant latency).
  bool allow_memory_squeeze = true;

  /// Memory-pressure squeezes tolerated before giving up (kMemOut): a
  /// solver squeezing this often is destroying clauses as fast as it
  /// learns them. 0 = unlimited (GridSAT clients: stay alive, degraded,
  /// until the split goes through).
  std::uint32_t max_memory_squeezes = 64;

  /// Probability of a random decision (diversification); 0 = pure VSIDS.
  double random_decision_freq = 0.0;
  std::uint64_t seed = 1;

  /// Phase of a fresh variable when VSIDS has no signal (Chaff's per-
  /// literal counters give a natural phase; saved phases refine it).
  bool phase_saving = true;

  /// Starting polarity when neither a saved phase nor a decision hook
  /// decides (portfolio diversification axis). kActivity keeps the
  /// per-literal VSIDS sign, the historical behaviour.
  PolarityInit polarity_init = PolarityInit::kActivity;

  /// Accumulate wall time spent inside propagate() into
  /// SolverStats::propagation_ns. Off by default: two clock reads per
  /// propagate() call are cheap but not free, and only the benches need
  /// the breakdown.
  bool measure_propagation = false;

  /// Record a DRUP-style clausal proof (solver/proof.hpp). Adds every
  /// learned (and imported) clause and every deletion to the log. An
  /// UNSAT run ends the log with the refutation terminal: the empty
  /// clause for a full-formula solver, or the negated-guiding-path
  /// clause ¬(assumptions) for a solver running under split assumptions
  /// (the leaf a DistributedProofBuilder stitches on). Compiled out
  /// entirely when kProofCompiledIn is false (CMake GRIDSAT_PROOF=OFF).
  bool log_proof = false;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;   ///< implied assignments
  std::uint64_t binary_propagations = 0;  ///< subset implied via the binary store
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  /// Literals removed from learned clauses by recursive minimization
  /// before attach; not counted in learned_literals.
  std::uint64_t minimized_literals = 0;
  /// Literals removed by binary-resolution strengthening of the learned
  /// clause (on top of minimization).
  std::uint64_t bin_strengthened_literals = 0;
  /// Existing clauses strengthened in place by on-the-fly subsumption
  /// during conflict analysis (one literal dropped each).
  std::uint64_t otf_strengthened = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t db_reductions = 0;
  /// Locality-ordered arena rewrites performed by reduce_db().
  std::uint64_t arena_compactions = 0;
  std::uint64_t max_decision_level = 0;
  std::uint64_t imported_clauses = 0;
  std::uint64_t imported_useless = 0;  ///< arrived satisfied/duplicate
  /// Imported clauses later walked by conflict analysis at least once —
  /// the "did sharing actually help" numerator over imported_clauses.
  std::uint64_t imported_used = 0;
  std::uint64_t exported_clauses = 0;
  std::uint64_t splits = 0;
  /// Abstract cost: watcher visits + analysis steps; the discrete-event
  /// simulator converts work units to virtual seconds via host speed.
  std::uint64_t work = 0;
  /// Wall time spent inside propagate(), accumulated only while
  /// SolverConfig::measure_propagation is on (used by bench_solver_micro
  /// to report BCP throughput undiluted by analysis/heap work).
  std::uint64_t propagation_ns = 0;
  std::size_t peak_db_bytes = 0;

  friend bool operator==(const SolverStats&, const SolverStats&) = default;
};

/// Snapshot of one conflict, for introspection (used to reproduce the
/// paper's Figure-1 worked example and by tests).
struct ConflictRecord {
  std::vector<cnf::Lit> conflicting_clause;
  std::vector<cnf::Lit> learned_clause;  ///< [0] is the asserting literal
  cnf::Lit uip;                          ///< FirstUIP literal (assignment)
  std::uint32_t conflict_level = 0;
  std::uint32_t backjump_level = 0;
  /// LBD of the learned clause: number of distinct decision levels among
  /// its literals at learning time (the clause-quality metric sharing
  /// and DB reduction tier on).
  std::uint32_t lbd = 0;
};

class CdclSolver {
 public:
  CdclSolver(const cnf::CnfFormula& formula, SolverConfig config = {});
  CdclSolver(const Subproblem& subproblem, SolverConfig config = {});

  CdclSolver(const CdclSolver&) = delete;
  CdclSolver& operator=(const CdclSolver&) = delete;
  CdclSolver(CdclSolver&&) = default;
  CdclSolver& operator=(CdclSolver&&) = default;

  /// Run until a verdict or until `work_budget` additional work units
  /// have been consumed. Resumable: kUnknown keeps all state.
  SolveStatus solve(
      std::uint64_t work_budget = std::numeric_limits<std::uint64_t>::max());

  /// Last verdict returned by solve() (kUnknown before the first call).
  [[nodiscard]] SolveStatus status() const noexcept { return status_; }

  /// Total assignment after kSat; index by variable, slot 0 unused.
  [[nodiscard]] const cnf::Assignment& model() const;

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SolverConfig& config() const noexcept { return config_; }

  /// Live clause-database footprint in bytes (arena + watcher overhead
  /// estimate); what the GridSAT client's memory monitor watches.
  [[nodiscard]] std::size_t db_bytes() const noexcept;

  [[nodiscard]] cnf::Var num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  [[nodiscard]] std::size_t num_assigned() const noexcept {
    return trail_.size();
  }

  // --- BCP probing (bench_solver_micro; failed-literal probing later) ---

  /// Push a decision level, assume p, and propagate to fixpoint. Returns
  /// false on conflict (state is then mid-conflict; call probe_reset()).
  /// Already-assigned literals are a no-op returning true. No clause is
  /// learned: probing leaves the clause database untouched, which is what
  /// makes it usable as a pure BCP throughput measurement.
  bool probe_assume(cnf::Lit p);

  /// Abandon all probe levels: backtrack to decision level 0.
  void probe_reset();

  // --- Splitting (paper §3.1, Figure 2) --------------------------------

  /// True when there is at least one decision to split on. A solver at
  /// level 0 (or already finished) cannot split.
  [[nodiscard]] bool can_split() const noexcept;

  /// Split the search space: this solver folds its first decision level
  /// into level 0 (the decision becomes a tainted assumption) and keeps
  /// searching; the returned subproblem carries the complementary branch
  /// (level-0 units + negated first decision) together with the current
  /// clause set, pruned of clauses satisfied at level 0 of the *new*
  /// branch. Requires can_split().
  Subproblem split();

  /// Current state as a subproblem (migration §3.4 / heavy checkpoint):
  /// level-0 units + full clause set. Levels above 0 are discarded (the
  /// paper's checkpoints do the same).
  [[nodiscard]] Subproblem to_subproblem() const;

  // --- Clause sharing (paper §3.2) --------------------------------------

  /// Callback invoked for every learned clause with its LBD (clients
  /// filter by quality — LBD and/or length — and forward on the network).
  /// The clause is globally valid; the span is valid during the call only.
  using ShareCallback =
      std::function<void(std::span<const cnf::Lit>, std::uint32_t lbd)>;
  void set_share_callback(ShareCallback cb) { share_cb_ = std::move(cb); }

  /// Queue clauses received from other clients; merged in a batch the
  /// next time the solver is at decision level 0 (paper: "only ... after
  /// the algorithm has backtracked to the first decision level"). The
  /// block is held, not copied, so a batch fanned out to many receivers
  /// exists once. Any literal order is accepted; canonical (ascending)
  /// clauses skip the loader's sort.
  void import_clauses(std::shared_ptr<const cnf::ClauseBlock> clauses) {
    pending_imports_ += clauses->size();
    import_queue_.push_back(std::move(clauses));
  }
  /// Copying form, for a caller that keeps its block.
  void import_clauses(const cnf::ClauseBlock& clauses) {
    import_clauses(std::make_shared<const cnf::ClauseBlock>(clauses));
  }

  [[nodiscard]] std::size_t pending_imports() const noexcept {
    return pending_imports_;
  }

  // --- Level-0 state (checkpoints §3.4, termination, tests) ------------

  [[nodiscard]] std::vector<SubproblemUnit> level0_units() const;

  /// All live learned clauses with at most `max_len` literals
  /// (max_len = 0 means no limit). Used by heavy checkpoints and by the
  /// split payload.
  [[nodiscard]] cnf::ClauseBlock learned_clauses(
      std::size_t max_len = 0) const;

  // --- Introspection hooks ----------------------------------------------

  /// Observe every conflict (Figure-1 reproduction, tests).
  void set_conflict_observer(std::function<void(const ConflictRecord&)> cb) {
    conflict_observer_ = std::move(cb);
  }

  /// Override decision making: return a literal to decide, or kUndefLit
  /// to fall back to VSIDS (drives the §2.3 scripted example).
  void set_decision_hook(std::function<cnf::Lit()> hook) {
    decision_hook_ = std::move(hook);
  }

  /// Attach an event tracer (obs/trace.hpp): conflicts (with LBD),
  /// restarts, DB reductions, batched decisions, and level-0 imports are
  /// emitted under `worker`. Pass nullptr to detach. The tracer is not
  /// owned and must outlive the solver's use of it.
  void set_tracer(obs::Tracer* tracer, std::uint32_t worker) noexcept {
    tracer_ = tracer;
    trace_worker_ = worker;
  }

  /// Value of a variable under the current (partial) assignment.
  [[nodiscard]] cnf::LBool value(cnf::Var v) const noexcept {
    return vars_[v].assign;
  }
  [[nodiscard]] cnf::LBool value(cnf::Lit l) const noexcept {
    return l.value_under(vars_[l.var()].assign);
  }
  [[nodiscard]] std::uint32_t level_of(cnf::Var v) const noexcept {
    return vars_[v].level;
  }
  [[nodiscard]] bool tainted(cnf::Var v) const noexcept {
    return vars_[v].taint != 0;
  }

  /// Debug invariant check: watched pairs sane, trail consistent. Returns
  /// an empty string when all invariants hold (tests call this).
  [[nodiscard]] std::string check_invariants() const;

  /// The solver's own recorded proof (empty unless config.log_proof).
  /// It is the solver's log only while no proof sink is attached: with a
  /// sink, additions go to the sink alone and deletions, imports and the
  /// refutation terminal are not recorded anywhere.
  [[nodiscard]] const ProofLog& proof() const noexcept { return proof_; }

  /// The pure guiding-path assumptions this solver runs under: split
  /// decisions only, in split order, without their propagated
  /// consequences. Empty for a full-formula solver. Seeded from
  /// Subproblem::assumptions and extended by split().
  [[nodiscard]] const std::vector<cnf::Lit>& assumptions() const noexcept {
    return assumptions_;
  }

  /// Attach an external cancellation flag (not owned; may be null to
  /// detach). solve() polls it at the top of every propagate-analyze
  /// round and returns kUnknown — resumably, with all state intact —
  /// within one propagation batch of the flag going true. This is how a
  /// losing racer is stopped promptly instead of burning the rest of its
  /// work slice (DESIGN.md §4i cancellation protocol).
  void set_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
  }

  /// Stream clause additions into a shared arrival-ordered log instead of
  /// proof(): learned clauses and logged level-0 units are forwarded;
  /// imports are not (their learner already contributed them), deletions
  /// are not (unsound across workers), and neither is the refutation
  /// terminal (the orchestrator records the leaf via
  /// DistributedProofBuilder::add_leaf). Not owned; must outlive the
  /// solver's use. Only consulted while config.log_proof is on.
  void set_proof_sink(ProofSink* sink) noexcept { proof_sink_ = sink; }

 private:
  struct Watcher {
    ClauseRef cref;
    cnf::Lit blocker;  ///< some other literal; clause skipped if true
  };

  /// One entry of the binary-implication store: the list for literal code
  /// L holds, for every binary clause (¬L ∨ implied), the implied literal
  /// plus the clause reference (needed as a reason for conflict analysis
  /// and for proof/DB bookkeeping). Propagating from this 8-byte record
  /// touches one cache line per few clauses and never dereferences the
  /// arena on the skip path.
  struct BinWatcher {
    cnf::Lit implied;
    ClauseRef cref;
  };

  /// `Clauses` is std::vector<cnf::Clause> or cnf::ClauseBlock: both
  /// index to something a std::span<const cnf::Lit> binds to.
  template <class Clauses>
  void init(cnf::Var num_vars, const Clauses& clauses,
            std::size_t num_problem_clauses,
            const std::vector<SubproblemUnit>& units);

  // Core search machinery.
  bool enqueue(cnf::Lit p, ClauseRef reason);
  bool enqueue_level0(cnf::Lit p, bool tainted);
  ClauseRef propagate();
  ClauseRef propagate_fast();
  ClauseRef propagate_binary(cnf::Lit falsified, std::uint32_t dl);
  void enqueue_implied(cnf::Lit p, ClauseRef reason, std::uint32_t dl);
  void analyze(ClauseRef confl, std::vector<cnf::Lit>& learned,
               std::uint32_t& backjump_level, cnf::Lit& uip,
               std::uint32_t& lbd);
  void minimize(std::vector<cnf::Lit>& learned);
  /// Recursive-minimization probe: true when `root` (a learned-clause
  /// literal) is implied by the rest of the clause plus untainted level-0
  /// facts, established by DFS over reason antecedents. `levels_mask` is
  /// the abstraction of the clause's decision levels (1 << (level & 63));
  /// an antecedent outside it can never bottom out in the clause.
  bool lit_redundant(cnf::Lit root, std::uint64_t levels_mask);
  /// Resolve the learned clause against binary clauses of the asserting
  /// literal, dropping any literal whose negation they imply.
  void strengthen_binary(std::vector<cnf::Lit>& learned);
  /// Apply the on-the-fly subsumption jobs collected by analyze(): runs
  /// right after backtrack(), while the pivots are unassigned and before
  /// any allocation can move the arena.
  void apply_otf_strengthening();
  /// Number of distinct decision levels among `lits` (the Glucose glue
  /// metric); every literal must be assigned.
  [[nodiscard]] std::uint32_t compute_lbd(const std::vector<cnf::Lit>& lits);
  void backtrack(std::uint32_t target_level);
  std::optional<cnf::Lit> pick_branch();
  void learn_and_attach(const std::vector<cnf::Lit>& learned,
                        std::uint32_t lbd);
  void attach(ClauseRef cref);
  void detach(ClauseRef cref);
  /// Add a clause at level 0 with standard preprocessing (dedupe,
  /// tautology skip, satisfied skip, untainted-false-literal drop) and
  /// attach it. Returns false when the clause (with propagation pending)
  /// refutes the subproblem.
  /// `new_ref` (optional) receives the allocated clause ref, or kNoClause
  /// when the clause was pruned, became a unit, or conflicted.
  bool add_clause_at_level0(std::span<const cnf::Lit> clause, bool learned,
                            ClauseRef* new_ref = nullptr);
  /// add_clause_at_level0() without the attach: stores the clause sorted,
  /// open literals first, and leaves its watches to the caller. Sorts
  /// only input that is not already ascending, and allocates nothing
  /// beyond the arena once its scratch buffers are warm.
  bool load_clause_at_level0(std::span<const cnf::Lit> clause, bool learned,
                             ClauseRef& new_ref);
  /// Attach every clause in the arena, in arena order, with each watch
  /// list reserved once: the bulk half of init().
  void attach_all();

  // Maintenance.
  void reduce_db();
  void drop_all_learned();       ///< emergency memory escalation
  bool merge_imports();          ///< at level 0; false => UNSAT
  bool simplify_at_level0();     ///< prune + strip; false => UNSAT
  /// Arena compaction (order-preserving). Safe at any decision
  /// level: the remap rewrites both watch stores and the reason of every
  /// trail literal, and backtrack() clears reasons of unassigned
  /// variables, so no stale ref survives. reduce_db() relies on this
  /// mid-search.
  void garbage_collect();
  /// Locality pass: rebuild the arena with problem clauses first, then
  /// learned clauses glue-first (LBD ascending, allocation order within a
  /// band). Falls back to garbage_collect() under memory pressure.
  void compact_ordered();
  /// Rewrite every external ClauseRef (watch lists, binary store, trail
  /// reasons) through a compaction remap.
  void rewrite_refs(const ClauseArena::Remap& remap);

  // VSIDS.
  void bump_lit(cnf::Lit l);
  void bump_clause(ClauseRef c);
  void decay_activities();
  void heap_insert(std::uint32_t lit_code);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  std::uint32_t heap_pop();

  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const noexcept {
    return activity_[a] < activity_[b] ||
           (activity_[a] == activity_[b] && a > b);
  }

  void record_conflict(ClauseRef confl, const std::vector<cnf::Lit>& learned,
                       cnf::Lit uip, std::uint32_t backjump_level,
                       std::uint32_t lbd);

  SolverConfig config_;
  cnf::Var num_vars_ = 0;

  ClauseArena arena_;
  std::vector<std::vector<Watcher>> watches_;  ///< indexed by literal code
  /// Binary-clause implications, indexed by the falsified literal's code;
  /// disjoint from watches_ (binary clauses live here alone).
  std::vector<std::vector<BinWatcher>> bin_watches_;
  /// Occupancy bitmaps (bit per literal code, cache-resident): a clear bit
  /// proves the corresponding watch list is empty, so propagate_fast()
  /// skips the (usually cold) list-header load entirely. Conservative:
  /// bits are set on every insertion and never cleared on removal — a
  /// stale set bit only costs the lookup it would have cost anyway.
  std::vector<std::uint64_t> bin_occupied_;
  std::vector<std::uint64_t> watch_occupied_;

  static void set_occupied(std::vector<std::uint64_t>& bits,
                           std::uint32_t code) noexcept {
    bits[code >> 6] |= std::uint64_t{1} << (code & 63);
  }
  [[nodiscard]] static bool occupied(const std::vector<std::uint64_t>& bits,
                                     std::uint32_t code) noexcept {
    return ((bits[code >> 6] >> (code & 63)) & 1) != 0;
  }

  /// Per-variable search state packed into one 12-byte record so the BCP
  /// enqueue path (assign + level + reason + taint) touches a single
  /// cache line per variable instead of four parallel arrays.
  struct VarState {
    cnf::LBool assign = cnf::LBool::kUndef;
    std::uint8_t taint = 0;
    std::uint32_t level = 0;
    ClauseRef reason = kNoClause;
  };

  // Assignment state, indexed by variable (slot 0 unused).
  std::vector<VarState> vars_;
  std::vector<std::uint8_t> phase_;  ///< saved phase (1 = last true)

  std::vector<cnf::Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // VSIDS state: activity per literal code + binary max-heap.
  std::vector<double> activity_;
  std::vector<std::uint32_t> heap_;
  std::vector<std::int32_t> heap_pos_;  ///< -1 = not in heap
  double activity_inc_ = 1.0;
  double clause_activity_inc_ = 1.0;

  // Analysis scratch.
  std::vector<std::uint8_t> seen_;
  std::vector<cnf::Lit> analyze_clear_;
  /// Per-level stamps for compute_lbd(): level L was counted for the
  /// current clause iff lbd_stamp_[L] == lbd_stamp_counter_. O(1) reset.
  std::vector<std::uint64_t> lbd_stamp_;
  std::uint64_t lbd_stamp_counter_ = 0;

  // Recursive-minimization scratch (minimize): per-variable verdict
  // memo, valid for the current epoch only (O(1) reset per minimize()
  // call). kMinSupport = in the learned clause, proven redundant, or on
  // the current probe path; kMinPoison = proven required by an intrinsic
  // leaf property (decision, tainted level-0, or level outside the
  // abstraction mask), safe to memoize across probes.
  static constexpr std::uint8_t kMinUnknown = 0;
  static constexpr std::uint8_t kMinSupport = 1;
  static constexpr std::uint8_t kMinPoison = 2;
  std::vector<std::uint64_t> min_stamp_;  ///< per var; valid iff == min_epoch_
  std::vector<std::uint8_t> min_mark_;    ///< per var
  std::uint64_t min_epoch_ = 0;
  std::vector<cnf::Lit> min_stack_;  ///< DFS worklist of pending pivots
  std::vector<cnf::Var> min_clear_;  ///< vars marked during this minimize()

  // Level-0 loading scratch (load_clause_at_level0).
  std::vector<cnf::Lit> load_sorted_;  ///< sorted copy of unsorted input
  std::vector<cnf::Lit> load_open_;    ///< open literals, then the kept false
  std::vector<cnf::Lit> load_false_;   ///< tainted-false literals

  /// Per-literal stamps for strengthen_binary(): literal code C is in the
  /// learned clause iff lit_stamp_[C] == lit_stamp_counter_.
  std::vector<std::uint64_t> lit_stamp_;
  std::uint64_t lit_stamp_counter_ = 0;

  /// On-the-fly subsumption jobs: antecedent clause + the pivot variable
  /// to drop. Collected during analyze(), applied after backtrack() (the
  /// pivot — the antecedent's implied literal — is unassigned by then, so
  /// the clause is no longer anyone's reason).
  struct OtfJob {
    ClauseRef cref;
    cnf::Var pivot;
  };
  std::vector<OtfJob> otf_jobs_;

  // Restart / reduce schedule.
  std::uint64_t conflicts_until_restart_ = 0;
  std::uint32_t restart_count_ = 0;
  /// Current kGeometric interval; seeded to restart_base in init() and
  /// grown by iterative multiplication (no pow(), so the schedule is
  /// bit-identical across platforms).
  double geom_interval_ = 0.0;
  /// Interval until the next restart under config_.restart_policy;
  /// advances the geometric state. Call once per (re)start.
  [[nodiscard]] std::uint64_t next_restart_interval();
  std::size_t max_learned_ = 0;
  std::size_t last_simplify_trail_ = 0;
  std::size_t proof_logged_units_ = 0;
  std::uint32_t memory_squeezes_ = 0;

  // Sharing.
  /// Imported blocks awaiting the next level-0 merge, in arrival order.
  std::vector<std::shared_ptr<const cnf::ClauseBlock>> import_queue_;
  std::size_t pending_imports_ = 0;  ///< clauses over import_queue_
  ShareCallback share_cb_;

  std::function<void(const ConflictRecord&)> conflict_observer_;
  std::function<cnf::Lit()> decision_hook_;

  // Observability (null = untraced; see obs/trace.hpp for the costs).
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_worker_ = 0;

  /// External cancellation flag (see set_cancel_flag); null = never.
  const std::atomic<bool>* cancel_ = nullptr;

  /// Proof hooks. proof_on() folds to a compile-time false under
  /// GRIDSAT_PROOF=OFF so every logging site vanishes from the hot path.
  [[nodiscard]] bool proof_on() const noexcept {
    return kProofCompiledIn && config_.log_proof;
  }
  /// True when proof() is this solver's log: proofs on, no sink attached.
  [[nodiscard]] bool local_proof() const noexcept {
    return proof_on() && proof_sink_ == nullptr;
  }
  /// To the sink if one is attached, else to proof().
  void proof_add(cnf::Clause clause);
  void proof_delete(ClauseRef cref);
  /// Log the refutation terminal once to proof(): ¬(assumptions), which
  /// is the empty clause for a full-formula solver. With a sink attached
  /// the orchestrator records it as a leaf instead.
  void log_terminal();

  util::Xoshiro256 rng_;
  ProofLog proof_;
  ProofSink* proof_sink_ = nullptr;
  std::vector<cnf::Lit> assumptions_;
  bool terminal_logged_ = false;
  SolverStats stats_;
  SolveStatus status_ = SolveStatus::kUnknown;
  bool root_conflict_ = false;  ///< formula (or subproblem) refuted
  cnf::Assignment model_;
};

}  // namespace gridsat::solver
