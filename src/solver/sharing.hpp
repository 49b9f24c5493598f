// Clause-exchange machinery for the thread-parallel solver (paper §3.2,
// engineered HordeSat-style for multicore scaling):
//
//   * clause_fingerprint(): order-insensitive 64-bit hash of a clause's
//     literal set, so the same clause learned by two workers (usually in
//     different literal orders) maps to one fingerprint;
//   * FingerprintFilter: fixed-size lock-free CAS table of fingerprints —
//     publishers consult it before appending to the pool, so a duplicate
//     is shipped at most once per run (false negatives are possible and
//     harmless: the importing solver discards duplicates; false positives
//     are not: distinct clauses only collide if their 64-bit hashes do);
//   * SharedClausePool: per-worker publish shards read through per-reader
//     cursors. A publisher locks only its own shard; a reader checks a
//     shard's atomic published-count first and locks it only when there
//     is something new to copy — it never copies the whole pool, and a
//     quiescent shard costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cnf/clause_block.hpp"
#include "cnf/formula.hpp"
#include "obs/trace.hpp"

namespace gridsat::solver {

/// Order-insensitive fingerprint of a clause's literal set: commutative
/// accumulation of per-literal mixes (splitmix64 finalizer), so permuted
/// duplicates collide by construction. Never returns 0 (the filter's
/// empty-slot marker).
[[nodiscard]] std::uint64_t clause_fingerprint(
    std::span<const cnf::Lit> lits) noexcept;

/// Order-insensitive fingerprint of a whole formula (variable count +
/// clause multiset), built from the per-clause fingerprints. Keys the
/// base-formula transfer cache (DESIGN.md §4e): a host advertising this
/// value holds a byte-equivalent copy of the original problem clauses,
/// so the master may ship a base reference instead of the clause block.
/// Never returns 0 (0 means "no base cached").
[[nodiscard]] std::uint64_t formula_fingerprint(
    const cnf::CnfFormula& formula) noexcept;

/// Fixed-size open-addressed set of fingerprints with CAS insertion.
/// Concurrent insert() calls never block; the table never grows. When a
/// probe window is full of other fingerprints the clause is admitted as
/// "new" (a rare false negative that only costs one duplicate shipment).
class FingerprintFilter {
 public:
  explicit FingerprintFilter(std::size_t log2_slots = 16);

  /// True when fp was not in the table (and is now); false for a
  /// duplicate. Thread-safe, lock-free.
  bool insert(std::uint64_t fp) noexcept;

  /// Start a new suppression epoch: forget every fingerprint. Without
  /// this, a clause published once is suppressed for the whole run even
  /// after every importer evicts its copy in reduce_db(). Safe (but not
  /// atomic) under concurrent insert(): a racing insert may land in an
  /// already-swept slot and survive, or be swept and re-admitted later —
  /// either way the filter stays a best-effort duplicate suppressor,
  /// which is all it ever was.
  void clear() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::size_t kMaxProbes = 16;
  std::vector<std::atomic<std::uint64_t>> slots_;
  std::size_t mask_;
};

/// Sharded append-only publish buffers. Shard s is written only by
/// worker s (under that shard's mutex) and read by everyone else through
/// per-reader cursors, so the lock held during an import copy is the
/// publishing shard's — not a global — and covers only the new suffix.
class SharedClausePool {
 public:
  explicit SharedClausePool(std::size_t num_shards);

  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

  /// Append a batch to `shard` (the caller's own). Returns the number of
  /// clauses appended.
  std::size_t publish(std::size_t shard, const cnf::ClauseBlock& batch);

  /// One read position per shard.
  using Cursor = std::vector<std::size_t>;
  [[nodiscard]] Cursor make_cursor() const { return Cursor(num_shards_, 0); }
  /// Fast-forward so the next collect() sees only clauses published after
  /// this call (no locks: reads the atomic counts).
  void skip_to_now(Cursor& cursor) const noexcept;

  /// Append every clause published since `cursor` by shards other than
  /// `self` into `out`; advances the cursor. Returns the number copied.
  std::size_t collect(std::size_t self, Cursor& cursor,
                      cnf::ClauseBlock& out);

  /// Total clauses published across all shards (relaxed snapshot).
  [[nodiscard]] std::uint64_t size() const noexcept;
  /// Times a reader or publisher found a shard mutex already held.
  [[nodiscard]] std::uint64_t lock_contention() const noexcept;

  /// Attach an event tracer: every publish() emits a kClausePublish
  /// event under worker_ids[shard]. `worker_ids` must cover all shards;
  /// the tracer is not owned.
  void set_tracer(obs::Tracer* tracer, std::vector<std::uint32_t> worker_ids);

 private:
  struct Shard {
    std::mutex mutex;
    cnf::ClauseBlock clauses;                    // guarded by mutex
    std::atomic<std::size_t> published{0};       // release after append
    std::atomic<std::uint64_t> contention{0};
  };

  /// Lock that counts the times it had to wait.
  static std::unique_lock<std::mutex> counted_lock(Shard& shard) noexcept;

  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;  // stable addresses (mutexes don't move)

  obs::Tracer* tracer_ = nullptr;
  std::vector<std::uint32_t> trace_workers_;  ///< shard -> tracer worker id
};

}  // namespace gridsat::solver
