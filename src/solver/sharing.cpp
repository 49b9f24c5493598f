#include "solver/sharing.hpp"

namespace gridsat::solver {

namespace {

/// splitmix64 finalizer: a cheap full-avalanche mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t clause_fingerprint(std::span<const cnf::Lit> lits) noexcept {
  // Sum of mixed literal codes + a multiplicative fold of a second mix:
  // both accumulators are commutative, so literal order cannot matter,
  // and the pairing makes multiset collisions (a+b == c+d) vanishingly
  // unlikely. Length is folded in to separate {a} from {a,a}-style edge
  // cases after dedup upstream.
  std::uint64_t sum = 0;
  std::uint64_t xorm = 0;
  for (const cnf::Lit l : lits) {
    const std::uint64_t m = mix64(l.code());
    sum += m;
    xorm ^= mix64(m);
  }
  std::uint64_t fp = mix64(sum ^ (xorm + (lits.size() << 32)));
  return fp == 0 ? 1 : fp;
}

std::uint64_t formula_fingerprint(const cnf::CnfFormula& formula) noexcept {
  // Same commutative sum/xor pairing as clause_fingerprint, one level up:
  // clause order in the file cannot matter, but the clause *multiset* and
  // the variable universe both do.
  std::uint64_t sum = 0;
  std::uint64_t xorm = 0;
  for (const cnf::Clause& c : formula.clauses()) {
    const std::uint64_t m = clause_fingerprint(c);
    sum += m;
    xorm ^= mix64(m);
  }
  std::uint64_t fp = mix64(sum ^ xorm ^ mix64(formula.num_vars()) ^
                           (static_cast<std::uint64_t>(formula.num_clauses())
                            << 32));
  return fp == 0 ? 1 : fp;
}

FingerprintFilter::FingerprintFilter(std::size_t log2_slots)
    : slots_(std::size_t{1} << log2_slots),
      mask_((std::size_t{1} << log2_slots) - 1) {}

bool FingerprintFilter::insert(std::uint64_t fp) noexcept {
  if (fp == 0) fp = 1;  // 0 marks an empty slot
  std::size_t idx = static_cast<std::size_t>(fp) & mask_;
  for (std::size_t probe = 0; probe < kMaxProbes; ++probe) {
    std::uint64_t cur = slots_[idx].load(std::memory_order_relaxed);
    if (cur == fp) return false;  // seen before
    if (cur == 0) {
      if (slots_[idx].compare_exchange_strong(cur, fp,
                                              std::memory_order_relaxed)) {
        return true;  // claimed
      }
      if (cur == fp) return false;  // lost the race to the same clause
      // Lost to a different fingerprint: fall through and keep probing.
    }
    idx = (idx + probe + 1) & mask_;
  }
  // Probe window exhausted: admit as new (duplicate shipments are merely
  // wasteful; the importer's level-0 merge discards them).
  return true;
}

void FingerprintFilter::clear() noexcept {
  for (auto& slot : slots_) slot.store(0, std::memory_order_relaxed);
}

SharedClausePool::SharedClausePool(std::size_t num_shards)
    : num_shards_(num_shards), shards_(new Shard[num_shards]) {}

std::unique_lock<std::mutex> SharedClausePool::counted_lock(
    Shard& shard) noexcept {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

std::size_t SharedClausePool::publish(std::size_t shard,
                                      const cnf::ClauseBlock& batch) {
  if (batch.empty()) return 0;
  Shard& s = shards_[shard];
  const std::size_t n = batch.size();
  {
    const auto lock = counted_lock(s);
    s.clauses.append(batch);
    // Publish the new count only after the elements are in place; readers
    // acquire-load it before touching the vector.
    s.published.store(s.clauses.size(), std::memory_order_release);
  }
  if (shard < trace_workers_.size()) {
    obs::trace_event(tracer_, trace_workers_[shard],
                     obs::EventKind::kClausePublish, n);
  }
  return n;
}

void SharedClausePool::set_tracer(obs::Tracer* tracer,
                                  std::vector<std::uint32_t> worker_ids) {
  tracer_ = tracer;
  trace_workers_ = std::move(worker_ids);
}

void SharedClausePool::skip_to_now(Cursor& cursor) const noexcept {
  for (std::size_t i = 0; i < num_shards_; ++i) {
    cursor[i] = shards_[i].published.load(std::memory_order_acquire);
  }
}

std::size_t SharedClausePool::collect(std::size_t self, Cursor& cursor,
                                      cnf::ClauseBlock& out) {
  std::size_t copied = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    if (i == self) continue;  // own clauses are already in the solver's DB
    Shard& s = shards_[i];
    // Cheap emptiness test: no lock unless this shard has news.
    const std::size_t avail = s.published.load(std::memory_order_acquire);
    if (avail <= cursor[i]) continue;
    const auto lock = counted_lock(s);
    out.append(s.clauses, cursor[i], avail);
    copied += avail - cursor[i];
    cursor[i] = avail;
  }
  return copied;
}

std::uint64_t SharedClausePool::size() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    total += shards_[i].published.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t SharedClausePool::lock_contention() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    total += shards_[i].contention.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace gridsat::solver
