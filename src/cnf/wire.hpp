// Shared wire codec for clause streams (DESIGN.md §4e).
//
// Every payload that ships clauses — subproblem transfers, checkpoints,
// clause-sharing batches — uses the same two tricks:
//
//  * within a clause, literal codes are sorted ascending and the gaps
//    are LEB128-encoded (watch order is rebuilt on attach, so in-clause
//    order is free to give away; sorted gaps make most literals 1 byte);
//  * across the stream, clauses are grouped by length, stably, and
//    emitted as (len, count) runs, so per-clause length prefixes collapse
//    to one header per run.
//
// Split children and shared clauses arrive already canonical
// (CdclSolver::to_subproblem sorts each clause once, and a client sorts
// each clause it exports), so the encoder only sorts a clause that is not
// ascending, and groups by length with a counting sort. Streams encode
// from and decode into a cnf::ClauseBlock.
//
// Encoders are templates over the writer so the same code path runs
// against util::ByteWriter (real bytes) and util::ByteCounter
// (wire_size) — size and serialization cannot drift apart.
//
// Bumping any layout here is a wire-format version change: update
// kWireFormatVersion and the golden-bytes fixtures together.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/clause_block.hpp"
#include "cnf/formula.hpp"
#include "cnf/types.hpp"
#include "util/bytes.hpp"

namespace gridsat::cnf {

/// Version byte leading every serialized payload (and the protocol frame
/// header). v1 was the PR-0 per-clause varint format; v2 added delta
/// literals, length runs, base-formula references, and checkpoint epochs.
inline constexpr std::uint8_t kWireFormatVersion = 2;

/// Encode one clause whose literals are already sorted ascending: first
/// code absolute, then the gaps. Gap 0 (duplicate literal) is legal and
/// round-trips.
template <class W>
void encode_sorted_lits(W& out, std::span<const Lit> lits) {
  out.var_u64(lits[0].code());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    out.var_u64(lits[i].code() - lits[i - 1].code());
  }
}

/// Encode `count` clauses as length-grouped runs. The clauses are
/// addressed by index so callers can encode straight out of whatever
/// store they own (a ClauseBlock, a ClauseArena span) without
/// materializing a copy: lits_of(i) returns clause i's literals, in any
/// order, as a std::span<const Lit>. Clauses keep their relative order
/// within a run. Empty clauses are not representable on the wire (an
/// empty clause means the search already refuted this node; nothing
/// legitimate ships one).
template <class W, class LitsFn>
void encode_clause_stream(W& out, std::size_t count, LitsFn&& lits_of) {
  out.var_u64(count);
  // Counting sort of the clause indices by length: `first[len]` becomes
  // the start of length len's run in `order`.
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = lits_of(i).size();
    if (len == 0) throw util::DecodeError("cannot encode an empty clause");
    max_len = std::max(max_len, len);
  }
  std::vector<std::uint32_t> first(max_len + 2, 0);
  for (std::size_t i = 0; i < count; ++i) ++first[lits_of(i).size() + 1];
  for (std::size_t len = 1; len <= max_len + 1; ++len) {
    first[len] += first[len - 1];
  }
  std::vector<std::uint32_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[first[lits_of(i).size()]++] = static_cast<std::uint32_t>(i);
  }
  // Now first[len] is the end of length len's run, i.e. the start of
  // the next length's.
  std::vector<Lit> scratch;
  std::size_t i = 0;
  for (std::size_t len = 1; len <= max_len; ++len) {
    const std::size_t j = first[len];
    if (j == i) continue;
    out.var_u64(len);
    out.var_u64(j - i);
    for (; i < j; ++i) {
      const std::span<const Lit> lits = lits_of(order[i]);
      if (std::is_sorted(lits.begin(), lits.end())) {
        encode_sorted_lits(out, lits);
      } else {
        scratch.assign(lits.begin(), lits.end());
        std::sort(scratch.begin(), scratch.end());
        encode_sorted_lits(out, std::span<const Lit>(scratch));
      }
    }
  }
}

/// Convenience overload for a contiguous range of cnf::Clause.
template <class W>
void encode_clause_stream(W& out, std::span<const Clause> clauses) {
  encode_clause_stream(out, clauses.size(), [&](std::size_t i) {
    return std::span<const Lit>(clauses[i]);
  });
}

/// Encode clauses [first, last) of a block.
template <class W>
void encode_clause_stream(W& out, const ClauseBlock& block, std::size_t first,
                          std::size_t last) {
  encode_clause_stream(out, last - first,
                       [&](std::size_t i) { return block[first + i]; });
}

/// Largest literal code over variables 1..num_vars: the bound a decoder
/// checks so a payload cannot name a variable its receiver does not have.
inline std::uint64_t max_lit_code(Var num_vars) {
  return std::min<std::uint64_t>(2 * std::uint64_t{num_vars} + 1, UINT32_MAX);
}

/// Decode a clause stream, appending to `out`. Clauses come back with
/// literals sorted ascending (the canonical wire order); attach rebuilds
/// watches, so semantics are unchanged. Structural bounds are validated
/// before any allocation so adversarial buffers fail with DecodeError
/// instead of an out-of-memory reserve, every literal code must lie in
/// [2, max_code], and runs must come in strictly ascending length, as
/// the encoder emits them, so a decoded stream re-encodes to itself.
inline void decode_clause_stream(util::ByteReader& in, ClauseBlock& out,
                                 std::uint64_t max_code = UINT32_MAX) {
  const std::uint64_t count = in.var_u64();
  // Every clause carries >= 1 literal and every literal >= 1 byte.
  if (count > in.remaining()) {
    throw util::DecodeError("clause stream count exceeds buffer");
  }
  out.reserve(out.size() + count, out.num_literals() + count);
  std::uint64_t emitted = 0;
  std::uint64_t prev_len = 0;
  while (emitted < count) {
    const std::uint64_t len = in.var_u64();
    const std::uint64_t run = in.var_u64();
    if (len == 0) throw util::DecodeError("empty clause in stream");
    if (len <= prev_len) {
      throw util::DecodeError("clause runs out of length order");
    }
    prev_len = len;
    if (run == 0 || run > count - emitted) {
      throw util::DecodeError("clause run overflows stream count");
    }
    if (len > in.remaining()) {
      throw util::DecodeError("clause length exceeds buffer");
    }
    for (std::uint64_t k = 0; k < run; ++k) {
      const std::span<Lit> c = out.push_uninit(len);
      std::uint32_t code = 0;
      for (std::uint64_t m = 0; m < len; ++m) {
        const std::uint64_t delta = in.var_u64();
        const std::uint64_t next = (m == 0 ? delta : code + delta);
        if (next > max_code || (m == 0 && next < 2)) {
          throw util::DecodeError("literal code out of range");
        }
        code = static_cast<std::uint32_t>(next);
        c[m] = Lit::from_code(code);
      }
    }
    emitted += run;
  }
}

/// Order-preserving literal array (guiding-path units, assumptions keep
/// their trail order: recovery replays them in sequence).
template <class W>
void encode_lit_array(W& out, std::span<const Lit> lits) {
  out.var_u64(lits.size());
  for (const Lit l : lits) out.var_u64(l.code());
}

inline void decode_lit_array(util::ByteReader& in, std::vector<Lit>& out,
                             std::uint64_t max_code = UINT32_MAX) {
  const std::uint64_t count = in.var_u64();
  if (count > in.remaining()) {
    throw util::DecodeError("literal array count exceeds buffer");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t code = in.var_u64();
    if (code < 2 || code > max_code) {
      throw util::DecodeError("literal code out of range");
    }
    out.push_back(Lit::from_code(static_cast<std::uint32_t>(code)));
  }
}

}  // namespace gridsat::cnf
