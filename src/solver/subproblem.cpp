#include "solver/subproblem.hpp"

#include <algorithm>

namespace gridsat::solver {

std::size_t Subproblem::wire_size(WireMode mode) const {
  util::ByteCounter counter;
  serialize_to(counter, mode);
  return counter.size();
}

Subproblem::WireSizes Subproblem::wire_sizes() const {
  util::ByteCounter problem;
  cnf::encode_clause_stream(problem, clauses, 0,
                            static_cast<std::size_t>(num_problem_clauses));
  const std::size_t base_ref = wire_size(WireMode::kBaseRef);
  return {base_ref + problem.size(), base_ref};
}

std::vector<std::uint8_t> Subproblem::to_bytes(WireMode mode) const {
  util::ByteWriter out;
  serialize_to(out, mode);
  return out.take();
}

Subproblem Subproblem::from_bytes(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader in(bytes);
  const std::uint8_t version = in.u8();
  if (version != cnf::kWireFormatVersion) {
    throw util::DecodeError("unsupported subproblem wire version " +
                            std::to_string(version));
  }
  const std::uint8_t flags = in.u8();
  if ((flags & ~detail::kSubproblemFlagBaseRef) != 0) {
    throw util::DecodeError("unknown subproblem flags");
  }
  Subproblem sp;
  sp.num_vars = in.u32();
  // A literal over a variable beyond num_vars would reach the solver as a
  // spurious refutation (a unit) or be dropped from its clause, which
  // strengthens it unsoundly; reject it here.
  const std::uint64_t max_code = cnf::max_lit_code(sp.num_vars);
  const std::uint64_t num_units = in.var_u64();
  if (num_units > in.remaining()) {
    throw util::DecodeError("unit count exceeds buffer");
  }
  sp.units.reserve(num_units);
  for (std::uint64_t i = 0; i < num_units; ++i) {
    const std::uint64_t code = in.var_u64();
    if (code < 2 || code > max_code) {
      throw util::DecodeError("unit literal code out of range");
    }
    SubproblemUnit u;
    u.lit = cnf::Lit::from_code(static_cast<std::uint32_t>(code));
    sp.units.push_back(u);
  }
  for (std::uint64_t i = 0; i < num_units; i += 8) {
    const std::uint8_t byte = in.u8();
    for (std::uint64_t b = 0; b < 8 && i + b < num_units; ++b) {
      sp.units[i + b].tainted = ((byte >> b) & 1u) != 0;
    }
  }
  cnf::decode_lit_array(in, sp.assumptions, max_code);
  sp.path = in.str();
  sp.base_fingerprint = in.u64();
  if ((flags & detail::kSubproblemFlagBaseRef) != 0) {
    sp.needs_base = true;
    sp.num_problem_clauses = 0;
  } else {
    cnf::decode_clause_stream(in, sp.clauses, max_code);
    sp.num_problem_clauses = sp.clauses.size();
  }
  cnf::decode_clause_stream(in, sp.clauses, max_code);
  if (!in.exhausted()) {
    throw util::DecodeError("trailing bytes after subproblem payload");
  }
  return sp;
}

void Subproblem::rehydrate(std::span<const cnf::Clause> base) {
  cnf::ClauseBlock spliced(base);
  spliced.append(clauses);
  clauses = std::move(spliced);
  num_problem_clauses = base.size();
  needs_base = false;
}

std::size_t Subproblem::trim_learned(std::size_t budget_bytes) {
  const auto first = static_cast<std::size_t>(num_problem_clauses);
  if (first >= clauses.size()) return 0;
  // Learned clause indices, shortest first (stable within a length).
  std::vector<std::size_t> order(clauses.size() - first);
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = first + k;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return clauses[a].size() < clauses[b].size();
                   });
  // Charge an upper bound on the encoded stream. Each literal costs its
  // raw code varint (a sorted gap is never wider than the code it
  // replaces). Bookkeeping costs one byte per clause, but never less than
  // a bound on the real headers: the count varint plus one (len, run)
  // header per length run, where neither the kept count nor a run can
  // exceed the learned count. Long runs make the per-clause byte the
  // larger charge; short runs of few clauses make the headers larger. The
  // encoded block therefore always fits the budget.
  const auto varint_size = [](std::uint64_t v) {
    std::size_t n = 1;
    while ((v >>= 7) != 0) ++n;
    return n;
  };
  const std::size_t count_bytes = varint_size(order.size());
  std::size_t headers = count_bytes;
  std::size_t literals = 0;
  std::size_t keep = 0;
  for (; keep < order.size(); ++keep) {
    const std::span<const cnf::Lit> c = clauses[order[keep]];
    const bool new_run =
        keep == 0 || c.size() != clauses[order[keep - 1]].size();
    const std::size_t h =
        headers + (new_run ? varint_size(c.size()) + count_bytes : 0);
    std::size_t l = literals;
    for (const cnf::Lit lit : c) l += varint_size(lit.code());
    if (std::max(keep + 1, h) + l > budget_bytes) break;
    headers = h;
    literals = l;
  }
  const std::size_t dropped = order.size() - keep;
  if (dropped == 0 && std::is_sorted(order.begin(), order.end())) return 0;
  cnf::ClauseBlock trimmed;
  trimmed.reserve(first + keep, clauses.num_literals());
  trimmed.append(clauses, 0, first);
  for (std::size_t k = 0; k < keep; ++k) trimmed.push_back(clauses[order[k]]);
  clauses = std::move(trimmed);
  return dropped;
}

}  // namespace gridsat::solver
