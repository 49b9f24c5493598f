// Wire-format tests (DESIGN.md §4e): golden-bytes compatibility fixtures
// for the v2 encoding, the wire_size() == to_bytes().size() property
// over randomized payloads, strict decoding of hostile bytes, delta
// checkpoint chain restores, and the campaign-level base-ref caching /
// renegotiation / incremental-checkpoint behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "cnf/wire.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "gen/pigeonhole.hpp"
#include "solver/cdcl.hpp"
#include "solver/sharing.hpp"
#include "solver/subproblem.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gridsat {
namespace {

using cnf::Lit;

// ---------------------------------------------------------------------------
// Golden bytes. These fixtures pin the v2 wire format: if an encoder
// change alters any of them, bump cnf::kWireFormatVersion and regenerate
// (the fixtures are the serialized forms of the payloads built in each
// test). Old and new binaries must never silently exchange payloads —
// each payload's leading version byte is the gate.
// ---------------------------------------------------------------------------

const char* const kGoldenSubproblemFull =
    "020006000000020207020105037e5632887766554433221102010109"
    "02010203010301040303";

const char* const kGoldenSubproblemBaseRef =
    "020106000000020207020105037e5632887766554433221101030104"
    "0303";

const char* const kGoldenCheckpointDelta =
    "020303050401040001080102010501";

std::vector<std::uint8_t> from_hex(const char* hex) {
  const std::string s(hex);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// Clause i of a block as an owned clause.
cnf::Clause clause_at(const cnf::ClauseBlock& block, std::size_t i) {
  return {block[i].begin(), block[i].end()};
}

/// The fixture payload behind the subproblem goldens: canonical wire
/// order (clauses ascending by length per stream, literal codes sorted),
/// so decoding its bytes is the identity.
solver::Subproblem golden_subproblem() {
  solver::Subproblem sp;
  sp.num_vars = 6;
  sp.units = {{Lit(1, false), false}, {Lit(3, true), true}};
  sp.clauses = {{Lit(4, true)},
                {Lit(1, false), Lit(2, true)},
                {Lit(2, false), Lit(3, true), Lit(5, false)}};
  sp.num_problem_clauses = 2;
  sp.assumptions = {Lit(2, true)};
  sp.path = "~V2";
  sp.base_fingerprint = 0x1122334455667788ull;
  return sp;
}

TEST(GoldenBytesTest, SubproblemFullMatchesFixture) {
  const solver::Subproblem sp = golden_subproblem();
  EXPECT_EQ(sp.to_bytes(solver::WireMode::kFull),
            from_hex(kGoldenSubproblemFull));
  // A current decoder must read the checked-in bytes back exactly.
  const solver::Subproblem back =
      solver::Subproblem::from_bytes(from_hex(kGoldenSubproblemFull));
  EXPECT_EQ(back, sp);
}

TEST(GoldenBytesTest, SubproblemBaseRefMatchesFixture) {
  const solver::Subproblem sp = golden_subproblem();
  EXPECT_EQ(sp.to_bytes(solver::WireMode::kBaseRef),
            from_hex(kGoldenSubproblemBaseRef));
  solver::Subproblem back =
      solver::Subproblem::from_bytes(from_hex(kGoldenSubproblemBaseRef));
  EXPECT_TRUE(back.needs_base);
  EXPECT_EQ(back.num_problem_clauses, 0u);
  EXPECT_EQ(back.base_fingerprint, sp.base_fingerprint);
  // Splicing the problem block back in restores the full payload.
  const std::vector<cnf::Clause> base = {clause_at(sp.clauses, 0),
                                         clause_at(sp.clauses, 1)};
  back.rehydrate(base);
  EXPECT_EQ(back, sp);
}

TEST(GoldenBytesTest, CheckpointDeltaMatchesFixture) {
  core::Checkpoint cp;
  cp.heavy = true;
  cp.delta = true;
  cp.incarnation = 3;
  cp.epoch = 5;
  cp.base_epoch = 4;
  cp.units = {{Lit(2, false), false}};
  cp.assumptions = {Lit(4, false)};
  cp.learned = {{Lit(2, true), Lit(3, false)}};
  EXPECT_EQ(cp.to_bytes(), from_hex(kGoldenCheckpointDelta));
  EXPECT_EQ(core::Checkpoint::from_bytes(from_hex(kGoldenCheckpointDelta)),
            cp);
}

TEST(GoldenBytesTest, PayloadsGateOnVersion) {
  // Every payload leads with the format version; a binary speaking
  // another version must reject the payload rather than misparse it.
  const auto next_version = [](const char* hex) {
    std::vector<std::uint8_t> bytes = from_hex(hex);
    EXPECT_EQ(bytes.at(0), cnf::kWireFormatVersion);
    bytes[0] = static_cast<std::uint8_t>(cnf::kWireFormatVersion + 1);
    return bytes;
  };
  EXPECT_THROW(
      solver::Subproblem::from_bytes(next_version(kGoldenSubproblemFull)),
      util::DecodeError);
  EXPECT_THROW(
      solver::Subproblem::from_bytes(next_version(kGoldenSubproblemBaseRef)),
      util::DecodeError);
  EXPECT_THROW(
      core::Checkpoint::from_bytes(next_version(kGoldenCheckpointDelta)),
      util::DecodeError);
}

// ---------------------------------------------------------------------------
// Property: wire_size() is exact — it runs the real encoder against a
// counting writer, so it must equal to_bytes().size() for arbitrary
// payloads under every mode.
// ---------------------------------------------------------------------------

solver::Subproblem random_subproblem(util::Xoshiro256& rng) {
  solver::Subproblem sp;
  sp.num_vars = static_cast<cnf::Var>(10 + rng.below(50));
  const auto random_lit = [&] {
    return Lit(static_cast<cnf::Var>(1 + rng.below(sp.num_vars)),
               rng.below(2) == 0);
  };
  const std::size_t num_units = rng.below(12);
  for (std::size_t i = 0; i < num_units; ++i) {
    sp.units.push_back({random_lit(), rng.below(3) == 0});
  }
  const std::size_t num_clauses = rng.below(40);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    cnf::Clause clause;
    const std::size_t len = 1 + rng.below(7);
    for (std::size_t j = 0; j < len; ++j) clause.push_back(random_lit());
    sp.clauses.push_back(std::move(clause));
  }
  sp.num_problem_clauses = sp.clauses.empty() ? 0 : rng.below(num_clauses + 1);
  const std::size_t num_assumptions = rng.below(6);
  for (std::size_t i = 0; i < num_assumptions; ++i) {
    sp.assumptions.push_back(random_lit());
  }
  sp.path = std::string(rng.below(20), 'p');
  sp.base_fingerprint = rng.next();
  return sp;
}

/// Encoded size of clauses [first, last) as one stream: what one block
/// of a payload costs.
std::size_t stream_bytes(const cnf::ClauseBlock& clauses, std::size_t first,
                         std::size_t last) {
  util::ByteCounter counter;
  cnf::encode_clause_stream(counter, clauses, first, last);
  return counter.size();
}

TEST(WirePropertyTest, SubproblemWireSizeEqualsSerializedSize) {
  util::Xoshiro256 rng(2024);
  for (int i = 0; i < 200; ++i) {
    const solver::Subproblem sp = random_subproblem(rng);
    for (const auto mode :
         {solver::WireMode::kFull, solver::WireMode::kBaseRef}) {
      EXPECT_EQ(sp.wire_size(mode), sp.to_bytes(mode).size())
          << "mode " << static_cast<int>(mode) << " iteration " << i;
    }
    // The two frames differ only in the problem-clause stream, which is
    // what lets wire_sizes() derive the full size from the base-ref one.
    EXPECT_EQ(sp.wire_size(solver::WireMode::kFull) -
                  sp.wire_size(solver::WireMode::kBaseRef),
              stream_bytes(sp.clauses, 0,
                           static_cast<std::size_t>(sp.num_problem_clauses)))
        << "iteration " << i;
    EXPECT_EQ(sp.wire_sizes().full, sp.wire_size(solver::WireMode::kFull));
    // Decoding canonicalizes; re-encoding the canonical form is a
    // fixpoint with the same exact-size property.
    const solver::Subproblem back =
        solver::Subproblem::from_bytes(sp.to_bytes(solver::WireMode::kFull));
    EXPECT_EQ(back.wire_size(), back.to_bytes().size());
    EXPECT_EQ(solver::Subproblem::from_bytes(back.to_bytes()), back);
  }
}

TEST(WirePropertyTest, CheckpointWireSizeEqualsSerializedSize) {
  util::Xoshiro256 rng(4048);
  for (int i = 0; i < 200; ++i) {
    core::Checkpoint cp;
    cp.heavy = rng.below(2) == 0;
    cp.delta = cp.heavy && rng.below(2) == 0;
    cp.incarnation = rng.below(1000);
    cp.epoch = 1 + rng.below(100);
    cp.base_epoch = cp.delta ? rng.below(cp.epoch) : 0;
    const std::size_t num_units = rng.below(10);
    for (std::size_t u = 0; u < num_units; ++u) {
      cp.units.push_back({Lit(static_cast<cnf::Var>(1 + rng.below(30)),
                              rng.below(2) == 0),
                          rng.below(4) == 0});
    }
    const std::size_t num_learned = cp.heavy ? rng.below(20) : 0;
    for (std::size_t c = 0; c < num_learned; ++c) {
      cnf::Clause clause;
      const std::size_t len = 1 + rng.below(5);
      for (std::size_t j = 0; j < len; ++j) {
        clause.push_back(
            Lit(static_cast<cnf::Var>(1 + rng.below(30)), rng.below(2) == 0));
      }
      cp.learned.push_back(std::move(clause));
    }
    EXPECT_EQ(cp.wire_size(), cp.to_bytes().size()) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// Encoder property: the counting-sort encoder against the stable_sort
// reference it replaced, over both writers.
// ---------------------------------------------------------------------------

/// The reference clause-stream encoder: stable_sort the clause indices by
/// length, then sort every clause's literal codes before writing it.
template <class W>
void reference_encode_clause_stream(W& out, std::span<const cnf::Clause> clauses) {
  out.var_u64(clauses.size());
  std::vector<std::size_t> order(clauses.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return clauses[a].size() < clauses[b].size();
  });
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t len = clauses[order[i]].size();
    if (len == 0) throw util::DecodeError("cannot encode an empty clause");
    std::size_t j = i + 1;
    while (j < order.size() && clauses[order[j]].size() == len) ++j;
    out.var_u64(len);
    out.var_u64(j - i);
    for (; i < j; ++i) {
      std::vector<std::uint32_t> codes;
      for (const Lit l : clauses[order[i]]) codes.push_back(l.code());
      std::sort(codes.begin(), codes.end());
      out.var_u64(codes[0]);
      for (std::size_t k = 1; k < codes.size(); ++k) {
        out.var_u64(codes[k] - codes[k - 1]);
      }
    }
  }
}

TEST(WireEncoderTest, CountingSortEncoderMatchesStableSortReference) {
  util::Xoshiro256 rng(1515);
  // Lengths with gaps between them, so runs are not contiguous lengths.
  const std::size_t lengths[] = {1, 2, 3, 5, 9, 17, 40};
  for (int round = 0; round < 100; ++round) {
    std::vector<cnf::Clause> clauses;
    const std::size_t count = rng.below(60);
    for (std::size_t c = 0; c < count; ++c) {
      cnf::Clause clause;
      const std::size_t len = lengths[rng.below(std::size(lengths))];
      for (std::size_t k = 0; k < len; ++k) {
        clause.push_back(Lit::from_code(2 + static_cast<std::uint32_t>(
                                                rng.below(round % 2 ? 300 : 30))));
      }
      // Half the clauses arrive canonical, the rest in arbitrary order
      // (with duplicates when the code range is small).
      if (rng.below(2) == 0) std::sort(clause.begin(), clause.end());
      clauses.push_back(std::move(clause));
    }
    if (round % 10 == 0) {
      cnf::Clause huge;
      for (std::uint32_t k = 0; k < 1000; ++k) {
        huge.push_back(Lit::from_code(2 + (k * 7919u) % 5000u));
      }
      clauses.insert(clauses.begin() + static_cast<std::ptrdiff_t>(
                                           rng.below(clauses.size() + 1)),
                     std::move(huge));
    }
    const std::span<const cnf::Clause> all(clauses);
    util::ByteWriter got;
    util::ByteWriter want;
    cnf::encode_clause_stream(got, all);
    reference_encode_clause_stream(want, all);
    const std::vector<std::uint8_t> bytes = want.take();
    EXPECT_EQ(got.take(), bytes) << "round " << round;
    util::ByteCounter counter;
    cnf::encode_clause_stream(counter, all);
    EXPECT_EQ(counter.size(), bytes.size()) << "round " << round;
  }
}

TEST(WireEncoderTest, EmptyClauseThrowsOnBothWriters) {
  const std::vector<cnf::Clause> clauses = {{Lit(1, false), Lit(2, true)}, {}};
  const std::span<const cnf::Clause> all(clauses);
  util::ByteWriter writer;
  EXPECT_THROW(cnf::encode_clause_stream(writer, all), util::DecodeError);
  util::ByteCounter counter;
  EXPECT_THROW(cnf::encode_clause_stream(counter, all), util::DecodeError);
}

// ---------------------------------------------------------------------------
// cnf::ClauseBlock: the flat clause container every payload holds.
// ---------------------------------------------------------------------------

TEST(ClauseBlockTest, AppendAndSpanAccess) {
  cnf::ClauseBlock block;
  EXPECT_TRUE(block.empty());
  block.push_back(cnf::Clause{Lit(1, false), Lit(2, true)});
  const std::span<Lit> slot = block.push_uninit(3);
  slot[0] = Lit(3, false);
  slot[1] = Lit(4, true);
  slot[2] = Lit(5, false);
  block.push_back(cnf::Clause{Lit(6, true)});
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block.num_literals(), 6u);
  EXPECT_EQ(clause_at(block, 0), (cnf::Clause{Lit(1, false), Lit(2, true)}));
  EXPECT_EQ(clause_at(block, 1),
            (cnf::Clause{Lit(3, false), Lit(4, true), Lit(5, false)}));
  EXPECT_EQ(clause_at(block, 2), (cnf::Clause{Lit(6, true)}));
  std::vector<std::size_t> sizes;
  for (const std::span<const Lit> c : block) sizes.push_back(c.size());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 3, 1}));

  // A range append re-bases the offsets onto the receiving buffer.
  cnf::ClauseBlock tail = {{Lit(7, false)}};
  tail.append(block, 1, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(clause_at(tail, 1), clause_at(block, 1));
  EXPECT_EQ(clause_at(tail, 2), clause_at(block, 2));
  EXPECT_EQ(tail.num_literals(), 5u);
  tail.clear();
  EXPECT_EQ(tail, cnf::ClauseBlock{});
}

TEST(ClauseBlockTest, EqualityComparesClausesAndLiteralOrder) {
  const cnf::ClauseBlock a = {{Lit(1, false), Lit(2, false)}, {Lit(3, false)}};
  EXPECT_EQ(a, (cnf::ClauseBlock{{Lit(1, false), Lit(2, false)},
                                 {Lit(3, false)}}));
  // The same literals cut into other clauses.
  EXPECT_NE(a, (cnf::ClauseBlock{{Lit(1, false)},
                                 {Lit(2, false), Lit(3, false)}}));
  // The same clause set with one clause's literals reordered.
  EXPECT_NE(a, (cnf::ClauseBlock{{Lit(2, false), Lit(1, false)},
                                 {Lit(3, false)}}));
}

TEST(ClauseBlockTest, ConvertsFromClauseList) {
  const std::vector<cnf::Clause> clauses = {
      {Lit(4, true)}, {}, {Lit(1, false), Lit(9, true), Lit(2, false)}};
  const cnf::ClauseBlock block(clauses);
  ASSERT_EQ(block.size(), clauses.size());
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    EXPECT_EQ(clause_at(block, i), clauses[i]) << "clause " << i;
  }
  cnf::ClauseBlock pushed;
  for (const cnf::Clause& c : clauses) pushed.push_back(c);
  EXPECT_EQ(block, pushed);
}

TEST(ClauseBlockTest, StreamDecodesIntoBlockCanonically) {
  util::Xoshiro256 rng(77);
  for (int round = 0; round < 50; ++round) {
    std::vector<cnf::Clause> clauses;
    const std::size_t count = 1 + rng.below(30);
    for (std::size_t i = 0; i < count; ++i) {
      cnf::Clause c;
      const std::size_t len = 1 + rng.below(6);
      for (std::size_t j = 0; j < len; ++j) {
        c.push_back(Lit(static_cast<cnf::Var>(1 + rng.below(40)),
                        rng.below(2) == 0));
      }
      clauses.push_back(std::move(c));
    }
    const cnf::ClauseBlock block(clauses);
    // Encode the block's tail; decode it after a clause already held.
    const std::size_t first = rng.below(count);
    util::ByteWriter out;
    cnf::encode_clause_stream(out, block, first, count);
    const std::vector<std::uint8_t> bytes = out.take();
    cnf::ClauseBlock back = {{Lit(50, false)}};
    util::ByteReader in(bytes);
    cnf::decode_clause_stream(in, back);
    EXPECT_TRUE(in.exhausted());
    // Expected: the encoded clauses, shortest first (stably), each sorted.
    std::vector<cnf::Clause> want(
        clauses.begin() + static_cast<std::ptrdiff_t>(first), clauses.end());
    std::stable_sort(want.begin(), want.end(),
                     [](const cnf::Clause& a, const cnf::Clause& b) {
                       return a.size() < b.size();
                     });
    for (cnf::Clause& c : want) std::sort(c.begin(), c.end());
    want.insert(want.begin(), cnf::Clause{Lit(50, false)});
    EXPECT_EQ(back, cnf::ClauseBlock(want)) << "round " << round;
    // The span overload writes the same bytes for the same clauses.
    util::ByteWriter same;
    cnf::encode_clause_stream(
        same, std::span<const cnf::Clause>(clauses).subspan(first));
    EXPECT_EQ(same.take(), bytes) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Decode-time literal range: a payload may only name variables
// 1..num_vars, in every section.
// ---------------------------------------------------------------------------

/// Append `lit` to clause i of the payload.
void append_lit(solver::Subproblem& sp, std::size_t i, Lit lit) {
  cnf::ClauseBlock out;
  for (std::size_t k = 0; k < sp.clauses.size(); ++k) {
    cnf::Clause c = clause_at(sp.clauses, k);
    if (k == i) c.push_back(lit);
    out.push_back(c);
  }
  sp.clauses = std::move(out);
}

TEST(SubproblemDecodeTest, AcceptsLiteralsUpToNumVars) {
  solver::Subproblem sp = golden_subproblem();
  const Lit top(sp.num_vars, true);  // the largest legal code
  sp.units.push_back({top, false});
  sp.assumptions.push_back(top);
  append_lit(sp, sp.clauses.size() - 1, top);
  EXPECT_NO_THROW(solver::Subproblem::from_bytes(sp.to_bytes()));
}

TEST(SubproblemDecodeTest, RejectsUnitBeyondNumVars) {
  solver::Subproblem sp = golden_subproblem();
  sp.units.push_back({Lit(sp.num_vars + 1, false), false});
  EXPECT_THROW(solver::Subproblem::from_bytes(sp.to_bytes()), util::DecodeError);
}

TEST(SubproblemDecodeTest, RejectsAssumptionBeyondNumVars) {
  solver::Subproblem sp = golden_subproblem();
  sp.assumptions.push_back(Lit(sp.num_vars + 1, true));
  EXPECT_THROW(solver::Subproblem::from_bytes(sp.to_bytes()), util::DecodeError);
}

TEST(SubproblemDecodeTest, RejectsClauseLiteralBeyondNumVars) {
  // In the problem block.
  solver::Subproblem problem = golden_subproblem();
  append_lit(problem, 0, Lit(problem.num_vars + 1, false));
  EXPECT_THROW(solver::Subproblem::from_bytes(problem.to_bytes()),
               util::DecodeError);
  // In the learned block, which both wire forms carry.
  for (const auto mode : {solver::WireMode::kFull, solver::WireMode::kBaseRef}) {
    solver::Subproblem learned = golden_subproblem();
    append_lit(learned, learned.clauses.size() - 1,
               Lit(learned.num_vars + 3, true));
    EXPECT_THROW(solver::Subproblem::from_bytes(learned.to_bytes(mode)),
                 util::DecodeError)
        << "mode " << static_cast<int>(mode);
  }
}

// ---------------------------------------------------------------------------
// Hostile bytes: a decoder either rejects its input with DecodeError or
// returns a payload whose own encoding round-trips. Any other exception
// (or a sanitizer report) fails.
// ---------------------------------------------------------------------------

TEST(WireDecodeTest, RejectsTrailingBytes) {
  std::vector<std::uint8_t> full = from_hex(kGoldenSubproblemFull);
  std::vector<std::uint8_t> base_ref = from_hex(kGoldenSubproblemBaseRef);
  std::vector<std::uint8_t> delta = from_hex(kGoldenCheckpointDelta);
  for (auto* bytes : {&full, &base_ref, &delta}) bytes->push_back(0x00);
  EXPECT_THROW(solver::Subproblem::from_bytes(full), util::DecodeError);
  EXPECT_THROW(solver::Subproblem::from_bytes(base_ref), util::DecodeError);
  EXPECT_THROW(core::Checkpoint::from_bytes(delta), util::DecodeError);
}

/// Decode `bytes`; on success, the payload must survive its own encoding.
/// `encode` re-encodes a decoded payload (in the wire form it came in).
template <class Payload, class Encode>
void expect_rejected_or_round_trips(const std::vector<std::uint8_t>& bytes,
                                    Encode encode) {
  Payload decoded;
  try {
    decoded = Payload::from_bytes(bytes);
  } catch (const util::DecodeError&) {
    return;
  }
  EXPECT_EQ(Payload::from_bytes(encode(decoded)), decoded);
}

/// Every truncation of `payload`, then random 1-3 bit flips of it.
template <class Payload, class Encode>
void mutate_and_decode(const std::vector<std::uint8_t>& payload,
                       util::Xoshiro256& rng, Encode encode) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    expect_rejected_or_round_trips<Payload>(
        std::vector<std::uint8_t>(payload.begin(),
                                  payload.begin() +
                                      static_cast<std::ptrdiff_t>(len)),
        encode);
  }
  for (int i = 0; i < 500; ++i) {
    SCOPED_TRACE("bit-flip round " + std::to_string(i));
    std::vector<std::uint8_t> mutated = payload;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    expect_rejected_or_round_trips<Payload>(mutated, encode);
  }
}

TEST(WireFuzzTest, HostilePayloadsThrowOrRoundTrip) {
  util::Xoshiro256 rng(99);
  // A real split child, so the clause streams carry realistic runs.
  const auto f = gen::pigeonhole_unsat(5);
  solver::CdclSolver solver(f);
  while (!solver.can_split() &&
         solver.solve(200) == solver::SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(solver.can_split());
  solver::Subproblem sp = solver.split();
  sp.base_fingerprint = solver::formula_fingerprint(f);
  const auto encode_subproblem = [](const solver::Subproblem& x) {
    return x.to_bytes(x.needs_base ? solver::WireMode::kBaseRef
                                   : solver::WireMode::kFull);
  };
  const auto encode_checkpoint = [](const core::Checkpoint& x) {
    return x.to_bytes();
  };
  {
    SCOPED_TRACE("full subproblem");
    mutate_and_decode<solver::Subproblem>(sp.to_bytes(solver::WireMode::kFull),
                                          rng, encode_subproblem);
  }
  {
    SCOPED_TRACE("base-ref subproblem");
    mutate_and_decode<solver::Subproblem>(
        sp.to_bytes(solver::WireMode::kBaseRef), rng, encode_subproblem);
  }
  {
    SCOPED_TRACE("delta checkpoint");
    mutate_and_decode<core::Checkpoint>(from_hex(kGoldenCheckpointDelta), rng,
                                        encode_checkpoint);
  }
  // Random junk, for both decoders.
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    if (!junk.empty() && rng.below(2) == 0) junk[0] = cnf::kWireFormatVersion;
    expect_rejected_or_round_trips<solver::Subproblem>(junk, encode_subproblem);
    expect_rejected_or_round_trips<core::Checkpoint>(junk, encode_checkpoint);
  }
}

// ---------------------------------------------------------------------------
// Incremental checkpoint chains: restore replays base + deltas.
// ---------------------------------------------------------------------------

TEST(CheckpointChainTest, RestoreChainReplaysBaseAndDeltas) {
  cnf::CnfFormula f(5);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({-1, 4});

  core::Checkpoint full;
  full.heavy = true;
  full.incarnation = 9;
  full.epoch = 1;
  full.units = {{Lit(1, false), false}};
  full.assumptions = {Lit(2, false)};
  full.learned = {{Lit(2, false), Lit(4, false)}};

  core::Checkpoint delta;
  delta.heavy = true;
  delta.delta = true;
  delta.incarnation = 9;
  delta.epoch = 2;
  delta.base_epoch = 1;
  delta.units = {{Lit(1, false), false}, {Lit(4, false), true}};
  delta.assumptions = {Lit(2, false)};
  delta.learned = {{Lit(3, false), Lit(5, true)}};

  const std::vector<core::Checkpoint> chain = {full, delta};
  const solver::Subproblem sp = core::restore_chain(chain, f);
  // Units and assumptions come from the newest entry; the clause set is
  // the original formula plus every chain entry's learned clauses.
  EXPECT_EQ(sp.units, delta.units);
  EXPECT_EQ(sp.assumptions, delta.assumptions);
  EXPECT_EQ(sp.num_problem_clauses, f.num_clauses());
  ASSERT_EQ(sp.clauses.size(), f.num_clauses() + 2);
  EXPECT_EQ(clause_at(sp.clauses, f.num_clauses()),
            clause_at(full.learned, 0));
  EXPECT_EQ(clause_at(sp.clauses, f.num_clauses() + 1),
            clause_at(delta.learned, 0));
}

TEST(CheckpointChainTest, SingleFullChainMatchesDirectRestore) {
  cnf::CnfFormula f(3);
  f.add_dimacs_clause({1, -2});
  core::Checkpoint cp;
  cp.heavy = true;
  cp.units = {{Lit(2, true), false}};
  cp.learned = {{Lit(1, false), Lit(3, true)}};
  const std::vector<core::Checkpoint> chain = {cp};
  EXPECT_EQ(core::restore_chain(chain, f), cp.restore(f));
}

// ---------------------------------------------------------------------------
// Campaign integration: residency-driven base-ref ships, the
// renegotiate-on-mismatch fallback, and delta-chain recovery.
// ---------------------------------------------------------------------------

constexpr std::size_t kMiB = 1024 * 1024;

std::vector<sim::HostSpec> wire_testbed() {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = util::indexed_name("w", i);
    spec.site = i < 2 ? "east" : "west";
    spec.speed = 3000.0 + 500.0 * i;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 300 + i;
    hosts.push_back(spec);
  }
  return hosts;
}

core::GridSatConfig wire_config() {
  core::GridSatConfig config;
  config.split_timeout_s = 2.0;  // force early splitting
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  return config;
}

TEST(CampaignWireTest, BaseRefCachingSavesBytesWithUnchangedVerdict) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::Campaign campaign(f, "east", wire_testbed(), wire_config());
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  // With splits bouncing between four hosts, repeat transfers hit warm
  // receivers and ship fingerprints instead of the problem block.
  EXPECT_GE(result.base_ref_transfers, 1u);
  EXPECT_GT(result.base_ref_bytes_saved, 0u);
  EXPECT_EQ(result.base_renegotiations, 0u);
}

TEST(CampaignWireTest, StaleResidencyRenegotiatesToFullShip) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(6);
  core::Campaign campaign(f, "east", wire_testbed(), wire_config());
  // Lie to the master: every host supposedly holds the base already. The
  // first ship goes out as a base-ref, hits a client with an empty
  // cache, and must degrade to a full ship via BASE_MISS — a stale cache
  // costs a round trip, never a wrong formula.
  for (std::size_t i = 0; i < campaign.num_hosts(); ++i) {
    campaign.debug_mark_base_resident(i);
  }
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_GE(result.base_renegotiations, 1u);
}

TEST(CampaignWireTest, IncrementalCheckpointRecoveryRestoresChain) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig config = wire_config();
  config.checkpoint = core::CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  core::Campaign campaign(f, "east", wire_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
  // The chain actually went incremental: full snapshots are rare, deltas
  // carry the cadence.
  EXPECT_GE(result.checkpoints_full, 1u);
  EXPECT_GE(result.checkpoints_delta, 1u);
  EXPECT_GT(result.checkpoints_delta, result.checkpoints_full);
}

TEST(SubproblemTrimTest, KeepsProblemBlockAndShortestLearned) {
  solver::Subproblem sp;
  sp.num_vars = 10;
  sp.clauses = {{Lit(1, false), Lit(2, false)},
                {Lit(3, false), Lit(4, false), Lit(5, false)},
                {Lit(1, false), Lit(2, true), Lit(3, true), Lit(4, true),
                 Lit(5, true)},
                {Lit(6, false)},
                {Lit(7, false), Lit(8, true)}};
  sp.num_problem_clauses = 2;
  const std::size_t full = sp.wire_size();
  // Cost model: one varint per literal plus bookkeeping of one byte per
  // clause or the header bound, whichever is larger. The headers are the
  // count varint (1) and a (len, run) header (2) per length run. Budget 8
  // fits the unit (1 + 2 header, 1 literal) and the binary (2 header,
  // 2 literals) but not the 5-literal clause (2 header, 5 literals).
  const std::size_t dropped = sp.trim_learned(8);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(sp.clauses.size(), 4u);
  // Problem block untouched, in order; kept learned sorted shortest-first.
  EXPECT_EQ(sp.clauses[0].size(), 2u);
  EXPECT_EQ(sp.clauses[1].size(), 3u);
  EXPECT_EQ(clause_at(sp.clauses, 2), (cnf::Clause{Lit(6, false)}));
  EXPECT_EQ(clause_at(sp.clauses, 3),
            (cnf::Clause{Lit(7, false), Lit(8, true)}));
  EXPECT_LT(sp.wire_size(), full);
  EXPECT_EQ(stream_bytes(sp.clauses, 2, sp.clauses.size()), 8u);
  // A roomy budget drops nothing further.
  EXPECT_EQ(sp.trim_learned(1u << 20), 0u);
}

// Property: the encoded learned block of a trimmed payload never exceeds
// the budget, whatever the clause lengths and literal codes.
TEST(SubproblemTrimTest, EncodedLearnedBlockFitsBudget) {
  util::Xoshiro256 rng(6061);
  for (int i = 0; i < 500; ++i) {
    solver::Subproblem sp = random_subproblem(rng);
    const std::size_t budget = 1 + rng.below(64);
    sp.trim_learned(budget);
    EXPECT_LE(stream_bytes(sp.clauses,
                           static_cast<std::size_t>(sp.num_problem_clauses),
                           sp.clauses.size()),
              budget)
        << "iteration " << i;
  }
}

TEST(CampaignWireTest, SplitBudgetBoundsShipsWithUnchangedVerdict) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig unlimited = wire_config();
  unlimited.split_learned_budget_bytes = 0;
  core::Campaign a(f, "east", wire_testbed(), unlimited);
  const core::GridSatResult ra = a.run();

  core::GridSatConfig bounded = wire_config();
  bounded.split_learned_budget_bytes = 512;
  core::Campaign b(f, "east", wire_testbed(), bounded);
  const core::GridSatResult rb = b.run();

  EXPECT_EQ(ra.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(rb.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(ra.ship_learned_trimmed, 0u);
  EXPECT_GT(rb.ship_learned_trimmed, 0u);
}

TEST(CampaignWireTest, IncrementalOffShipsOnlyFullCheckpoints) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig config = wire_config();
  config.checkpoint = core::CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  config.checkpoint_chain_max = 0;
  core::Campaign campaign(f, "east", wire_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(result.checkpoints_delta, 0u);
  EXPECT_GE(result.checkpoints_full, 1u);
}

}  // namespace
}  // namespace gridsat
