// Unit tests for the util module: RNG determinism and distribution
// sanity, serialization round trips, statistics, strings, flags.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace gridsat::util {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, RangeInclusive) {
  Xoshiro256 rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(7.0);
  EXPECT_NEAR(sum / kDraws, 7.0, 0.25);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Xoshiro256 parent(99);
  Xoshiro256 child = parent.fork();
  // The child must not replay the parent's stream.
  Xoshiro256 parent2(99);
  (void)parent2.fork();
  EXPECT_NE(child.next(), parent.next());
}

TEST(RngTest, ShuffleIsPermutationAndDeterministic) {
  std::vector<int> v1{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> v2 = v1;
  Xoshiro256 r1(4);
  Xoshiro256 r2(4);
  shuffle(v1, r1);
  shuffle(v2, r2);
  EXPECT_EQ(v1, v2);
  std::vector<int> sorted = v1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, VarintRoundTrip) {
  const std::vector<std::uint64_t> values{
      0, 1, 127, 128, 129, 16383, 16384, 1u << 20, 0xffffffffULL,
      0xffffffffffffffffULL};
  ByteWriter w;
  for (const auto v : values) w.var_u64(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.var_u64(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  const std::vector<std::int64_t> values{0,  1,  -1, 63, -64, 64,
                                         -65, 1000000, -1000000,
                                         INT64_MAX, INT64_MIN};
  ByteWriter w;
  for (const auto v : values) w.var_i64(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.var_i64(), v);
}

TEST(BytesTest, SmallVarintsAreCompact) {
  ByteWriter w;
  w.var_u64(5);
  EXPECT_EQ(w.size(), 1u);
  w.var_u64(300);
  EXPECT_EQ(w.size(), 3u);
}

TEST(BytesTest, StringRoundTrip) {
  // Written in a loop: straight-line calls on a fresh writer trip a false
  // -Wstringop-overflow in GCC 12 Release builds.
  const std::string strings[] = {"", "hello", std::string(1000, 'x')};
  ByteWriter w;
  for (const std::string& s : strings) w.str(s);
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(BytesTest, UnderrunThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(BytesTest, TruncatedVarintThrows) {
  const std::vector<std::uint8_t> bad{0x80, 0x80};
  ByteReader r(bad);
  EXPECT_THROW(r.var_u64(), DecodeError);
}

TEST(BytesTest, OverlongVarintThrows) {
  // 11 continuation bytes can encode more than 64 bits.
  const std::vector<std::uint8_t> bad(11, 0xff);
  ByteReader r(bad);
  EXPECT_THROW(r.var_u64(), DecodeError);
}

TEST(StatsTest, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(StatsTest, SlidingWindowEvicts) {
  SlidingWindow w(3);
  w.add(1);
  w.add(2);
  w.add(3);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.last(), 10.0);
  EXPECT_DOUBLE_EQ(w.median(), 3.0);
}

TEST(StatsTest, HistogramBuckets) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);
  h.add(100.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucket(i), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 12u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWs) {
  EXPECT_EQ(split_ws("  a  b\tc \n"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringsTest, ParseNumbers) {
  long long i = 0;
  EXPECT_TRUE(parse_i64("-123", i));
  EXPECT_EQ(i, -123);
  EXPECT_FALSE(parse_i64("12x", i));
  EXPECT_FALSE(parse_i64("", i));
  double d = 0;
  EXPECT_TRUE(parse_f64("3.5e2", d));
  EXPECT_DOUBLE_EQ(d, 350.0);
  EXPECT_FALSE(parse_f64("abc", d));
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(format_duration(30.0), "30.0 s");
  EXPECT_EQ(format_duration(600.0), "10.0 min");
  EXPECT_EQ(format_duration(7200.0), "2.0 h");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MB");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
}

TEST(FlagsTest, ParseAllKinds) {
  Flags flags;
  flags.define_i64("count", 1, "a count");
  flags.define_f64("ratio", 0.5, "a ratio");
  flags.define_str("name", "x", "a name");
  flags.define_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--count=7", "--ratio", "2.5",
                        "--name=abc", "--verbose", "positional"};
  ASSERT_TRUE(flags.parse(7, argv));
  EXPECT_EQ(flags.i64("count"), 7);
  EXPECT_DOUBLE_EQ(flags.f64("ratio"), 2.5);
  EXPECT_EQ(flags.str("name"), "abc");
  EXPECT_TRUE(flags.boolean("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, UnknownFlagFails) {
  Flags flags;
  flags.define_i64("count", 1, "a count");
  const char* argv[] = {"prog", "--nope=3"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, BadValueFails) {
  Flags flags;
  flags.define_i64("count", 1, "a count");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, DefaultsSurvive) {
  Flags flags;
  flags.define_i64("count", 42, "a count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.i64("count"), 42);
}

}  // namespace
}  // namespace gridsat::util
