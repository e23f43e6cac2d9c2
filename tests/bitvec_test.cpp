#include "bitvec/bit_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace greenps {
namespace {

TEST(BitVector, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVector, SetAndTest) {
  BitVector v(130);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(129));
  EXPECT_FALSE(v.test(1));
  EXPECT_FALSE(v.test(128));
  EXPECT_EQ(v.count(), 4u);
}

TEST(BitVector, ResetClearsBit) {
  BitVector v(10);
  v.set(3);
  v.reset(3);
  EXPECT_FALSE(v.test(3));
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, TestOutOfRangeIsFalse) {
  BitVector v(10);
  EXPECT_FALSE(v.test(10));
  EXPECT_FALSE(v.test(1000));
}

TEST(BitVector, ShiftDownMovesBits) {
  BitVector v(200);
  v.set(5);
  v.set(70);
  v.set(199);
  v.shift_down(5);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(65));
  EXPECT_TRUE(v.test(194));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVector, ShiftDownDropsLowBits) {
  BitVector v(64);
  v.set(0);
  v.set(1);
  v.set(63);
  v.shift_down(2);
  EXPECT_EQ(v.count(), 1u);
  EXPECT_TRUE(v.test(61));
}

TEST(BitVector, ShiftDownByWholeSizeClears) {
  BitVector v(100);
  for (std::size_t i = 0; i < 100; i += 7) v.set(i);
  v.shift_down(100);
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, ShiftDownBeyondSizeClears) {
  BitVector v(100);
  v.set(99);
  v.shift_down(5000);
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, ShiftByZeroIsNoop) {
  BitVector v(65);
  v.set(64);
  v.shift_down(0);
  EXPECT_TRUE(v.test(64));
}

TEST(BitVector, WordAtReadsAcrossBoundaries) {
  BitVector v(128);
  v.set(63);
  v.set(64);
  EXPECT_EQ(v.word_at(63) & 0x3u, 0x3u);
  EXPECT_EQ(v.word_at(64) & 0x1u, 0x1u);
  EXPECT_EQ(v.word_at(120), 0u);  // zero-padded past the end
}

TEST(BitVector, AndCountAligned) {
  BitVector a(100), b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(99);
  b.set(2);
  EXPECT_EQ(BitVector::and_count(a, 0, b, 0, 100), 2u);
}

TEST(BitVector, AndCountWithOffsets) {
  BitVector a(100), b(100);
  // a bit i corresponds to b bit i+10.
  a.set(5);
  b.set(15);
  a.set(80);
  b.set(90);
  a.set(7);  // unmatched
  EXPECT_EQ(BitVector::and_count(a, 0, b, 10, 90), 2u);
}

TEST(BitVector, AndCountRespectsLength) {
  BitVector a(100), b(100);
  a.set(95);
  b.set(95);
  EXPECT_EQ(BitVector::and_count(a, 0, b, 0, 90), 0u);
  EXPECT_EQ(BitVector::and_count(a, 0, b, 0, 96), 1u);
}

TEST(BitVector, ContainsDetectsSubset) {
  BitVector sup(100), sub(100);
  sup.set(1);
  sup.set(2);
  sup.set(3);
  sub.set(2);
  EXPECT_TRUE(BitVector::contains(sup, 0, sub, 0, 100));
  sub.set(50);
  EXPECT_FALSE(BitVector::contains(sup, 0, sub, 0, 100));
}

TEST(BitVector, ContainsWithOffset) {
  BitVector sup(100), sub(100);
  sup.set(20);
  sub.set(10);
  EXPECT_TRUE(BitVector::contains(sup, 10, sub, 0, 90));
}

TEST(BitVector, CountRange) {
  BitVector v(256);
  v.set(0);
  v.set(100);
  v.set(255);
  EXPECT_EQ(v.count_range(0, 256), 3u);
  EXPECT_EQ(v.count_range(1, 254), 1u);
  EXPECT_EQ(v.count_range(100, 1), 1u);
  EXPECT_EQ(v.count_range(300, 10), 0u);
}

TEST(BitVector, OrWithMergesAlignedBits) {
  BitVector a(50), b(50);
  b.set(3);
  b.set(49);
  a.or_with(b, 0, 0, 50);
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(49));
}

TEST(BitVector, OrWithOffsetsMapsCoordinates) {
  BitVector a(50), b(50);
  b.set(10);
  a.or_with(b, /*this_offset=*/0, /*other_offset=*/10, 40);
  EXPECT_TRUE(a.test(0));
  EXPECT_EQ(a.count(), 1u);
}

// Property test: and_count agrees with a bit-by-bit oracle on random data.
TEST(BitVectorProperty, AndCountMatchesOracle) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t na = 1 + rng() % 300;
    const std::size_t nb = 1 + rng() % 300;
    BitVector a(na), b(nb);
    std::set<std::size_t> sa, sb;
    for (std::size_t i = 0; i < na / 3 + 1; ++i) {
      const std::size_t bit = rng() % na;
      a.set(bit);
      sa.insert(bit);
    }
    for (std::size_t i = 0; i < nb / 3 + 1; ++i) {
      const std::size_t bit = rng() % nb;
      b.set(bit);
      sb.insert(bit);
    }
    const std::size_t a_off = rng() % 50;
    const std::size_t b_off = rng() % 50;
    const std::size_t len = rng() % 400;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const bool in_a = sa.count(a_off + i) > 0 && a_off + i < na;
      const bool in_b = sb.count(b_off + i) > 0 && b_off + i < nb;
      if (in_a && in_b) ++expected;
    }
    EXPECT_EQ(BitVector::and_count(a, a_off, b, b_off, len), expected)
        << "trial " << trial;
  }
}

// Property test: or_with agrees with a bit-by-bit oracle on random data,
// including negative offsets and out-of-range spans.
TEST(BitVectorProperty, OrWithMatchesOracle) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t na = 1 + rng() % 300;
    const std::size_t nb = 1 + rng() % 300;
    BitVector a(na), b(nb);
    std::set<std::size_t> sa, sb;
    for (std::size_t i = 0; i < na / 2 + 1; ++i) {
      const std::size_t bit = rng() % na;
      a.set(bit);
      sa.insert(bit);
    }
    for (std::size_t i = 0; i < nb / 2 + 1; ++i) {
      const std::size_t bit = rng() % nb;
      b.set(bit);
      sb.insert(bit);
    }
    const auto t_off = static_cast<std::ptrdiff_t>(rng() % 100) - 50;
    const auto o_off = static_cast<std::ptrdiff_t>(rng() % 100) - 50;
    const std::size_t len = rng() % 400;
    a.or_with(b, t_off, o_off, len);
    for (std::size_t i = 0; i < na; ++i) {
      bool expected = sa.count(i) > 0;
      const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - t_off;
      if (k >= 0 && static_cast<std::size_t>(k) < len) {
        const std::ptrdiff_t src = o_off + k;
        if (src >= 0 && static_cast<std::size_t>(src) < nb && sb.count(static_cast<std::size_t>(src)) > 0) {
          expected = true;
        }
      }
      EXPECT_EQ(a.test(i), expected) << "trial " << trial << " bit " << i;
    }
  }
}

// A random BitVector and the same bits as a plain reference.
struct OracleBits {
  BitVector v;
  std::vector<bool> ref;

  [[nodiscard]] bool at(std::size_t i) const { return i < ref.size() && ref[i]; }
};

OracleBits random_bits(std::mt19937& rng, std::size_t n) {
  OracleBits b{BitVector(n), std::vector<bool>(n, false)};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 3 == 0) {
      b.v.set(i);
      b.ref[i] = true;
    }
  }
  return b;
}

// Lengths that end inside a word, on a word boundary and just past one;
// with the offsets below, the longer ones also run past either vector's end.
constexpr std::size_t kOracleLens[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 300};

// Property test: the offset range kernels agree with a bit-by-bit oracle for
// every bit-offset residue mod 64 on each operand.
TEST(BitVectorProperty, RangeKernelsMatchOracleAtEveryOffsetResidue) {
  std::mt19937 rng(64);
  for (std::size_t ra = 0; ra < 64; ++ra) {
    const OracleBits a = random_bits(rng, 150 + rng() % 200);
    const OracleBits b = random_bits(rng, 150 + rng() % 200);
    for (const std::size_t rb : {std::size_t{0}, ra, 63 - ra, std::size_t{rng() % 64}}) {
      for (const std::size_t len : kOracleLens) {
        const std::size_t a_off = ra + 64 * (rng() % 5);
        const std::size_t b_off = rb + 64 * (rng() % 5);
        std::size_t both = 0, in_a = 0;
        bool a_covers_b = true;
        for (std::size_t i = 0; i < len; ++i) {
          both += a.at(a_off + i) && b.at(b_off + i);
          in_a += a.at(a_off + i);
          if (b.at(b_off + i) && !a.at(a_off + i)) a_covers_b = false;
        }
        const auto where = ::testing::Message() << "a_off " << a_off << " b_off " << b_off
                                                << " len " << len << " sizes " << a.ref.size()
                                                << "/" << b.ref.size();
        EXPECT_EQ(BitVector::and_count(a.v, a_off, b.v, b_off, len), both) << where;
        EXPECT_EQ(a.v.count_range(a_off, len), in_a) << where;
        EXPECT_EQ(BitVector::contains(a.v, a_off, b.v, b_off, len), a_covers_b) << where;
        EXPECT_TRUE(BitVector::contains(a.v, a_off, a.v, a_off, len)) << where;
      }
    }
  }
}

// Property test: or_with sets exactly the oracle's bits and returns how many
// were newly set, for every target and source offset residue mod 64
// (negative offsets and spans past either end included).
TEST(BitVectorProperty, OrWithNewlySetCountMatchesOracleAtEveryOffsetResidue) {
  std::mt19937 rng(65);
  for (std::size_t rt = 0; rt < 64; ++rt) {
    for (const std::size_t ro : {std::size_t{0}, rt, 63 - rt, std::size_t{rng() % 64}}) {
      for (const std::size_t len : kOracleLens) {
        OracleBits t = random_bits(rng, 150 + rng() % 200);
        const OracleBits o = random_bits(rng, 150 + rng() % 200);
        const auto t_off = static_cast<std::ptrdiff_t>(rt + 64 * (rng() % 5)) - 64;
        const auto o_off = static_cast<std::ptrdiff_t>(ro + 64 * (rng() % 5)) - 64;
        std::size_t added = 0;
        std::vector<bool> expected = t.ref;
        for (std::size_t i = 0; i < len; ++i) {
          const std::ptrdiff_t ti = t_off + static_cast<std::ptrdiff_t>(i);
          const std::ptrdiff_t oi = o_off + static_cast<std::ptrdiff_t>(i);
          if (ti < 0 || oi < 0 || !o.at(static_cast<std::size_t>(oi))) continue;
          const auto target = static_cast<std::size_t>(ti);
          if (target < expected.size() && !expected[target]) {
            expected[target] = true;
            ++added;
          }
        }
        const auto where = ::testing::Message() << "t_off " << t_off << " o_off " << o_off
                                                << " len " << len;
        EXPECT_EQ(t.v.or_with(o.v, t_off, o_off, len), added) << where;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(t.v.test(i), expected[i]) << where << " bit " << i;
        }
        EXPECT_EQ(t.v.count(), static_cast<std::size_t>(
                                   std::count(expected.begin(), expected.end(), true)))
            << where;
      }
    }
  }
}

// Property test: shift_down(k) then test(i) == original test(i+k).
TEST(BitVectorProperty, ShiftDownMatchesOracle) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng() % 400;
    BitVector v(n);
    std::set<std::size_t> bits;
    for (std::size_t i = 0; i < n / 2; ++i) {
      const std::size_t bit = rng() % n;
      v.set(bit);
      bits.insert(bit);
    }
    const std::size_t k = rng() % (n + 10);
    const auto dropped = static_cast<std::size_t>(
        std::count_if(bits.begin(), bits.end(), [k](std::size_t b) { return b < k; }));
    EXPECT_EQ(v.shift_down(k), dropped) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      const bool expected = bits.count(i + k) > 0 && i + k < n;
      EXPECT_EQ(v.test(i), expected) << "trial " << trial << " bit " << i;
    }
  }
}

}  // namespace
}  // namespace greenps
