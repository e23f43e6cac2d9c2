#include "bitvec/windowed_bit_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>

namespace greenps {
namespace {

TEST(WindowedBitVector, FirstRecordAnchorsWindow) {
  WindowedBitVector v(10);
  EXPECT_FALSE(v.anchored());
  EXPECT_TRUE(v.record(75));
  EXPECT_TRUE(v.anchored());
  EXPECT_EQ(v.first_id(), 75);
  EXPECT_TRUE(v.test_seq(75));
  EXPECT_EQ(v.count(), 1u);
}

TEST(WindowedBitVector, PaperFigure1Example) {
  // S1 received publications 75, 76, 77 from Adv1.
  WindowedBitVector v;
  v.record(75);
  v.record(76);
  v.record(77);
  EXPECT_EQ(v.count(), 3u);
  EXPECT_TRUE(v.test_seq(75));
  EXPECT_TRUE(v.test_seq(76));
  EXPECT_TRUE(v.test_seq(77));
  EXPECT_FALSE(v.test_seq(78));
}

TEST(WindowedBitVector, PaperShiftExample) {
  // "if the bit vector length is 10 while the counter representing the
  // first bit is 100, and an incoming publication has a publication ID of
  // 119, then shift the bit vector by 10 bits, set the bit at index 9, and
  // update the counter to 110."
  WindowedBitVector v(10);
  v.record(100);  // anchor at 100
  EXPECT_EQ(v.first_id(), 100);
  v.record(119);
  EXPECT_EQ(v.first_id(), 110);
  EXPECT_TRUE(v.test_seq(119));
  EXPECT_TRUE(v.bits().test(9));
  // The bit for 100 slid out of the window.
  EXPECT_FALSE(v.test_seq(100));
}

TEST(WindowedBitVector, ShiftPreservesRecentBits) {
  WindowedBitVector v(10);
  v.record(100);
  v.record(105);
  v.record(109);
  v.record(112);  // shifts by 3
  EXPECT_EQ(v.first_id(), 103);
  EXPECT_FALSE(v.test_seq(100));
  EXPECT_TRUE(v.test_seq(105));
  EXPECT_TRUE(v.test_seq(109));
  EXPECT_TRUE(v.test_seq(112));
  EXPECT_EQ(v.count(), 3u);
}

TEST(WindowedBitVector, StalePublicationRejected) {
  WindowedBitVector v(10);
  v.record(100);
  v.record(150);  // window now [141, 151)
  EXPECT_FALSE(v.record(120));
  EXPECT_EQ(v.count(), 1u);
}

TEST(WindowedBitVector, DuplicateRecordIdempotent) {
  WindowedBitVector v(10);
  v.record(5);
  v.record(5);
  EXPECT_EQ(v.count(), 1u);
}

TEST(WindowedBitVector, IntersectCountAlignsByMessageId) {
  WindowedBitVector a(20), b(20);
  a.record(100);
  a.record(105);
  a.record(110);
  b.record(105);
  b.record(110);
  b.record(115);
  EXPECT_EQ(WindowedBitVector::intersect_count(a, b), 2u);
  EXPECT_EQ(WindowedBitVector::union_count(a, b), 4u);
  EXPECT_EQ(WindowedBitVector::xor_count(a, b), 2u);
}

TEST(WindowedBitVector, IntersectCountDisjointWindows) {
  WindowedBitVector a(10), b(10);
  a.record(0);
  b.record(1000);
  EXPECT_EQ(WindowedBitVector::intersect_count(a, b), 0u);
  EXPECT_EQ(WindowedBitVector::union_count(a, b), 2u);
}

TEST(WindowedBitVector, CoversBasics) {
  WindowedBitVector sup(20), sub(20);
  sup.record(100);
  sup.record(101);
  sup.record(102);
  sub.record(101);
  EXPECT_TRUE(WindowedBitVector::covers(sup, sub));
  EXPECT_FALSE(WindowedBitVector::covers(sub, sup));
  sub.record(110);
  EXPECT_FALSE(WindowedBitVector::covers(sup, sub));
}

TEST(WindowedBitVector, CoversEmptySub) {
  WindowedBitVector sup(20), sub(20);
  sup.record(5);
  EXPECT_TRUE(WindowedBitVector::covers(sup, sub));
}

TEST(WindowedBitVector, CoversFailsWhenSubBitOutsideSupWindow) {
  WindowedBitVector sup(10), sub(100);
  sup.record(200);  // window [200, 210)
  sub.record(50);   // bit far before sup's window
  EXPECT_FALSE(WindowedBitVector::covers(sup, sub));
}

TEST(WindowedBitVector, MergeOrsByMessageId) {
  WindowedBitVector a(20), b(20);
  a.record(100);
  a.record(102);
  b.record(101);
  b.record(104);
  a.merge(b);
  EXPECT_TRUE(a.test_seq(100));
  EXPECT_TRUE(a.test_seq(101));
  EXPECT_TRUE(a.test_seq(102));
  EXPECT_TRUE(a.test_seq(104));
  EXPECT_EQ(a.count(), 4u);
}

TEST(WindowedBitVector, MergeIntoUnanchored) {
  WindowedBitVector a(20), b(20);
  b.record(77);
  a.merge(b);
  EXPECT_TRUE(a.anchored());
  EXPECT_TRUE(a.test_seq(77));
}

TEST(WindowedBitVector, MergeSlidesWindowForwardForNewerBits) {
  WindowedBitVector a(10), b(10);
  a.record(100);
  b.record(150);
  a.merge(b);
  EXPECT_TRUE(a.test_seq(150));
  EXPECT_FALSE(a.test_seq(100));  // slid out
}

TEST(WindowedBitVector, PaperFigure1Clustering) {
  // S1: Adv1 bits 75,76,77 (11100 at 75); S2: Adv1 bits 77,78,79 (00111).
  // Merged: 11111 at 75.
  WindowedBitVector s1(5), s2(5);
  for (MessageSeq i : {75, 76, 77}) s1.record(i);
  for (MessageSeq i : {77, 78, 79}) s2.record(i);
  s1.merge(s2);
  EXPECT_EQ(s1.count(), 5u);
  for (MessageSeq i = 75; i <= 79; ++i) EXPECT_TRUE(s1.test_seq(i)) << i;
}

// Property: merge computes exactly the set union of surviving message IDs.
TEST(WindowedBitVectorProperty, MergeMatchesSetUnionOracle) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cap = 16 + rng() % 64;
    WindowedBitVector a(cap), b(cap);
    std::set<MessageSeq> sa, sb;
    MessageSeq base = static_cast<MessageSeq>(rng() % 1000);
    for (int i = 0; i < 30; ++i) {
      const MessageSeq s = base + static_cast<MessageSeq>(rng() % (2 * cap));
      if (a.record(s)) {
        sa.insert(s);
      }
    }
    for (int i = 0; i < 30; ++i) {
      const MessageSeq s = base + static_cast<MessageSeq>(rng() % (2 * cap));
      if (b.record(s)) {
        sb.insert(s);
      }
    }
    // Drop IDs that slid out of their own windows.
    std::erase_if(sa, [&](MessageSeq s) { return !a.test_seq(s); });
    std::erase_if(sb, [&](MessageSeq s) { return !b.test_seq(s); });
    WindowedBitVector merged = a;
    merged.merge(b);
    // Every bit in the merged window must be in the union; every union
    // element still within the merged window must be present.
    std::set<MessageSeq> uni;
    uni.insert(sa.begin(), sa.end());
    uni.insert(sb.begin(), sb.end());
    for (MessageSeq s = merged.first_id(); s < merged.end_id(); ++s) {
      if (merged.test_seq(s)) {
        EXPECT_TRUE(uni.count(s)) << "trial " << trial;
      }
    }
    for (const MessageSeq s : uni) {
      if (s >= merged.first_id() && s < merged.end_id()) {
        EXPECT_TRUE(merged.test_seq(s)) << "trial " << trial << " seq " << s;
      }
    }
  }
}

// Property: the O(1) count() equals a fresh popcount of bits() after any
// sequence of records and merges, including slides of a whole window or
// more, merges into and out of unanchored windows, and disjoint windows.
TEST(WindowedBitVectorProperty, CountMatchesPopcountAfterRecordsAndMerges) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto cap = static_cast<MessageSeq>(1 + rng() % 200);
    const auto near = [&](MessageSeq at) {
      return at + static_cast<MessageSeq>(rng() % static_cast<std::uint32_t>(2 * cap)) - cap;
    };
    WindowedBitVector v(static_cast<std::size_t>(cap));
    MessageSeq head = static_cast<MessageSeq>(rng() % 1000) + 4 * cap;
    for (int step = 0; step < 60; ++step) {
      WindowedBitVector other(static_cast<std::size_t>(cap));
      switch (rng() % 6) {
        case 0:  // around the window: stale, duplicate or a short slide
          v.record(near(head));
          head += static_cast<MessageSeq>(rng() % 4);
          break;
        case 1:  // slide by at least the capacity
          head += cap + static_cast<MessageSeq>(rng() % static_cast<std::uint32_t>(3 * cap));
          v.record(head);
          break;
        case 2:  // overlapping window
          for (int i = 0; i < 8; ++i) other.record(near(head));
          v.merge(other);
          break;
        case 3:  // disjoint window, older or newer
          other.record(rng() % 2 == 0 ? head - 3 * cap : head + 3 * cap);
          other.record(other.first_id() + cap - 1);
          v.merge(other);
          head = std::max(head, other.end_id());
          break;
        case 4:  // unanchored on either side
          v.merge(other);
          other.merge(v);
          EXPECT_EQ(other.count(), other.bits().count()) << "trial " << trial;
          EXPECT_EQ(other.count(), v.count()) << "trial " << trial;
          break;
        default:  // restart from an unanchored window
          v = WindowedBitVector(static_cast<std::size_t>(cap));
          break;
      }
      ASSERT_EQ(v.count(), v.bits().count()) << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace greenps
