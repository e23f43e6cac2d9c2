#include "profile/subscription_profile.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "profile/union_profile.hpp"

namespace greenps {
namespace {

constexpr AdvId kAdv1{1};
constexpr AdvId kAdv2{2};
constexpr AdvId kAdv3{3};

SubscriptionProfile profile_of(AdvId adv, std::initializer_list<MessageSeq> seqs,
                               std::size_t window = 64) {
  SubscriptionProfile p(window);
  for (const MessageSeq s : seqs) p.record(adv, s);
  return p;
}

TEST(SubscriptionProfile, RecordsPerPublisher) {
  SubscriptionProfile p(64);
  p.record(kAdv1, 75);
  p.record(kAdv1, 76);
  p.record(kAdv2, 144);
  EXPECT_EQ(p.vectors().size(), 2u);
  EXPECT_EQ(p.cardinality(), 3u);
}

TEST(SubscriptionProfile, PaperFigure1Merge) {
  // S1: Adv1 {75,76,77}, Adv2 {144..148}. S2: Adv1 {77,78,79}, Adv3 {146}.
  SubscriptionProfile s1(64), s2(64);
  for (MessageSeq m : {75, 76, 77}) s1.record(kAdv1, m);
  for (MessageSeq m : {144, 145, 146, 147, 148}) s1.record(kAdv2, m);
  for (MessageSeq m : {77, 78, 79}) s2.record(kAdv1, m);
  s2.record(kAdv3, 146);

  SubscriptionProfile merged = s1;
  merged.merge(s2);
  EXPECT_EQ(merged.vectors().size(), 3u);
  EXPECT_EQ(merged.cardinality(), 5u + 5u + 1u);  // Adv1 75..79, Adv2 5 bits, Adv3 1 bit
  EXPECT_TRUE(SubscriptionProfile::covers(merged, s1));
  EXPECT_TRUE(SubscriptionProfile::covers(merged, s2));
}

TEST(SubscriptionProfile, IntersectAcrossPublishers) {
  SubscriptionProfile a(64), b(64);
  a.record(kAdv1, 10);
  a.record(kAdv2, 20);
  b.record(kAdv1, 10);
  b.record(kAdv2, 21);
  b.record(kAdv3, 5);
  EXPECT_EQ(SubscriptionProfile::intersect_count(a, b), 1u);
  EXPECT_EQ(SubscriptionProfile::union_count(a, b), 4u);
  EXPECT_EQ(SubscriptionProfile::xor_count(a, b), 3u);
}

TEST(SubscriptionProfile, RelationClassification) {
  const auto base = profile_of(kAdv1, {1, 2, 3, 4});
  const auto equal = profile_of(kAdv1, {1, 2, 3, 4});
  const auto subset = profile_of(kAdv1, {2, 3});
  const auto overlap = profile_of(kAdv1, {3, 4, 5});
  const auto disjoint = profile_of(kAdv1, {10, 11});
  const auto other_pub = profile_of(kAdv2, {1, 2});

  EXPECT_EQ(SubscriptionProfile::relation(base, equal), Relation::kEqual);
  EXPECT_EQ(SubscriptionProfile::relation(base, subset), Relation::kSuperset);
  EXPECT_EQ(SubscriptionProfile::relation(subset, base), Relation::kSubset);
  EXPECT_EQ(SubscriptionProfile::relation(base, overlap), Relation::kIntersect);
  EXPECT_EQ(SubscriptionProfile::relation(base, disjoint), Relation::kEmpty);
  EXPECT_EQ(SubscriptionProfile::relation(base, other_pub), Relation::kEmpty);
}

TEST(SubscriptionProfile, MultiPublisherRelation) {
  // Superset must cover on *every* publisher.
  SubscriptionProfile sup(64), sub(64);
  sup.record(kAdv1, 1);
  sup.record(kAdv1, 2);
  sup.record(kAdv2, 1);
  sub.record(kAdv1, 1);
  sub.record(kAdv2, 1);
  EXPECT_EQ(SubscriptionProfile::relation(sup, sub), Relation::kSuperset);
  sub.record(kAdv3, 1);
  EXPECT_EQ(SubscriptionProfile::relation(sup, sub), Relation::kIntersect);
}

TEST(SubscriptionProfile, SameBitsIgnoresWindowAnchor) {
  // Two windows anchored differently but holding the same set bits.
  SubscriptionProfile a(16), b(32);
  for (MessageSeq s : {100, 101, 110}) a.record(kAdv1, s);  // anchor 100
  b.record(kAdv1, 70);   // anchor 70; slides out below
  b.record(kAdv1, 110);  // slides window to [79, 111), dropping 70
  b.record(kAdv1, 100);
  b.record(kAdv1, 101);
  ASSERT_EQ(a.cardinality(), 3u);
  ASSERT_EQ(b.cardinality(), 3u);
  EXPECT_TRUE(SubscriptionProfile::same_bits(a, b));
  EXPECT_EQ(a.bit_hash(), b.bit_hash());
}

TEST(SubscriptionProfile, BitHashDiffersForDifferentSets) {
  const auto a = profile_of(kAdv1, {1, 2, 3});
  const auto b = profile_of(kAdv1, {1, 2, 4});
  const auto c = profile_of(kAdv2, {1, 2, 3});
  EXPECT_NE(a.bit_hash(), b.bit_hash());
  EXPECT_NE(a.bit_hash(), c.bit_hash());
}

TEST(SubscriptionProfile, LoadEstimationPaperExample) {
  // "a subscription with 10 out of 100 bits set in a bit vector
  //  corresponding to a publisher whose publication rate is 50 msg/s and
  //  bandwidth is 50 kB/s [induces] 5 msg/s and ... 5 kB/s."
  SubscriptionProfile p(128);
  for (MessageSeq s = 0; s < 100; s += 10) p.record(kAdv1, s);  // 10 bits over 0..99
  PublisherTable table;
  table[kAdv1] = PublisherProfile{kAdv1, 50.0, 50.0, /*last_seq=*/99};
  EXPECT_NEAR(p.induced_rate(table), 5.0, 1e-9);
  EXPECT_NEAR(p.induced_bandwidth(table), 5.0, 1e-9);
}

TEST(SubscriptionProfile, LoadEstimationSumsPublishers) {
  SubscriptionProfile p(64);
  for (MessageSeq s = 0; s < 10; ++s) p.record(kAdv1, s);  // all of 10
  for (MessageSeq s = 0; s < 10; s += 2) p.record(kAdv2, s);  // 5 of 10
  PublisherTable table;
  table[kAdv1] = PublisherProfile{kAdv1, 10.0, 20.0, 9};
  table[kAdv2] = PublisherProfile{kAdv2, 10.0, 20.0, 9};
  EXPECT_NEAR(p.induced_rate(table), 10.0 + 5.0, 1e-9);
  EXPECT_NEAR(p.induced_bandwidth(table), 20.0 + 10.0, 1e-9);
}

TEST(SubscriptionProfile, UnknownPublisherContributesNothing) {
  const auto p = profile_of(kAdv3, {1, 2, 3});
  PublisherTable table;
  table[kAdv1] = PublisherProfile{kAdv1, 10.0, 10.0, 100};
  EXPECT_DOUBLE_EQ(p.induced_rate(table), 0.0);
}

TEST(SubscriptionProfile, MergedProfileInputCountsSharedTrafficOnce) {
  // Two subscriptions sharing most publications: the OR'd profile's induced
  // rate is far below the sum of the parts — the core of why clustering
  // reduces broker load.
  SubscriptionProfile a(64), b(64);
  for (MessageSeq s = 0; s < 20; ++s) {
    a.record(kAdv1, s);
    b.record(kAdv1, s);
  }
  b.record(kAdv1, 21);
  PublisherTable table;
  table[kAdv1] = PublisherProfile{kAdv1, 100.0, 100.0, 21};
  SubscriptionProfile merged = a;
  merged.merge(b);
  const double sum = a.induced_rate(table) + b.induced_rate(table);
  EXPECT_LT(merged.induced_rate(table), 0.6 * sum);
}

// Property: the fused pairwise_counts kernel agrees with the naive
// per-operation set algebra on randomized profiles — disjoint, nested and
// overlapping publisher sets, sliding windows included.
TEST(SubscriptionProfile, PairwiseCountsMatchNaiveSetAlgebra) {
  Rng rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    SubscriptionProfile a(128), b(128);
    for (int i = 0; i < 80; ++i) {
      const AdvId adv{static_cast<std::uint64_t>(rng.index(5))};
      const auto seq = static_cast<MessageSeq>(rng.uniform_int(0, 300));
      if (rng.chance(0.6)) a.record(adv, seq);
      if (rng.chance(0.6)) b.record(adv, seq + static_cast<MessageSeq>(rng.index(4)));
    }
    const auto pc = SubscriptionProfile::pairwise_counts(a, b);
    EXPECT_EQ(pc.intersect, SubscriptionProfile::intersect_count(a, b)) << "trial " << trial;
    EXPECT_EQ(pc.union_, SubscriptionProfile::union_count(a, b)) << "trial " << trial;
    EXPECT_EQ(pc.xor_, SubscriptionProfile::xor_count(a, b)) << "trial " << trial;
    EXPECT_EQ(pc.card_a, a.cardinality()) << "trial " << trial;
    EXPECT_EQ(pc.card_b, b.cardinality()) << "trial " << trial;
    // And the derived relations stay consistent with the counts.
    EXPECT_EQ(SubscriptionProfile::covers(a, b), pc.intersect == pc.card_b);
    EXPECT_EQ(SubscriptionProfile::same_bits(a, b),
              pc.intersect == pc.card_a && pc.intersect == pc.card_b);
  }
}

// Property: the flat union is bit-identical to the map-backed kernels it
// replaces in the allocation probe. Both rate walks return
// SubscriptionProfile::intersection_rate against the pre-merge union, and
// every union window (set bits, anchor and count) equals the one
// SubscriptionProfile::merge builds, over sliding windows and a publisher
// missing from the table.
TEST(UnionProfile, MatchesMapProfileKernels) {
  Rng rng(7);
  PublisherTable table;
  for (std::uint64_t adv = 0; adv < 5; ++adv) {  // adv 5 stays unknown
    table[AdvId{adv}] = PublisherProfile{AdvId{adv}, 1.0 + static_cast<double>(adv), 10.0,
                                         static_cast<MessageSeq>(300 + 40 * adv)};
  }
  for (int trial = 0; trial < 40; ++trial) {
    UnionProfile flat;
    SubscriptionProfile map(128);
    for (int unit = 0; unit < 12; ++unit) {
      SubscriptionProfile p(128);
      const MessageSeq base = rng.uniform_int(0, 300);
      for (int i = 0; i < 40; ++i) {
        p.record(AdvId{static_cast<std::uint64_t>(rng.index(6))}, base + rng.uniform_int(0, 200));
      }
      const MsgRate expected = SubscriptionProfile::intersection_rate(map, p, table);
      EXPECT_EQ(flat.intersection_rate(p), expected) << "trial " << trial;
      if (rng.chance(0.5)) {
        EXPECT_EQ(flat.merge_with_rate(p, table), expected) << "trial " << trial;
      } else {
        flat.merge(p, table);
      }
      map.merge(p);
      ASSERT_EQ(flat.entries().size(), map.vectors().size());
      for (const UnionProfile::Entry& e : flat.entries()) {
        const WindowedBitVector* v = map.vector_for(e.adv);
        ASSERT_NE(v, nullptr);
        EXPECT_TRUE(e.bits == *v) << "trial " << trial << " adv " << e.adv.value();
        EXPECT_EQ(e.bits.count(), e.bits.bits().count());
      }
    }
  }
}

TEST(SubscriptionProfile, RelationPerformsExactlyOneProfileWalk) {
  const auto a = profile_of(kAdv1, {1, 2, 3});
  const auto b = profile_of(kAdv1, {2, 3, 4});
  SubscriptionProfile::reset_pairwise_walks();
  (void)SubscriptionProfile::relation(a, b);
  EXPECT_EQ(SubscriptionProfile::pairwise_walks(), 1u);
}

}  // namespace
}  // namespace greenps
