#include "alloc/cram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>

#include "alloc/bin_packing.hpp"
#include "alloc_test_util.hpp"

namespace greenps {
namespace {

using testutil::all_members;
using testutil::one_publisher;
using testutil::pool;
using testutil::range_profile;
using testutil::unit;

class CramMetricTest : public ::testing::TestWithParam<ClosenessMetric> {};

INSTANTIATE_TEST_SUITE_P(AllMetrics, CramMetricTest,
                         ::testing::Values(ClosenessMetric::kIntersect,
                                           ClosenessMetric::kXor, ClosenessMetric::kIos,
                                           ClosenessMetric::kIou),
                         [](const auto& info) { return metric_name(info.param); });

// Workload: 40 subscriptions in 4 interest groups of 10 identical profiles
// each; groups pairwise disjoint. One broker fits far more than one group's
// worth of bandwidth, so heavy clustering is possible.
std::vector<SubUnit> grouped_units(const PublisherTable& table) {
  std::vector<SubUnit> units;
  std::uint64_t id = 0;
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 10; ++i) {
      units.push_back(unit(id++, g * 25, g * 25 + 20, table));  // 20 kB/s each
    }
  }
  return units;
}

TEST_P(CramMetricTest, AllocatesEveryEndpointExactlyOnce) {
  const auto table = one_publisher();
  CramOptions opts;
  opts.metric = GetParam();
  const CramResult r = cram_allocate(pool(40, 100.0), grouped_units(table), table, opts);
  ASSERT_TRUE(r.allocation.success);
  auto members = all_members(r.allocation);
  EXPECT_EQ(members.size(), 40u);
  std::sort(members.begin(), members.end());
  EXPECT_EQ(std::adjacent_find(members.begin(), members.end()), members.end());
}

TEST_P(CramMetricTest, NeverWorseThanBinPacking) {
  const auto table = one_publisher();
  const auto units = grouped_units(table);
  const Allocation bp = bin_packing_allocate(pool(40, 100.0), units, table);
  CramOptions opts;
  opts.metric = GetParam();
  const CramResult r = cram_allocate(pool(40, 100.0), units, table, opts);
  ASSERT_TRUE(bp.success);
  ASSERT_TRUE(r.allocation.success);
  EXPECT_LE(r.allocation.brokers_used(), bp.brokers_used());
}

TEST_P(CramMetricTest, RespectsCapacityConstraints) {
  const auto table = one_publisher();
  CramOptions opts;
  opts.metric = GetParam();
  const CramResult r = cram_allocate(pool(40, 100.0), grouped_units(table), table, opts);
  ASSERT_TRUE(r.allocation.success);
  for (const BrokerLoad& b : r.allocation.brokers) {
    EXPECT_GT(b.remaining_bw(), 0.0);
    EXPECT_LE(b.in_rate(), b.broker().delay.max_matching_rate(b.filter_count()) + 1e-9);
  }
}

TEST(Cram, ClustersIdenticalSubscriptionsTogether) {
  // 10 identical 20 kB/s subscriptions, brokers of 100 kB/s: bin packing
  // needs 3 brokers (4+4+2 by bandwidth); CRAM clusters identical profiles,
  // and a cluster of k identical subs has input 20 msg/s instead of k*20.
  // Bandwidth still binds, so CRAM cannot beat 3 brokers, but the total
  // broker input rate must collapse to ~20/s per broker.
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 10; ++i) units.push_back(unit(i, 0, 20, table));
  const CramResult r = cram_allocate(pool(10, 100.0), units, table);
  ASSERT_TRUE(r.allocation.success);
  for (const BrokerLoad& b : r.allocation.brokers) {
    EXPECT_NEAR(b.in_rate(), 20.0, 1e-6);
  }
  // Everything became a handful of clusters.
  EXPECT_LT(r.allocation.unit_count(), 10u);
}

TEST(Cram, ReducesTotalInputRateVersusBinPacking) {
  // Overlapping interests scattered by bin packing produce redundant
  // streams; CRAM's clustering must strictly reduce the summed broker input
  // rate.
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  std::uint64_t id = 0;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 8; ++i) {
      // Within a group profiles nest with decreasing width, so FFD's
      // bandwidth ordering interleaves the groups across brokers (the
      // scatter CRAM is built to avoid).
      units.push_back(unit(id++, g * 30, g * 30 + 20 - i, table));
    }
  }
  const Allocation bp = bin_packing_allocate(pool(30, 90.0), units, table);
  const CramResult cram = cram_allocate(pool(30, 90.0), units, table);
  ASSERT_TRUE(bp.success);
  ASSERT_TRUE(cram.allocation.success);
  EXPECT_LT(cram.allocation.total_in_rate(), bp.total_in_rate());
}

TEST(Cram, FailsGracefullyWhenInitialAllocationImpossible) {
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 5; ++i) units.push_back(unit(i, 0, 90, table));
  const CramResult r = cram_allocate(pool(1, 100.0), units, table);
  EXPECT_FALSE(r.allocation.success);
}

TEST(Cram, GifGroupingCollapsesIdenticalProfiles) {
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 30; ++i) units.push_back(unit(i, 0, 10, table));
  for (std::uint64_t i = 30; i < 40; ++i) units.push_back(unit(i, 50, 60, table));
  CramOptions opts;
  const CramResult r = cram_allocate(pool(20, 200.0), units, table, opts);
  EXPECT_EQ(r.stats.initial_units, 40u);
  EXPECT_EQ(r.stats.gif_count, 2u);  // two distinct bit patterns
  ASSERT_TRUE(r.allocation.success);
}

TEST(Cram, PruningReducesClosenessComputations) {
  // Many mutually-disjoint groups: the poset walk prunes empty relations
  // under IOS but must visit everything under XOR.
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  std::uint64_t id = 0;
  for (int g = 0; g < 12; ++g) {
    for (int i = 0; i < 3; ++i) {
      units.push_back(unit(id++, g * 8, g * 8 + 4 + i, table));
    }
  }
  CramOptions ios;
  ios.metric = ClosenessMetric::kIos;
  CramOptions xo;
  xo.metric = ClosenessMetric::kXor;
  const CramResult rios = cram_allocate(pool(40, 500.0), units, table, ios);
  const CramResult rxor = cram_allocate(pool(40, 500.0), units, table, xo);
  ASSERT_TRUE(rios.allocation.success);
  ASSERT_TRUE(rxor.allocation.success);
  EXPECT_LT(rios.stats.closeness_computations, rxor.stats.closeness_computations);
}

TEST(Cram, OptionTogglesStillProduceValidAllocations) {
  const auto table = one_publisher();
  const auto units = grouped_units(table);
  for (const bool gif : {false, true}) {
    for (const bool prune : {false, true}) {
      for (const bool o2m : {false, true}) {
        CramOptions opts;
        opts.gif_grouping = gif;
        opts.poset_pruning = prune;
        opts.one_to_many = o2m;
        const CramResult r = cram_allocate(pool(40, 100.0), units, table, opts);
        ASSERT_TRUE(r.allocation.success)
            << "gif=" << gif << " prune=" << prune << " o2m=" << o2m;
        EXPECT_EQ(all_members(r.allocation).size(), 40u);
      }
    }
  }
}

TEST(Cram, OneToManyTriggersOnNestedProfiles) {
  // A big profile covering several small disjoint ones, plus an
  // intersecting sibling — the Figure 3 shape.
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  std::uint64_t id = 0;
  units.push_back(unit(id++, 0, 36, table));   // S1
  units.push_back(unit(id++, 28, 44, table));  // S2 (intersects S1)
  for (int k = 0; k < 3; ++k) {
    units.push_back(unit(id++, k * 4, k * 4 + 4, table));  // covered by S1
  }
  CramOptions opts;
  opts.metric = ClosenessMetric::kIos;
  const CramResult r = cram_allocate(pool(10, 200.0), units, table, opts);
  ASSERT_TRUE(r.allocation.success);
  EXPECT_GT(r.stats.one_to_many_applied, 0u);
}

TEST(Cram, StatsAreInternallyConsistent) {
  const auto table = one_publisher();
  const CramResult r = cram_allocate(pool(40, 100.0), grouped_units(table), table);
  ASSERT_TRUE(r.allocation.success);
  EXPECT_EQ(r.stats.initial_units, 40u);
  EXPECT_GE(r.stats.allocation_runs, 1u);
  EXPECT_GE(r.stats.iterations, r.stats.clusterings_applied);
  EXPECT_EQ(r.stats.final_units, r.allocation.unit_count());
  EXPECT_LE(r.stats.final_units, r.stats.initial_units);
  EXPECT_GT(r.stats.total_seconds, 0.0);
}

// Canonical rendering of an allocation: broker id -> sorted clusters, each a
// sorted member list. Two allocations with equal signatures place every
// endpoint identically.
std::string allocation_signature(const Allocation& a) {
  std::string sig;
  for (const BrokerLoad& b : a.brokers) {
    std::vector<std::string> clusters;
    for (const SubUnit& u : b.units()) {
      std::vector<std::uint64_t> m;
      for (const SubId id : u.members) m.push_back(id.value());
      std::sort(m.begin(), m.end());
      std::string c;
      for (const std::uint64_t v : m) c += std::to_string(v) + ",";
      clusters.push_back(c);
    }
    std::sort(clusters.begin(), clusters.end());
    sig += "B" + std::to_string(b.broker().id.value()) + "{";
    for (const std::string& c : clusters) sig += c + ";";
    sig += "}";
  }
  return sig;
}

// Mixed workload exercising every clustering path: identical groups (self
// cluster), nested profiles (cover + one-to-many) and overlapping siblings
// (pairwise merge).
std::vector<SubUnit> mixed_units(const PublisherTable& table) {
  std::vector<SubUnit> units = grouped_units(table);
  std::uint64_t id = 100;
  units.push_back(unit(id++, 0, 36, table));
  units.push_back(unit(id++, 28, 44, table));
  for (int k = 0; k < 3; ++k) units.push_back(unit(id++, k * 4, k * 4 + 4, table));
  return units;
}

// The tentpole invariant: the threaded pair search is bit-identical to the
// serial one — same allocation, same stats (timings aside) — because the
// searches read a snapshot and merge in a fixed order after the join.
TEST_P(CramMetricTest, ThreadCountDoesNotChangeTheResult) {
  const auto table = one_publisher();
  const auto units = mixed_units(table);
  CramOptions serial;
  serial.metric = GetParam();
  serial.threads = 1;
  CramOptions threaded = serial;
  threaded.threads = 4;
  const CramResult rs = cram_allocate(pool(40, 100.0), units, table, serial);
  const CramResult rt = cram_allocate(pool(40, 100.0), units, table, threaded);
  ASSERT_TRUE(rs.allocation.success);
  ASSERT_TRUE(rt.allocation.success);
  EXPECT_EQ(rs.stats.threads_used, 1u);
  EXPECT_EQ(rt.stats.threads_used, 4u);
  EXPECT_EQ(allocation_signature(rs.allocation), allocation_signature(rt.allocation));
  EXPECT_EQ(rs.stats.closeness_computations, rt.stats.closeness_computations);
  EXPECT_EQ(rs.stats.allocation_runs, rt.stats.allocation_runs);
  EXPECT_EQ(rs.stats.iterations, rt.stats.iterations);
  EXPECT_EQ(rs.stats.clusterings_applied, rt.stats.clusterings_applied);
  EXPECT_EQ(rs.stats.clusterings_rejected, rt.stats.clusterings_rejected);
  EXPECT_EQ(rs.stats.one_to_many_applied, rt.stats.one_to_many_applied);
  EXPECT_EQ(rs.stats.gif_count, rt.stats.gif_count);
  EXPECT_EQ(rs.stats.final_units, rt.stats.final_units);
}

// The tentpole invariant, extended over the overlay probe: the thread count
// (serial vs. speculative parallel k-search) changes only how the packing
// work is scheduled, never the result or the decision-path accounting.
TEST_P(CramMetricTest, CheckpointIntervalAndThreadCountDoNotChangeTheResult) {
  const auto table = one_publisher();
  const auto units = mixed_units(table);
  CramOptions ref_opts;
  ref_opts.metric = GetParam();
  ref_opts.threads = 1;
  const CramResult ref = cram_allocate(pool(40, 100.0), units, table, ref_opts);
  ASSERT_TRUE(ref.allocation.success);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CramOptions o = ref_opts;
    o.threads = threads;
    const CramResult r = cram_allocate(pool(40, 100.0), units, table, o);
    ASSERT_TRUE(r.allocation.success);
    EXPECT_EQ(r.stats.threads_used, threads);
    EXPECT_EQ(allocation_signature(r.allocation), allocation_signature(ref.allocation));
    EXPECT_EQ(r.stats.closeness_computations, ref.stats.closeness_computations);
    EXPECT_EQ(r.stats.allocation_runs, ref.stats.allocation_runs);
    EXPECT_EQ(r.stats.iterations, ref.stats.iterations);
    EXPECT_EQ(r.stats.clusterings_applied, ref.stats.clusterings_applied);
    EXPECT_EQ(r.stats.clusterings_rejected, ref.stats.clusterings_rejected);
    EXPECT_EQ(r.stats.one_to_many_applied, ref.stats.one_to_many_applied);
    EXPECT_EQ(r.stats.gif_count, ref.stats.gif_count);
    EXPECT_EQ(r.stats.final_units, ref.stats.final_units);
    EXPECT_EQ(r.stats.base_rebuilds, ref.stats.base_rebuilds);
    EXPECT_EQ(r.stats.probe_units_packed, ref.stats.probe_units_packed);
    if (threads == 1) {
      EXPECT_EQ(r.stats.speculative_probes, 0u);
    }
  }
}

TEST(Cram, DefaultThreadOptionResolvesToHardwareConcurrency) {
  const auto table = one_publisher();
  const CramResult r = cram_allocate(pool(40, 100.0), grouped_units(table), table);
  ASSERT_TRUE(r.allocation.success);
  EXPECT_GE(r.stats.threads_used, 1u);
}

// Regression: the blacklist key used to be (a << 32) ^ b, which discards
// the high bits of the smaller id. These two distinct pairs collided under
// that fold (both mapped to 1 << 32); the widened key keeps them apart.
TEST(Cram, PairKeyKeepsDistinctPairsDistinct) {
  const std::uint64_t big = std::uint64_t{1} << 32;
  const GifPairKey k1 = make_gif_pair_key(0, big);
  const GifPairKey k2 = make_gif_pair_key(2, 3 * big);
  EXPECT_FALSE(k1 == k2);
  // Unordered: (a,b) and (b,a) are the same pair.
  EXPECT_TRUE(k1 == make_gif_pair_key(big, 0));
  std::unordered_set<GifPairKey, GifPairKeyHash> blacklist;
  blacklist.insert(k1);
  EXPECT_TRUE(blacklist.contains(make_gif_pair_key(big, 0)));
  EXPECT_FALSE(blacklist.contains(k2));
}

TEST(Cram, MaxIterationsBoundsWork) {
  const auto table = one_publisher();
  CramOptions opts;
  opts.max_iterations = 1;
  const CramResult r = cram_allocate(pool(40, 100.0), grouped_units(table), table, opts);
  ASSERT_TRUE(r.allocation.success);
  EXPECT_LE(r.stats.iterations, 1u);
}

}  // namespace
}  // namespace greenps
