// Degenerate inputs and failure injection across the reconfiguration
// pipeline: empty workloads, silent subscriptions (no traffic recorded),
// publishers missing from the table, single-broker overlays.
#include <gtest/gtest.h>

#include "alloc/bin_packing.hpp"
#include "alloc/cram.hpp"
#include "alloc_test_util.hpp"
#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

using testutil::one_publisher;
using testutil::pool;
using testutil::unit;

TEST(EdgeCases, CramWithNoUnits) {
  const auto table = one_publisher();
  const CramResult r = cram_allocate(pool(3, 100.0), {}, table);
  EXPECT_TRUE(r.allocation.success);
  EXPECT_EQ(r.allocation.brokers_used(), 0u);
  EXPECT_EQ(r.stats.iterations, 0u);
}

TEST(EdgeCases, CramWithSilentSubscriptions) {
  // Subscriptions that never received anything: zero load, empty profiles.
  // They must all be allocated (somewhere) and never clustered with live
  // traffic under the prunable metrics.
  const auto table = one_publisher();
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 5; ++i) {
    units.push_back(make_subscription_unit(SubId{i}, SubscriptionProfile(100), table));
  }
  units.push_back(unit(10, 0, 50, table));
  const CramResult r = cram_allocate(pool(5, 100.0), units, table);
  ASSERT_TRUE(r.allocation.success);
  std::size_t endpoints = 0;
  for (const auto& b : r.allocation.brokers) {
    for (const auto& u : b.units()) {
      endpoints += u.members.size();
      if (u.members.size() > 1) {
        // A cluster containing a silent subscription may only pair silent
        // ones together (closeness with the live profile is zero).
        const bool mixes_live =
            u.profile.cardinality() > 0 && u.members.size() != 1;
        if (mixes_live) {
          // The only live subscription is SubId 10; ensure it is alone.
          for (const SubId m : u.members) EXPECT_NE(m, SubId{10});
        }
      }
    }
  }
  EXPECT_EQ(endpoints, 6u);
}

TEST(EdgeCases, UnitsForUnknownPublishersHaveZeroLoad) {
  PublisherTable empty;
  SubscriptionProfile p(100);
  for (MessageSeq s = 0; s < 50; ++s) p.record(AdvId{77}, s);
  const SubUnit u = make_subscription_unit(SubId{1}, std::move(p), empty);
  EXPECT_DOUBLE_EQ(u.in_rate, 0.0);
  EXPECT_DOUBLE_EQ(u.out_bw, 0.0);
  // Zero-load units always fit.
  const Allocation a = bin_packing_allocate(pool(1, 1.0), {u}, empty);
  EXPECT_TRUE(a.success);
}

TEST(EdgeCases, SingleBrokerScenarioReconfigures) {
  ScenarioConfig c;
  c.num_brokers = 1;
  c.num_publishers = 2;
  c.subs_per_publisher = 5;
  c.seed = 3;
  Simulation sim = make_simulation(c);
  sim.run(30.0);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.allocated_brokers, 1u);
  EXPECT_EQ(report.plan.root, BrokerId{0});
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(30.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
}

TEST(EdgeCases, ReconfigureBeforeAnyTraffic) {
  // CROC runs on a deployment whose profiles are empty (no publications
  // yet): every subscription has zero estimated load, so everything fits
  // one broker. The system must stay correct after applying such a plan.
  ScenarioConfig c;
  c.num_brokers = 8;
  c.num_publishers = 2;
  c.subs_per_publisher = 10;
  c.seed = 4;
  Simulation sim = make_simulation(c);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(30.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
}

TEST(EdgeCases, ScenarioWithZeroSubscriptions) {
  ScenarioConfig c;
  c.num_brokers = 4;
  c.num_publishers = 2;
  c.subs_per_publisher = 0;
  Simulation sim = make_simulation(c);
  sim.run(10.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
  EXPECT_EQ(sim.metrics().deliveries(), 0u);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  // Nothing to allocate: a valid (possibly single-broker) plan results.
  ASSERT_TRUE(report.success);
}

TEST(EdgeCases, OverloadedPoolFailsCleanly) {
  // Gathered info whose measured subscription loads exceed every broker's
  // capacity: Phase 2 must fail and the report must say so.
  GatheredInfo info;
  BrokerInfo broker;
  broker.id = BrokerId{0};
  broker.total_out_bw = 1.0;  // kB/s, hopeless
  const PublisherProfile pub{AdvId{0}, 100.0, 100.0, 100000};
  info.publisher_table[pub.adv] = pub;
  info.publishers.push_back(PublisherRecord{BrokerId{0}, ClientId{99}, pub});
  for (std::uint64_t i = 0; i < 5; ++i) {
    LocalSubscriptionInfo s;
    s.id = SubId{i};
    s.client = ClientId{i};
    s.profile = SubscriptionProfile(100);
    for (MessageSeq m = 0; m < 30; ++m) s.profile.record(pub.adv, m);  // 30 kB/s
    broker.subscriptions.push_back(s);
    info.subscriptions.push_back(SubscriptionRecord{BrokerId{0}, std::move(s)});
  }
  info.brokers.push_back(std::move(broker));
  Croc croc(CrocConfig{});
  const auto report = croc.plan_from_info(info);
  EXPECT_FALSE(report.success);
}

TEST(EdgeCases, SaturatedDeploymentMeasuresPoorlyButStaysUp) {
  // A deployment whose links cannot carry the offered load: deliveries lag,
  // profiles underfill, yet the system and a subsequent reconfiguration
  // remain functional (estimates are simply optimistic).
  ScenarioConfig c;
  c.num_brokers = 2;
  c.num_publishers = 4;
  c.subs_per_publisher = 50;
  c.full_out_bw_kb_s = 0.5;
  Simulation sim = make_simulation(c);
  sim.run(30.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  if (report.success) {
    ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
    ASSERT_TRUE(applied.success) << applied.detail;
    sim.redeploy(std::move(applied.deployment));
  }
  sim.run(10.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
}

TEST(EdgeCases, BinPackingZeroBandwidthBrokerNeverUsed) {
  const auto table = one_publisher();
  std::vector<AllocBroker> brokers = {
      {BrokerId{0}, 0.0, {20e-6, 0.5e-6}},
      {BrokerId{1}, 100.0, {20e-6, 0.5e-6}},
  };
  const Allocation a = bin_packing_allocate(brokers, {unit(1, 0, 10, table)}, table);
  ASSERT_TRUE(a.success);
  ASSERT_EQ(a.brokers_used(), 1u);
  EXPECT_EQ(a.brokers[0].broker().id, BrokerId{1});
}

}  // namespace
}  // namespace greenps
