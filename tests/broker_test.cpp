#include "broker/broker.hpp"

#include <gtest/gtest.h>

#include "language/parser.hpp"

namespace greenps {
namespace {

Publication yhoo_pub() {
  Publication p(AdvId{1}, 10);
  p.set_attr("class", Value(std::string("STOCK")));
  p.set_attr("symbol", Value(std::string("YHOO")));
  p.set_attr("volume", Value(std::int64_t{5000}));
  return p;
}

TEST(SubscriptionRoutingTable, ForwardsToUniqueNeighbors) {
  SubscriptionRoutingTable srt;
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_broker(BrokerId{2}));
  srt.insert(SubId{2}, parse_filter("[class,=,'STOCK']"), Hop::to_broker(BrokerId{2}));
  srt.insert(SubId{3}, parse_filter("[symbol,=,'YHOO']"), Hop::to_broker(BrokerId{3}));
  srt.publish();
  const auto r = srt.match(yhoo_pub());
  // Two matching subs point at broker 2 -> one copy; broker 3 -> one copy.
  EXPECT_EQ(r.forward_to, (std::vector<BrokerId>{BrokerId{2}, BrokerId{3}}));
  EXPECT_TRUE(r.deliver.empty());
}

TEST(SubscriptionRoutingTable, DeliversToLocalClients) {
  SubscriptionRoutingTable srt;
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_client(ClientId{7}));
  srt.insert(SubId{2}, parse_filter("[symbol,=,'GOOG']"), Hop::to_client(ClientId{8}));
  srt.publish();
  const auto r = srt.match(yhoo_pub());
  ASSERT_EQ(r.deliver.size(), 1u);
  EXPECT_EQ(r.deliver[0].first, SubId{1});
  EXPECT_EQ(r.deliver[0].second, ClientId{7});
}

TEST(SubscriptionRoutingTable, ExcludesIncomingLink) {
  SubscriptionRoutingTable srt;
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_broker(BrokerId{2}));
  srt.publish();
  const BrokerId from{2};
  const auto r = srt.match(yhoo_pub(), &from);
  EXPECT_TRUE(r.forward_to.empty());
}

TEST(SubscriptionRoutingTable, InsertReplacesAndRemoveDeletes) {
  SubscriptionRoutingTable srt;
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_broker(BrokerId{2}));
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_broker(BrokerId{5}));
  EXPECT_EQ(srt.filter_count(), 1u);
  srt.publish();
  auto r = srt.match(yhoo_pub());
  EXPECT_EQ(r.forward_to, (std::vector<BrokerId>{BrokerId{5}}));
  srt.remove(SubId{1});
  EXPECT_EQ(srt.filter_count(), 0u);
  srt.publish();
  EXPECT_TRUE(srt.match(yhoo_pub()).forward_to.empty());
}

// Matching reads only the latest published snapshot: a table never
// published matches nothing, and a mutation after publish() stays invisible
// until the next publish().
TEST(SubscriptionRoutingTable, MatchSeesOnlyPublishedState) {
  SubscriptionRoutingTable srt;
  srt.insert(SubId{1}, parse_filter("[symbol,=,'YHOO']"), Hop::to_client(ClientId{7}));
  SubscriptionRoutingTable::MatchResult r;
  MatchScratch scratch;
  EXPECT_EQ(srt.match_into(yhoo_pub(), nullptr, r, scratch), 0u);
  EXPECT_TRUE(r.deliver.empty());
  EXPECT_EQ(srt.published_version(), 0u);

  srt.publish();
  const std::uint64_t v1 = srt.published_version();
  EXPECT_NE(v1, 0u);
  EXPECT_EQ(srt.match_into(yhoo_pub(), nullptr, r, scratch), v1);
  EXPECT_EQ(r.deliver.size(), 1u);

  srt.insert(SubId{2}, parse_filter("[class,=,'STOCK']"), Hop::to_broker(BrokerId{3}));
  srt.remove(SubId{1});
  EXPECT_EQ(srt.match_into(yhoo_pub(), nullptr, r, scratch), v1);
  EXPECT_EQ(r.deliver, (std::vector<std::pair<SubId, ClientId>>{{SubId{1}, ClientId{7}}}));
  EXPECT_TRUE(r.forward_to.empty());

  srt.publish();
  const std::uint64_t v2 = srt.published_version();
  EXPECT_GT(v2, v1);
  EXPECT_EQ(srt.match_into(yhoo_pub(), nullptr, r, scratch), v2);
  EXPECT_TRUE(r.deliver.empty());
  EXPECT_EQ(r.forward_to, (std::vector<BrokerId>{BrokerId{3}}));
}

TEST(BandwidthLimiter, SerializesTransmissions) {
  BandwidthLimiter link(100.0);  // 100 kB/s
  // 50 kB at t=0 -> done at 0.5 s.
  const SimTime t1 = link.transmit(0, 50.0);
  EXPECT_EQ(t1, seconds(0.5));
  // Second message queued behind the first.
  const SimTime t2 = link.transmit(seconds(0.1), 50.0);
  EXPECT_EQ(t2, seconds(1.0));
  // After the queue drains, transmission starts immediately.
  const SimTime t3 = link.transmit(seconds(2.0), 10.0);
  EXPECT_EQ(t3, seconds(2.1));
  EXPECT_EQ(link.busy_time(), seconds(1.1));
}

TEST(BandwidthLimiter, ResetClearsState) {
  BandwidthLimiter link(10.0);
  link.transmit(0, 100.0);
  link.reset();
  EXPECT_EQ(link.busy_until(), 0);
  EXPECT_EQ(link.busy_time(), 0);
}

TEST(FifoServer, QueuesJobs) {
  FifoServer cpu;
  EXPECT_EQ(cpu.serve(0, 100), 100);
  EXPECT_EQ(cpu.serve(50, 100), 200);
  EXPECT_EQ(cpu.serve(500, 10), 510);
  EXPECT_EQ(cpu.busy_time(), 210);
}

TEST(Broker, MatchingServiceTimeGrowsWithTableSize) {
  Broker b(BrokerId{1}, BrokerCapacity{1000.0, MatchingDelayFunction{10e-6, 1e-6}});
  const SimTime empty = b.matching_service_time();
  for (int i = 0; i < 100; ++i) {
    b.srt().insert(SubId{static_cast<std::uint64_t>(i)}, parse_filter("[symbol,=,'YHOO']"),
                   Hop::to_client(ClientId{static_cast<std::uint64_t>(i)}));
  }
  EXPECT_GT(b.matching_service_time(), empty);
}

TEST(Cbc, ProfilesDeliveriesAndPublishers) {
  CbcComponent cbc(64);
  cbc.register_subscription(SubId{1}, ClientId{1}, parse_filter("[symbol,=,'YHOO']"));
  cbc.register_publisher(ClientId{9}, AdvId{4});
  for (MessageSeq s = 0; s < 10; ++s) {
    cbc.record_publish(AdvId{4}, s, 0.5, seconds(static_cast<double>(s)));
    if (s % 2 == 0) cbc.record_delivery(SubId{1}, AdvId{4}, s);
  }
  const BrokerInfo info = cbc.snapshot(BrokerId{3}, MatchingDelayFunction{}, 500.0);
  EXPECT_EQ(info.id, BrokerId{3});
  EXPECT_EQ(info.total_out_bw, 500.0);
  ASSERT_EQ(info.subscriptions.size(), 1u);
  EXPECT_EQ(info.subscriptions[0].profile.cardinality(), 5u);
  ASSERT_EQ(info.publishers.size(), 1u);
  const PublisherProfile& p = info.publishers[0].profile;
  EXPECT_EQ(p.adv, AdvId{4});
  EXPECT_EQ(p.last_seq, 9);
  // 10 messages over 9 seconds, extrapolated to ~10/10s.
  EXPECT_NEAR(p.rate_msg_s, 1.0, 0.15);
  EXPECT_NEAR(p.bw_kb_s, 0.5, 0.1);
}

TEST(Cbc, FitsMatchingDelayFromSamples) {
  CbcComponent cbc;
  EXPECT_FALSE(cbc.fitted_delay().has_value());
  const MatchingDelayFunction truth{15e-6, 0.8e-6};
  // Samples at one filter count are not enough for a line.
  cbc.record_matching(100, seconds(truth.delay_s(100)));
  EXPECT_FALSE(cbc.fitted_delay().has_value());
  // A second count pins the line.
  cbc.record_matching(1000, seconds(truth.delay_s(1000)));
  const auto fitted = cbc.fitted_delay();
  ASSERT_TRUE(fitted.has_value());
  EXPECT_NEAR(fitted->base_s, truth.base_s, 2e-6);
  EXPECT_NEAR(fitted->per_sub_s, truth.per_sub_s, 1e-8);
  // The BIA snapshot prefers the measurement over the fallback.
  const BrokerInfo info = cbc.snapshot(BrokerId{1}, MatchingDelayFunction{1.0, 1.0}, 10.0);
  EXPECT_NEAR(info.delay.per_sub_s, truth.per_sub_s, 1e-8);
}

TEST(Cbc, DelayFitTracksExtremeFilterCounts) {
  CbcComponent cbc;
  const MatchingDelayFunction truth{10e-6, 1e-6};
  for (const std::size_t n : {500u, 200u, 900u, 100u, 1200u}) {
    for (int i = 0; i < 3; ++i) cbc.record_matching(n, seconds(truth.delay_s(n)));
  }
  const auto fitted = cbc.fitted_delay();
  ASSERT_TRUE(fitted.has_value());
  // Fit pinned by the extremes (100 and 1200).
  EXPECT_NEAR(fitted->delay_s(100), truth.delay_s(100), 2e-6);
  EXPECT_NEAR(fitted->delay_s(1200), truth.delay_s(1200), 2e-6);
}

TEST(Cbc, DeliveryForUnknownSubscriptionIgnored) {
  CbcComponent cbc;
  cbc.record_delivery(SubId{99}, AdvId{1}, 5);  // must not crash
  EXPECT_EQ(cbc.subscription_count(), 0u);
}

}  // namespace
}  // namespace greenps
