#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "alloc/cram.hpp"
#include "common/epoch.hpp"
#include "language/parser.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss_oracle.hpp"
#include "sim/shard_partitioner.hpp"

namespace greenps {
namespace {

// Chain of `n` brokers: 0 - 1 - ... - n-1, one publisher of symbol SYM at
// broker `pub_home`, subscribers as given.
struct TestNet {
  Deployment dep;
  std::uint64_t next_client = 0;
  std::uint64_t next_sub = 0;

  explicit TestNet(std::size_t n, Bandwidth out_bw = 1.0e5) {
    for (std::uint64_t i = 0; i < n; ++i) {
      dep.topology.add_broker(BrokerId{i});
      if (i > 0) dep.topology.add_link(BrokerId{i - 1}, BrokerId{i});
      dep.capacities.emplace(BrokerId{i},
                             BrokerCapacity{out_bw, MatchingDelayFunction{10e-6, 0.5e-6}});
    }
  }

  void add_publisher(const std::string& symbol, std::uint64_t home, MsgRate rate = 10.0) {
    PublisherSpec p;
    p.client = ClientId{next_client++};
    p.adv = AdvId{dep.publishers.size()};
    p.symbol = symbol;
    p.rate_msg_s = rate;
    p.home = BrokerId{home};
    p.adv_filter = parse_filter("[class,=,'STOCK'],[symbol,=,'" + symbol + "']");
    dep.publishers.push_back(std::move(p));
  }

  SubId add_subscriber(const std::string& filter, std::uint64_t home) {
    SubscriberSpec s;
    s.client = ClientId{next_client++};
    s.sub = SubId{next_sub++};
    s.filter = parse_filter(filter);
    s.home = BrokerId{home};
    dep.subscribers.push_back(s);
    return s.sub;
  }

  Simulation make(SimOptions opts = {}) {
    return Simulation(std::move(dep),
                      StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)),
                      NetworkConfig{}, opts);
  }
};

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(2); });
  q.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&] {
    ++fired;
    q.schedule(q.now() + 1, [&] { ++fired; });
  });
  q.run_until(10);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(5, [&] { ++fired; });
  q.schedule(50, [&] { ++fired; });
  EXPECT_EQ(q.run_until(10), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.empty());
}

TEST(Simulation, DeliversAllMatchingPublications) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'YHOO']", 2);  // matches everything
  Simulation sim = net.make();
  sim.run(10.0);
  const auto& m = sim.metrics();
  EXPECT_NEAR(static_cast<double>(m.publications()), 100.0, 2.0);
  // Every publication reaches the subscriber (a few may be in flight at the
  // horizon).
  EXPECT_GE(m.deliveries() + 3, m.publications());
  EXPECT_LE(m.deliveries(), m.publications());
}

TEST(Simulation, NoFalsePositiveDeliveries) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'GOOG']", 2);  // matches nothing
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
  EXPECT_EQ(sim.metrics().deliveries(), 0u);
}

TEST(Simulation, SelectiveFilterDeliversFraction) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'YHOO'],[volume,>,1000000]", 1);
  Simulation sim = net.make();
  sim.run(30.0);
  const auto& m = sim.metrics();
  // volume is uniform on [1e3, 2e6]: roughly half the quotes match.
  const double frac = static_cast<double>(m.deliveries()) /
                      static_cast<double>(m.publications());
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.7);
}

TEST(Simulation, HopCountMatchesTopologyDistance) {
  TestNet net(4);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 3);  // 4 brokers on the path
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().avg_hops(), 4.0);
  EXPECT_GT(sim.metrics().avg_delay_ms(), 0.0);
}

TEST(Simulation, PureForwarderProcessesButDeliversNothing) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 2);
  Simulation sim = net.make();
  sim.run(5.0);
  const auto& traffic = sim.metrics().traffic();
  const auto mid = traffic.find(BrokerId{1});
  ASSERT_NE(mid, traffic.end());
  EXPECT_GT(mid->second.msgs_in, 0u);
  EXPECT_GT(mid->second.msgs_out, 0u);
  EXPECT_EQ(mid->second.local_deliveries, 0u);
  const SimSummary s = sim.summarize();
  EXPECT_EQ(s.pure_forwarding_brokers, 1u);
}

TEST(Simulation, PublicationsStopAtUnmatchedBranches) {
  // Star: pub at center 0; subscriber for YHOO at 1; broker 2 must see no
  // traffic (filter-based routing, not flooding).
  TestNet net(1);
  net.dep.topology.add_link(BrokerId{0}, BrokerId{1});
  net.dep.topology.add_link(BrokerId{0}, BrokerId{2});
  for (std::uint64_t i = 1; i <= 2; ++i) {
    net.dep.capacities.emplace(BrokerId{i},
                               BrokerCapacity{1.0e5, MatchingDelayFunction{10e-6, 0.5e-6}});
  }
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_FALSE(sim.metrics().traffic().contains(BrokerId{2}));
}

TEST(Simulation, CbcProfilesFillDuringRun) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  const SubId sub = net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(10.0);
  const BrokerInfo info = sim.broker_info(BrokerId{1});
  ASSERT_EQ(info.subscriptions.size(), 1u);
  EXPECT_EQ(info.subscriptions[0].id, sub);
  EXPECT_GT(info.subscriptions[0].profile.cardinality(), 50u);
  const BrokerInfo pub_info = sim.broker_info(BrokerId{0});
  ASSERT_EQ(pub_info.publishers.size(), 1u);
  EXPECT_NEAR(pub_info.publishers[0].profile.rate_msg_s, 10.0, 1.5);
}

TEST(Simulation, RedeployKeepsSequenceNumbers) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(5.0);
  const auto pubs_before = sim.metrics().publications();
  EXPECT_GT(pubs_before, 0u);

  // Rebuild the same deployment with swapped homes.
  Deployment next = sim.deployment();
  next.publishers[0].home = BrokerId{1};
  next.subscribers[0].home = BrokerId{0};
  sim.redeploy(std::move(next));
  EXPECT_EQ(sim.metrics().publications(), 0u);  // metrics reset
  sim.run(5.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
  // Sequence numbers continued: the subscriber's new profile window anchors
  // past the pre-reconfiguration sequence range.
  const BrokerInfo info = sim.broker_info(BrokerId{0});
  ASSERT_EQ(info.subscriptions.size(), 1u);
  const auto* v = info.subscriptions[0].profile.vector_for(AdvId{0});
  ASSERT_NE(v, nullptr);
  EXPECT_GE(v->first_id(), static_cast<MessageSeq>(pubs_before) - 1);
}

// A routing table's last published snapshot is retired, not freed, when the
// table dies; destroying the simulation must reclaim them at once instead of
// leaving them allocated until some later publish.
TEST(Simulation, DestructionFreesRetiredRoutingSnapshots) {
  {
    TestNet net(3);
    net.add_publisher("YHOO", 0);
    net.add_subscriber("[symbol,=,'YHOO']", 2);
    Simulation sim = net.make();
    sim.run(1.0);
  }
  EXPECT_EQ(EpochDomain::global().retired_pending(), 0u);
}

TEST(Simulation, SummaryRatesAreConsistent) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 2);
  Simulation sim = net.make();
  sim.run(10.0);
  const SimSummary s = sim.summarize();
  EXPECT_EQ(s.allocated_brokers, 3u);
  EXPECT_GT(s.system_msg_rate, 0.0);
  EXPECT_NEAR(s.avg_broker_msg_rate * 3.0, s.system_msg_rate, 1e-9);
  EXPECT_GT(s.avg_output_utilization, 0.0);
  EXPECT_LT(s.avg_output_utilization, 1.0);
}

TEST(EventQueue, KeyedTiesOrderByKey) {
  EventQueue q;
  std::vector<int> order;
  // Legacy insertion-keyed events carry the highest class, so they fire
  // after every content-keyed event at the same timestamp.
  q.schedule(10, [&] { order.push_back(9); });
  q.schedule_keyed(10, EventKey{(2ull << 56) | 3, 5}, [&] { order.push_back(3); });
  q.schedule_keyed(10, EventKey{(1ull << 56) | 7, 0}, [&] { order.push_back(1); });
  q.schedule_keyed(10, EventKey{(2ull << 56) | 3, 1}, [&] { order.push_back(2); });
  q.schedule_keyed(5, EventKey{(2ull << 56) | 9, 0}, [&] { order.push_back(0); });
  q.run_until(10);
  // Time first, then (hi, lo) — regardless of insertion order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
}

TEST(ShardPartitioner, PathGraphCutsAreMinimal) {
  Topology t;
  for (std::uint64_t i = 0; i < 16; ++i) {
    t.add_broker(BrokerId{i});
    if (i > 0) t.add_link(BrokerId{i - 1}, BrokerId{i});
  }
  const ShardPlan plan = partition_brokers(t, {}, 4);
  ASSERT_EQ(plan.shards.size(), 4u);
  // A path cut into 4 contiguous blocks has exactly 3 cross links (optimal),
  // and uniform weights split 16 brokers evenly.
  EXPECT_EQ(plan.cross_links, 3u);
  std::size_t total = 0;
  for (const auto& shard : plan.shards) {
    EXPECT_EQ(shard.size(), 4u);
    total += shard.size();
  }
  EXPECT_EQ(total, 16u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_LT(plan.shard_of(BrokerId{i}), 4u);
  }
}

TEST(ShardPartitioner, BalancesByClientWeight) {
  Topology t;
  for (std::uint64_t i = 0; i < 8; ++i) {
    t.add_broker(BrokerId{i});
    if (i > 0) t.add_link(BrokerId{i - 1}, BrokerId{i});
  }
  // Broker 0 hosts 6 clients (weight 7); the other seven weigh 1 each.
  // Total weight 14, two shards, target 7: the heavy broker fills shard 0
  // alone instead of dragging half the chain with it.
  const ShardPlan plan = partition_brokers(t, {{BrokerId{0}, 6}}, 2);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0], (std::vector<BrokerId>{BrokerId{0}}));
  EXPECT_EQ(plan.shards[1].size(), 7u);
  EXPECT_EQ(plan.cross_links, 1u);
}

TEST(ShardPartitioner, ClampsAndStaysDeterministic) {
  Topology t;
  for (std::uint64_t i = 0; i < 3; ++i) {
    t.add_broker(BrokerId{i});
    if (i > 0) t.add_link(BrokerId{i - 1}, BrokerId{i});
  }
  const ShardPlan a = partition_brokers(t, {}, 8);  // clamped to broker count
  ASSERT_EQ(a.shards.size(), 3u);
  for (const auto& shard : a.shards) EXPECT_EQ(shard.size(), 1u);
  const ShardPlan b = partition_brokers(t, {}, 8);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.cross_links, b.cross_links);
}

// --- sharded-simulator determinism matrix -------------------------------
//
// The contract under test: SimSummary (and every counter feeding it) is
// bit-identical — exact double equality, no tolerance — for any worker
// count, with and without an armed fault schedule.

struct RunArtifacts {
  SimSummary summary;
  FaultStats faults;
  std::unordered_map<BrokerId, BrokerTraffic> traffic;
  std::size_t events = 0;
  std::size_t shards = 0;
  std::size_t ledger_rows = 0;
};

void expect_identical(const RunArtifacts& base, const RunArtifacts& got) {
  const SimSummary& a = base.summary;
  const SimSummary& b = got.summary;
  EXPECT_EQ(b.duration_s, a.duration_s);
  EXPECT_EQ(b.brokers_with_traffic, a.brokers_with_traffic);
  EXPECT_EQ(b.allocated_brokers, a.allocated_brokers);
  EXPECT_EQ(b.publications, a.publications);
  EXPECT_EQ(b.deliveries, a.deliveries);
  EXPECT_EQ(b.broker_msgs_total, a.broker_msgs_total);
  EXPECT_EQ(b.avg_broker_msg_rate, a.avg_broker_msg_rate);
  EXPECT_EQ(b.system_msg_rate, a.system_msg_rate);
  EXPECT_EQ(b.avg_hop_count, a.avg_hop_count);
  EXPECT_EQ(b.avg_delivery_delay_ms, a.avg_delivery_delay_ms);
  EXPECT_EQ(b.p50_delivery_delay_ms, a.p50_delivery_delay_ms);
  EXPECT_EQ(b.p99_delivery_delay_ms, a.p99_delivery_delay_ms);
  EXPECT_EQ(b.avg_output_utilization, a.avg_output_utilization);
  EXPECT_EQ(b.pure_forwarding_brokers, a.pure_forwarding_brokers);
  EXPECT_EQ(b.retransmit_overflow, a.retransmit_overflow);

  const FaultStats& fa = base.faults;
  const FaultStats& fb = got.faults;
  EXPECT_EQ(fb.crashes, fa.crashes);
  EXPECT_EQ(fb.restarts, fa.restarts);
  EXPECT_EQ(fb.link_downs, fa.link_downs);
  EXPECT_EQ(fb.link_ups, fa.link_ups);
  EXPECT_EQ(fb.pubs_dropped_at_source, fa.pubs_dropped_at_source);
  EXPECT_EQ(fb.arrivals_dropped, fa.arrivals_dropped);
  EXPECT_EQ(fb.deliveries_dropped, fa.deliveries_dropped);
  EXPECT_EQ(fb.msgs_dropped_link_down, fa.msgs_dropped_link_down);
  EXPECT_EQ(fb.msgs_dropped_random, fa.msgs_dropped_random);
  EXPECT_EQ(fb.retransmits_replayed, fa.retransmits_replayed);
  EXPECT_EQ(fb.retransmit_overflow, fa.retransmit_overflow);

  EXPECT_EQ(got.events, base.events);
  EXPECT_EQ(got.ledger_rows, base.ledger_rows);
  ASSERT_EQ(got.traffic.size(), base.traffic.size());
  for (const auto& [id, ta] : base.traffic) {
    const auto it = got.traffic.find(id);
    ASSERT_NE(it, got.traffic.end()) << "broker " << id.value();
    EXPECT_EQ(it->second.msgs_in, ta.msgs_in) << "broker " << id.value();
    EXPECT_EQ(it->second.msgs_out, ta.msgs_out) << "broker " << id.value();
    EXPECT_EQ(it->second.local_deliveries, ta.local_deliveries) << "broker " << id.value();
    EXPECT_EQ(it->second.hop_total, ta.hop_total) << "broker " << id.value();
    EXPECT_EQ(it->second.delay_total_s, ta.delay_total_s) << "broker " << id.value();
  }
}

RunArtifacts capture(const Simulation& sim) {
  RunArtifacts a;
  a.summary = sim.summarize();
  a.faults = sim.fault_state().stats();
  a.traffic = sim.metrics().traffic();
  a.events = sim.events_executed();
  a.shards = sim.shard_count();
  a.ledger_rows = sim.publish_ledger().size();
  return a;
}

// Fanout-3 tree of `n` brokers with a seed-scrambled mix of publishers
// (distinct symbols, mixed rates) and subscribers (exact and range filters).
TestNet matrix_net(std::size_t n, std::uint64_t seed) {
  TestNet net(1);
  for (std::uint64_t i = 1; i < n; ++i) {
    net.dep.topology.add_link(BrokerId{(i - 1) / 3}, BrokerId{i});
    net.dep.capacities.emplace(BrokerId{i},
                               BrokerCapacity{1.0e5, MatchingDelayFunction{10e-6, 0.5e-6}});
  }
  Rng rng(seed);
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  const double rates[] = {40.0, 25.0, 15.0, 10.0};
  for (std::size_t i = 0; i < 4; ++i) {
    net.add_publisher(symbols[i], rng.index(n), rates[i]);
  }
  // Two guaranteed-match subscribers, then a scrambled tail.
  net.add_subscriber("[symbol,=,'AAA']", rng.index(n));
  net.add_subscriber("[symbol,=,'BBB']", rng.index(n));
  for (std::size_t k = 0; k < 10; ++k) {
    const std::string symbol = symbols[rng.index(4)];
    std::string filter = "[symbol,=,'" + symbol + "']";
    switch (rng.index(3)) {
      case 1: filter += ",[volume,>,1000000]"; break;
      case 2: filter += ",[volume,<,800000]"; break;
      default: break;
    }
    net.add_subscriber(filter, rng.index(n));
  }
  return net;
}

RunArtifacts run_matrix_case(std::uint64_t seed, std::size_t workers, bool faulted) {
  TestNet net = matrix_net(13, seed);
  Simulation sim = net.make(SimOptions{.workers = workers});
  if (faulted) {
    FaultSchedule fs;
    fs.link_drop(seconds(1.0), BrokerId{0}, BrokerId{1}, 0.2);
    fs.outage(seconds(2.0), seconds(1.5), BrokerId{4});
    fs.latency_spike(seconds(3.0), seconds(0.002));
    fs.latency_spike(seconds(4.5), 0);
    fs.link_drop(seconds(5.0), BrokerId{0}, BrokerId{1}, 0.0);
    FaultOptions fo;
    fo.retransmit_on_reconnect = true;
    sim.install_faults(std::move(fs), fo);
  }
  // Two run segments: the second re-enters the window loop with non-empty
  // queues and a mid-stream clock, like every profile/measure bench does.
  sim.run(3.0);
  sim.run(3.0);
  return capture(sim);
}

TEST(ShardedSim, SummaryBitIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : {7ull, 21ull}) {
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " faulted=" << faulted);
      const RunArtifacts base = run_matrix_case(seed, 1, faulted);
      ASSERT_EQ(base.shards, 1u);
      ASSERT_GT(base.summary.deliveries, 0u);
      if (faulted) {
        ASSERT_GT(base.faults.crashes, 0u);
      }
      for (const std::size_t w : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << w);
        const RunArtifacts got = run_matrix_case(seed, w, faulted);
        EXPECT_EQ(got.shards, w);
        expect_identical(base, got);
      }
    }
  }
}

// The library takes every knob from a field; only the bench binaries read
// GREENPS_* variables (bench/bench_util). Variables left set in the
// environment must not change a library run.
TEST(SimOptionsTest, LibraryIgnoresEnvironment) {
  const std::string csv = "sim_test_ignored_samples.csv";
  std::remove(csv.c_str());
  const char* const vars[] = {"GREENPS_SIM_WORKERS", "GREENPS_CRAM_THREADS",
                              "GREENPS_CRAM_REBASELINE", "GREENPS_OBS_SAMPLE_MS",
                              "GREENPS_OBS_SAMPLES"};
  ASSERT_EQ(setenv("GREENPS_SIM_WORKERS", "4", 1), 0);
  ASSERT_EQ(setenv("GREENPS_CRAM_THREADS", "3", 1), 0);
  ASSERT_EQ(setenv("GREENPS_CRAM_REBASELINE", "5", 1), 0);
  ASSERT_EQ(setenv("GREENPS_OBS_SAMPLE_MS", "500", 1), 0);
  ASSERT_EQ(setenv("GREENPS_OBS_SAMPLES", csv.c_str(), 1), 0);

  // Four workers shard this net (ShardedSim above); the default is one.
  TestNet net = matrix_net(13, 7);
  Simulation sim = net.make();
  sim.run(3.0);
  const std::size_t shards = sim.shard_count();
  const std::size_t sample_rows = sim.samples().row_count();
  const CramOptions cram = resolve_cram_options(CramOptions{});
  for (const char* v : vars) ASSERT_EQ(unsetenv(v), 0);

  EXPECT_EQ(SimOptions{}.workers, 1u);
  EXPECT_EQ(shards, 1u);
  EXPECT_GT(sim.summarize().deliveries, 0u);
  EXPECT_EQ(sample_rows, 0u);
  EXPECT_FALSE(std::ifstream(csv).good());
  EXPECT_EQ(cram.threads, CramOptions{}.threads);
  EXPECT_EQ(cram.rebaseline_interval, CramOptions{}.rebaseline_interval);
}

TEST(ShardedSim, PathGraphCrossShardHeavyMatchesSingleThread) {
  // Chain with traffic pinned to the far ends: nearly every hop of every
  // publication crosses a shard boundary when the chain is cut into 4.
  const auto build = [] {
    TestNet net(12);
    net.add_publisher("AAA", 0, 40.0);
    net.add_publisher("BBB", 11, 25.0);
    net.add_subscriber("[symbol,=,'AAA']", 11);
    net.add_subscriber("[symbol,=,'BBB']", 0);
    net.add_subscriber("[symbol,=,'AAA'],[volume,>,1000000]", 6);
    return net;
  };
  TestNet n1 = build();
  TestNet n4 = build();
  Simulation s1 = n1.make(SimOptions{.workers = 1});
  Simulation s4 = n4.make(SimOptions{.workers = 4});
  EXPECT_EQ(s4.shard_count(), 4u);
  s1.run(8.0);
  s4.run(8.0);
  const RunArtifacts base = capture(s1);
  ASSERT_GT(base.summary.deliveries, 0u);
  EXPECT_GT(base.summary.avg_hop_count, 5.0);  // end-to-end traffic dominates
  expect_identical(base, capture(s4));
}

TEST(ShardedSim, CrashStraddlingWindowsReplaysIdentically) {
  // One outage in the middle of the chain. At 50 msg/s the 1.5 s outage
  // spans thousands of conservative lookahead windows, so crash, buffering
  // and restart-replay all land mid-window-loop on the sharded path.
  const auto run_one = [](std::size_t workers, RunArtifacts* out, std::uint64_t* replayed,
                          LossAudit* audit) {
    TestNet net(8);
    net.add_publisher("AAA", 0, 50.0);
    net.add_subscriber("[symbol,=,'AAA']", 7);
    net.add_subscriber("[symbol,=,'AAA']", 4);
    Simulation sim = net.make(SimOptions{.workers = workers});
    FaultSchedule fs;
    fs.outage(seconds(2.0), seconds(1.5), BrokerId{3});
    FaultOptions fo;
    fo.retransmit_on_reconnect = true;
    sim.install_faults(std::move(fs), fo);
    sim.run(8.0);
    *out = capture(sim);
    *replayed = sim.fault_state().stats().retransmits_replayed;
    *audit = audit_losses(sim, StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)));
  };
  RunArtifacts base, got;
  std::uint64_t replayed1 = 0;
  std::uint64_t replayed4 = 0;
  LossAudit audit1, audit4;
  run_one(1, &base, &replayed1, &audit1);
  run_one(4, &got, &replayed4, &audit4);
  EXPECT_EQ(got.shards, 4u);
  EXPECT_GT(replayed1, 0u);  // the outage actually buffered and replayed
  expect_identical(base, got);
  // Store-and-forward across the outage: the oracle finds no real loss on
  // either path.
  EXPECT_TRUE(audit1.clean()) << audit1.real_losses.size() << " real losses (1 worker)";
  EXPECT_TRUE(audit4.clean()) << audit4.real_losses.size() << " real losses (4 workers)";
  EXPECT_EQ(audit4.expected, audit1.expected);
  EXPECT_EQ(audit4.excused, audit1.excused);
}

TEST(ShardedSim, SharedSymbolForcesSingleShard) {
  TestNet net(6);
  net.add_publisher("AAA", 0);
  net.add_publisher("AAA", 5);  // one shared price walk: unshardable
  net.add_subscriber("[symbol,=,'AAA']", 3);
  Simulation sim = net.make(SimOptions{.workers = 4});
  EXPECT_EQ(sim.shard_count(), 1u);
}

TEST(ShardedSim, WorkerCountClampsToBrokerCount) {
  TestNet net(2);
  net.add_publisher("AAA", 0);
  net.add_subscriber("[symbol,=,'AAA']", 1);
  Simulation sim = net.make(SimOptions{.workers = 8});
  EXPECT_EQ(sim.shard_count(), 2u);
  sim.run(2.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
}

// --- derived retransmit caps --------------------------------------------

TEST(Simulation, RetransmitCapDerivedFromProfiledRate) {
  TestNet net(2);
  net.add_publisher("AAA", 0, 200.0);
  net.add_subscriber("[symbol,=,'AAA']", 1);
  Simulation sim = net.make();
  sim.run(10.0);
  const BrokerTraffic t1 = sim.metrics().traffic().at(BrokerId{1});
  const BrokerTraffic t0 = sim.metrics().traffic().at(BrokerId{0});
  const double measured = sim.measured_seconds();
  sim.reset_metrics();  // snapshots the profiled rates for the next epoch

  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.expected_outage_s = 2.0;  // headroom defaults to 2.0
  sim.install_faults(FaultSchedule{}, fo);

  // Broker 1 (forwarding + delivering, ~400 msg/s): cap = ceil(rate * 2 s
  // * 2.0 headroom), above the 1024 floor.
  const double rate1 =
      static_cast<double>(t1.msgs_in + t1.local_deliveries) / measured;
  const auto expected1 = static_cast<std::size_t>(std::ceil(rate1 * 2.0 * 2.0));
  ASSERT_GT(expected1, 1024u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), expected1);

  // Broker 0 (~200 msg/s, no local deliveries): the derived cap falls below
  // the floor and clamps to 1024.
  const double rate0 =
      static_cast<double>(t0.msgs_in + t0.local_deliveries) / measured;
  ASSERT_LT(rate0 * 2.0 * 2.0, 1024.0);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 1024u);
}

TEST(Simulation, RetransmitCapFallsBackWithoutProfile) {
  TestNet net(2);
  net.add_publisher("AAA", 0);
  net.add_subscriber("[symbol,=,'AAA']", 1);
  Simulation sim = net.make();
  // No run yet: no profiled rates, so every broker gets the historical flat
  // default.
  sim.install_faults(FaultSchedule{}, FaultOptions{});
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 65536u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), 65536u);

  // An explicit nonzero cap bypasses derivation entirely.
  FaultOptions flat;
  flat.max_retransmit_buffer = 4096;
  sim.install_faults(FaultSchedule{}, flat);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 4096u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), 4096u);
}

TEST(Simulation, RetransmitOverflowSurfacesInSummary) {
  TestNet net(3);
  net.add_publisher("AAA", 0, 100.0);
  net.add_subscriber("[symbol,=,'AAA']", 2);
  Simulation sim = net.make();
  FaultSchedule fs;
  fs.outage(seconds(1.0), seconds(3.0), BrokerId{2});
  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.max_retransmit_buffer = 5;  // ~300 arrivals during the outage: overflows
  sim.install_faults(std::move(fs), fo);
  sim.run(6.0);
  const SimSummary s = sim.summarize();
  EXPECT_GT(s.retransmit_overflow, 0u);
  EXPECT_EQ(s.retransmit_overflow, sim.fault_state().stats().retransmit_overflow);
}

TEST(Simulation, BandwidthThrottlingIncreasesDelay) {
  TestNet fast(2, /*out_bw=*/1.0e5);
  fast.add_publisher("YHOO", 0, 50.0);
  for (int i = 0; i < 20; ++i) fast.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation fast_sim = fast.make();
  fast_sim.run(10.0);

  TestNet slow(2, /*out_bw=*/18.0);  // barely above offered load
  slow.add_publisher("YHOO", 0, 50.0);
  for (int i = 0; i < 20; ++i) slow.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation slow_sim = slow.make();
  slow_sim.run(10.0);

  EXPECT_GT(slow_sim.metrics().avg_delay_ms(), fast_sim.metrics().avg_delay_ms());
}

}  // namespace
}  // namespace greenps
