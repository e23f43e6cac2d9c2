// E8 — The publisher-relocation limitation (Section II-B).
//
// Adversarial workload: every broker hosts a subscriber with the *same*
// subscription, so publications must reach every broker no matter where the
// publishers sit. Relocating publishers alone (GRAPE on the unchanged
// MANUAL overlay) then yields ~0% system message rate reduction, while the
// full 3-phase scheme still collapses the deployment (paper: up to 92%).
#include <cstdio>

#include "bench_util.hpp"
#include "croc/reconfig_plan.hpp"
#include "language/parser.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

// MANUAL scenario, then add one template subscriber per (broker, symbol).
Simulation adversarial_sim(std::size_t brokers, std::size_t publishers) {
  ScenarioConfig sc;
  sc.num_brokers = brokers;
  sc.num_publishers = publishers;
  sc.subs_per_publisher = 0;  // base workload: none; we add our own below
  sc.full_out_bw_kb_s = 50.0;
  sc.seed = 21;
  Scenario scenario = build_scenario(sc);
  std::uint64_t next_client = 100000;
  std::uint64_t next_sub = 0;
  for (const BrokerId b : scenario.deployment.topology.brokers()) {
    for (const auto& symbol : scenario.symbols) {
      SubscriberSpec s;
      s.client = ClientId{next_client++};
      s.sub = SubId{next_sub++};
      s.filter = parse_filter("[class,=,'STOCK'],[symbol,=,'" + symbol + "']");
      s.home = b;
      scenario.deployment.subscribers.push_back(std::move(s));
    }
  }
  return Simulation(std::move(scenario.deployment), make_quote_generator(sc));
}

}  // namespace

int main() {
  const std::size_t brokers = full_scale() ? 80 : 24;
  const std::size_t publishers = full_scale() ? 40 : 6;
  std::printf(
      "E8: publisher relocation alone vs full reconfiguration\n"
      "adversarial workload: identical subscription at every broker "
      "(brokers=%zu publishers=%zu)\n\n",
      brokers, publishers);

  const double profile_s = 90.0;
  const double measure_s = 120.0;

  // Baseline.
  Simulation sim = adversarial_sim(brokers, publishers);
  sim.run(profile_s);
  const GatheredInfo info = gather_information(
      sim.deployment().topology, BrokerId{0},
      [&sim](BrokerId b) { return sim.broker_info(b); });
  sim.reset_metrics();
  sim.run(measure_s);
  const SimSummary manual = sim.summarize();

  // GRAPE-only: keep the MANUAL overlay and subscriber placement; move only
  // the publishers to their GRAPE-optimal brokers.
  {
    std::unordered_map<BrokerId, SubscriptionProfile> local;
    for (const BrokerInfo& b : info.brokers) {
      SubscriptionProfile agg;
      for (const auto& s : b.subscriptions) agg.merge(s.profile);
      if (!b.subscriptions.empty()) local.emplace(b.id, std::move(agg));
    }
    std::vector<GrapePublisher> pubs;
    for (const PublisherRecord& p : info.publishers) {
      pubs.push_back(GrapePublisher{p.client, p.profile.adv});
    }
    const GrapePlacement placed =
        grape_place_publishers(sim.deployment().topology, pubs, local,
                               info.publisher_table, GrapeMode::kMinimizeLoad);
    Deployment moved = sim.deployment();
    for (auto& p : moved.publishers) {
      const auto it = placed.broker_for.find(p.client);
      if (it != placed.broker_for.end()) p.home = it->second;
    }
    Simulation grape_sim = adversarial_sim(brokers, publishers);
    grape_sim.redeploy(std::move(moved));
    grape_sim.run(measure_s);
    const SimSummary s = grape_sim.summarize();
    std::printf("%-22s system rate %8.1f msg/s  brokers %3zu  (vs MANUAL: %s)\n",
                "GRAPE-only", s.system_msg_rate, s.allocated_brokers,
                pct_change(manual.system_msg_rate, s.system_msg_rate).c_str());
  }

  std::printf("%-22s system rate %8.1f msg/s  brokers %3zu\n", "MANUAL",
              manual.system_msg_rate, manual.allocated_brokers);

  // Full 3-phase reconfiguration with CRAM.
  {
    CrocConfig cfg = croc_config();
    cfg.algorithm = Phase2Algorithm::kCram;
    Croc croc(cfg);
    const auto report = croc.reconfigure(sim, BrokerId{0});
    if (!report.success || !redeploy_plan(sim, report.plan, "E8")) {
      std::printf("full scheme: reconfiguration failed\n");
      return 1;
    }
    sim.run(measure_s);
    const SimSummary s = sim.summarize();
    std::printf("%-22s system rate %8.1f msg/s  brokers %3zu  (vs MANUAL: %s)\n",
                "full 3-phase (CRAM)", s.system_msg_rate, s.allocated_brokers,
                pct_change(manual.system_msg_rate, s.system_msg_rate).c_str());
  }
  std::printf(
      "\nexpected shape: GRAPE-only ~0%% change; full scheme large reduction "
      "(paper: up to 92%%)\n");
  return 0;
}
