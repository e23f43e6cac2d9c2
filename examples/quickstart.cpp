// Quickstart: the smallest end-to-end use of the library.
//
// 1. Deploy a 12-broker MANUAL overlay with stock-quote publishers.
// 2. Let the CBCs profile traffic (bit vectors fill up).
// 3. Run CROC: Phase 1 gather, Phase 2 CRAM allocation, Phase 3 recursive
//    overlay construction, GRAPE publisher placement.
// 4. Apply the plan and compare the before/after metrics.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

using namespace greenps;

int main() {
  // --- 1. initial deployment ---
  ScenarioConfig config;
  config.num_brokers = 12;
  config.num_publishers = 4;
  config.subs_per_publisher = 25;
  config.full_out_bw_kb_s = 60.0;
  config.seed = 2026;
  Simulation sim = make_simulation(config);
  std::printf("deployed MANUAL overlay: %zu brokers, %zu publishers, %zu subscriptions\n",
              sim.deployment().topology.broker_count(), sim.deployment().publishers.size(),
              sim.deployment().subscribers.size());

  // --- 2. profile ---
  sim.run(60.0);
  const SimSummary before = sim.summarize();
  std::printf("before: %zu brokers active, %.1f msg/s system rate, %.2f avg hops, "
              "%.2f ms avg delay\n",
              before.allocated_brokers, before.system_msg_rate, before.avg_hop_count,
              before.avg_delivery_delay_ms);

  // --- 3. reconfigure ---
  CrocConfig croc_config;
  croc_config.algorithm = Phase2Algorithm::kCram;
  croc_config.cram.metric = ClosenessMetric::kIos;
  Croc croc(croc_config);
  const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
  if (!report.success) {
    std::printf("reconfiguration failed (insufficient broker resources)\n");
    return 1;
  }
  std::printf("\nCROC plan: %zu brokers allocated (root=broker %llu), %zu clusters, "
              "%zu BIA messages\n",
              report.allocated_brokers,
              static_cast<unsigned long long>(report.plan.root.value()),
              report.cluster_count, report.gather.bia_messages);

  // --- 4. apply and re-measure ---
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  if (!applied.success) {
    std::printf("apply rolled back: %s\n", applied.detail.c_str());
    return 1;
  }
  sim.redeploy(std::move(applied.deployment));
  sim.run(60.0);
  const SimSummary after = sim.summarize();
  std::printf("after:  %zu brokers active, %.1f msg/s system rate, %.2f avg hops, "
              "%.2f ms avg delay\n",
              after.allocated_brokers, after.system_msg_rate, after.avg_hop_count,
              after.avg_delivery_delay_ms);
  std::printf("\nbroker reduction: %zu -> %zu (%.0f%%), system message rate: %.0f%% lower\n",
              before.allocated_brokers, after.allocated_brokers,
              100.0 * (1.0 - static_cast<double>(after.allocated_brokers) /
                                 static_cast<double>(before.allocated_brokers)),
              100.0 * (1.0 - after.system_msg_rate / before.system_msg_rate));
  return 0;
}
