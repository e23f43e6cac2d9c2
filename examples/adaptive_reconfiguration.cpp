// Adaptive operation: re-running CROC as the workload drifts.
//
// The bit-vector framework makes no workload assumptions, so the same
// pipeline handles drift: we deploy, profile, consolidate; then the
// subscriber population shifts (half the subscribers re-subscribe to
// different symbols), profiles re-fill, and a second reconfiguration adapts
// the broker allocation to the new interest distribution.
//
// Usage: ./build/examples/adaptive_reconfiguration
#include <cstdio>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"
#include "workload/subscription_gen.hpp"

using namespace greenps;

namespace {

void report_state(const char* label, const SimSummary& s) {
  std::printf("%-24s brokers=%2zu  system=%7.1f msg/s  hops=%.2f  delay=%.2f ms\n", label,
              s.allocated_brokers, s.system_msg_rate, s.avg_hop_count,
              s.avg_delivery_delay_ms);
}

ReconfigurationReport reconfigure(Simulation& sim) {
  CrocConfig config;
  config.algorithm = Phase2Algorithm::kCram;
  config.cram.metric = ClosenessMetric::kIos;
  Croc croc(config);
  return croc.reconfigure(sim, sim.deployment().topology.brokers().front());
}

}  // namespace

int main() {
  ScenarioConfig config;
  config.num_brokers = 24;
  config.num_publishers = 6;
  config.subs_per_publisher = 40;
  config.full_out_bw_kb_s = 40.0;
  config.seed = 5;
  Scenario scenario = build_scenario(config);
  const std::vector<std::string> symbols = scenario.symbols;
  Simulation sim(std::move(scenario.deployment), make_quote_generator(config));

  // --- epoch 1 ---
  sim.run(90.0);
  report_state("epoch 1 (MANUAL)", sim.summarize());
  {
    const auto report = reconfigure(sim);
    if (!report.success) return 1;
    ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
    if (!applied.success) {
      std::printf("apply rolled back: %s\n", applied.detail.c_str());
      return 1;
    }
    sim.redeploy(std::move(applied.deployment));
    sim.run(90.0);
    report_state("epoch 1 (reconfigured)", sim.summarize());
  }

  // --- workload drift: half the subscribers change interest ---
  {
    Deployment drifted = sim.deployment();
    Rng rng(99);
    StockQuoteGenerator quotes = make_quote_generator(config);
    SubscriptionGenerator gen(SubscriptionGenerator::Config{}, rng.fork());
    std::size_t changed = 0;
    for (auto& sub : drifted.subscribers) {
      if (rng.chance(0.5)) {
        const std::string& new_symbol = symbols[rng.index(symbols.size())];
        sub.filter = gen.next(new_symbol, quotes);
        ++changed;
      }
    }
    std::printf("\nworkload drift: %zu subscribers re-subscribed to new symbols\n\n",
                changed);
    sim.redeploy(std::move(drifted));
  }

  // --- epoch 2: profiles refill on the drifted workload ---
  sim.run(90.0);
  report_state("epoch 2 (stale overlay)", sim.summarize());
  {
    const auto report = reconfigure(sim);
    if (!report.success) return 1;
    ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
    if (!applied.success) {
      std::printf("apply rolled back: %s\n", applied.detail.c_str());
      return 1;
    }
    sim.redeploy(std::move(applied.deployment));
    sim.run(90.0);
    report_state("epoch 2 (reconfigured)", sim.summarize());
  }

  std::printf(
      "\nthe second reconfiguration re-clusters the drifted interests without any\n"
      "knowledge of the subscription language or workload distribution --\n"
      "everything is driven by the delivery bit vectors.\n");
  return 0;
}
