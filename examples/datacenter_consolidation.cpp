// Green-IT consolidation in a heterogeneous data center.
//
// The paper's motivation: 97% of enterprises run green-IT programs, and the
// broker fleet is sized for peak. This example deploys the heterogeneous
// capacity mix (100%/50%/25% brokers at 15:25:40), reconfigures with CRAM,
// and reports a back-of-the-envelope energy estimate for the deallocated
// brokers.
//
// Usage: ./build/examples/datacenter_consolidation [Ns]
#include <cstdio>
#include <cstdlib>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

using namespace greenps;

int main(int argc, char** argv) {
  ScenarioConfig config;
  config.num_brokers = 40;
  config.num_publishers = 10;
  config.subs_per_publisher = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 120;
  config.heterogeneous = true;
  config.full_out_bw_kb_s = 40.0;
  config.seed = 13;

  std::size_t total_subs = 0;
  for (std::size_t i = 1; i <= config.num_publishers; ++i) {
    total_subs += std::max<std::size_t>(1, config.subs_per_publisher / i);
  }
  std::printf(
      "data center: %zu brokers (capacity mix 100/50/25%% at 15:25:40),\n"
      "%zu publishers, %zu subscriptions (Ns=%zu, publisher i gets Ns/i)\n\n",
      config.num_brokers, config.num_publishers, total_subs, config.subs_per_publisher);

  Simulation sim = make_simulation(config);
  sim.run(90.0);
  const SimSummary before = sim.summarize();

  CrocConfig croc_config;
  croc_config.algorithm = Phase2Algorithm::kCram;
  croc_config.cram.metric = ClosenessMetric::kIou;
  Croc croc(croc_config);
  const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
  if (!report.success) {
    std::printf("reconfiguration failed\n");
    return 1;
  }

  // Which capacity classes were kept?
  std::size_t kept_full = 0;
  std::size_t kept_half = 0;
  std::size_t kept_quarter = 0;
  for (const BrokerId b : report.plan.allocated_brokers) {
    const double bw = sim.deployment().capacities.at(b).out_bw_kb_s;
    if (bw == config.full_out_bw_kb_s) {
      ++kept_full;
    } else if (bw == config.full_out_bw_kb_s * 0.5) {
      ++kept_half;
    } else {
      ++kept_quarter;
    }
  }

  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);

  if (!applied.success) {

    std::printf("apply rolled back: %s\n", applied.detail.c_str());

    return 1;

  }

  sim.redeploy(std::move(applied.deployment));
  sim.run(120.0);
  const SimSummary after = sim.summarize();

  std::printf("%-28s %10s %10s\n", "", "before", "after");
  std::printf("%-28s %10zu %10zu\n", "allocated brokers", before.allocated_brokers,
              after.allocated_brokers);
  std::printf("%-28s %10.1f %10.1f\n", "system message rate (msg/s)",
              before.system_msg_rate, after.system_msg_rate);
  std::printf("%-28s %10.2f %10.2f\n", "avg hop count", before.avg_hop_count,
              after.avg_hop_count);
  std::printf("%-28s %9.1f%% %9.1f%%\n", "avg output utilization",
              before.avg_output_utilization * 100.0, after.avg_output_utilization * 100.0);
  std::printf("\nkept brokers by class: %zu full, %zu half, %zu quarter capacity\n",
              kept_full, kept_half, kept_quarter);

  // Energy estimate: a commodity 1U server idles around 150 W; every
  // deallocated broker can be suspended.
  const double watts_per_server = 150.0;
  const std::size_t freed = config.num_brokers - after.allocated_brokers;
  std::printf("energy estimate: %zu servers suspended ~= %.1f kW saved "
              "(%.0f MWh/year at 24/7)\n",
              freed, freed * watts_per_server / 1000.0,
              freed * watts_per_server * 24 * 365 / 1e6);
  return 0;
}
