// A2 (ablation) — profiling-window size vs estimation accuracy.
//
// Section III-B: "A larger size will improve the accuracy of estimating the
// anticipated load of a subscription, but will lengthen the time required
// to profile subscriptions." This ablation sweeps the bit-vector capacity
// under a fast publication stream and compares the broker input rates CROC
// *plans* (from the gathered profiles) with the input rates *measured* at
// the subscription-hosting brokers after the plan is applied.
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "alloc/cram.hpp"
#include "bench_util.hpp"
#include "croc/reconfig_plan.hpp"

using namespace greenps;
using namespace greenps::bench;

int main() {
  ScenarioConfig base;
  base.num_brokers = full_scale() ? 80 : 24;
  base.num_publishers = full_scale() ? 40 : 6;
  base.subs_per_publisher = full_scale() ? 100 : 40;
  base.full_out_bw_kb_s = full_scale() ? 300.0 : 40.0;
  base.publication_rate = 10.0;  // fast stream so small windows wrap
  base.seed = 42;
  const double profile_s = 45.0;
  std::printf(
      "A2: profiling window-size ablation (CRAM-IOS, %.0f s profiling at %.0f msg/s)\n\n",
      profile_s, base.publication_rate);

  const std::vector<int> widths = {8, 9, 13, 13, 9, 10};
  print_row({"window", "brokers", "planned-in/s", "actual-in/s", "est-err", "clusters"},
            widths);

  for (const std::size_t window : {64u, 128u, 320u, 640u, 1280u}) {
    ScenarioConfig sc = base;
    sc.profile_window_bits = window;
    Simulation sim = make_simulation(sc, sim_options());
    sim.run(profile_s);

    // Plan (and capture the Phase-2 allocation for its predicted rates).
    const GatheredInfo info = gather_information(
        sim.deployment().topology, BrokerId{0},
        [&sim](BrokerId b) { return sim.broker_info(b); });
    const CramResult planned =
        cram_allocate(Croc::pool_from(info), Croc::units_from(info), info.publisher_table,
                      cram_options());
    CrocConfig cfg = croc_config();
    cfg.algorithm = Phase2Algorithm::kCram;
    Croc croc(cfg);
    const auto report = croc.plan_from_info(info);
    if (!report.success || !planned.allocation.success ||
        !redeploy_plan(sim, report.plan, "A2")) {
      print_row({std::to_string(window), "failed", "-", "-", "-", "-"}, widths);
      continue;
    }
    const double planned_in = planned.allocation.total_in_rate();

    sim.run(60.0);
    const SimSummary s = sim.summarize();
    // Measured inflow at the brokers that host subscriptions (the tier the
    // planned rates describe).
    std::unordered_set<BrokerId> leaf_brokers;
    for (const auto& [sub, broker] : report.plan.subscriber_home) {
      (void)sub;
      leaf_brokers.insert(broker);
    }
    double actual_in = 0;
    for (const auto& [b, t] : sim.metrics().traffic()) {
      if (leaf_brokers.contains(b)) actual_in += static_cast<double>(t.msgs_in);
    }
    actual_in /= s.duration_s;
    const double err = actual_in > 0 ? std::abs(planned_in - actual_in) / actual_in : 0.0;
    print_row({std::to_string(window), std::to_string(s.allocated_brokers),
               fmt(planned_in, 1), fmt(actual_in, 1), fmt(err * 100.0, 1) + "%",
               std::to_string(report.cluster_count)},
              widths);
  }
  std::printf(
      "\nexpected shape: small windows wrap under the fast stream and lose\n"
      "history, so the planned rates drift from the measured ones; accuracy\n"
      "saturates near the paper's 1,280-bit default.\n");
  return 0;
}
