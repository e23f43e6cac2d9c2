// A1 (ablation) — capacity headroom vs delivery delay.
//
// The paper maximizes broker utilization; the library exposes a
// `capacity_headroom` knob that reserves a fraction of each broker's
// bandwidth during planning. This ablation quantifies the trade: fewer
// reserved brokers (headroom=1.0) means higher utilization but more
// queueing delay; lower headroom buys back tail latency with extra brokers.
#include <cstdio>

#include "bench_util.hpp"
#include "croc/reconfig_plan.hpp"

using namespace greenps;
using namespace greenps::bench;

int main() {
  ScenarioConfig sc;
  sc.num_brokers = full_scale() ? 80 : 32;
  sc.num_publishers = full_scale() ? 40 : 8;
  sc.subs_per_publisher = full_scale() ? 150 : 80;
  sc.full_out_bw_kb_s = full_scale() ? 300.0 : 35.0;
  sc.seed = 42;
  std::printf("A1: capacity headroom ablation (CRAM-IOS, %zu subscriptions)\n\n",
              sc.num_publishers * sc.subs_per_publisher);

  const std::vector<int> widths = {9, 9, 12, 11, 11, 11, 12};
  print_row({"headroom", "brokers", "sys msg/s", "p50 ms", "p99 ms", "avg ms", "utilization"},
            widths);

  for (const double headroom : {1.0, 0.8, 0.6, 0.4}) {
    Simulation sim = make_simulation(sc, sim_options());
    sim.run(90.0);
    CrocConfig cfg = croc_config();
    cfg.algorithm = Phase2Algorithm::kCram;
    cfg.capacity_headroom = headroom;
    Croc croc(cfg);
    const auto report = croc.reconfigure(sim, BrokerId{0});
    if (!report.success || !redeploy_plan(sim, report.plan, "A1")) {
      print_row({fmt(headroom, 2), "failed", "-", "-", "-", "-", "-"}, widths);
      continue;
    }
    sim.run(120.0);
    const SimSummary s = sim.summarize();
    print_row({fmt(headroom, 2), std::to_string(s.allocated_brokers),
               fmt(s.system_msg_rate, 1), fmt(s.p50_delivery_delay_ms, 2),
               fmt(s.p99_delivery_delay_ms, 2), fmt(s.avg_delivery_delay_ms, 2),
               fmt(s.avg_output_utilization * 100.0, 1) + "%"},
              widths);
  }
  std::printf(
      "\nexpected shape: headroom=1.0 gives the fewest brokers and highest\n"
      "utilization; lowering it adds brokers and shrinks the p99 delay.\n");
  return 0;
}
