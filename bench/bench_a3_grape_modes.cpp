// A3 (ablation) — GRAPE placement modes.
//
// GRAPE can place publishers to minimize system load (publication traffic
// crossing overlay links) or average delivery delay (rate-weighted hop
// distance). This ablation compares both against leaving every publisher at
// the Phase-3 root.
#include <cstdio>

#include "bench_util.hpp"
#include "croc/reconfig_plan.hpp"

using namespace greenps;
using namespace greenps::bench;

int main() {
  ScenarioConfig sc;
  sc.num_brokers = full_scale() ? 80 : 40;
  sc.num_publishers = full_scale() ? 40 : 10;
  sc.subs_per_publisher = full_scale() ? 150 : 80;
  // Moderate bandwidth: tight enough that Phase 3 keeps a multi-level tree
  // (placement only matters when the overlay has depth) but with queueing
  // headroom, so the comparison isolates placement rather than saturation.
  sc.full_out_bw_kb_s = full_scale() ? 160.0 : 18.0;
  sc.seed = 42;
  std::printf("A3: GRAPE placement-mode ablation (CRAM-IOS, %zu subscriptions)\n\n",
              sc.num_publishers * sc.subs_per_publisher);

  const std::vector<int> widths = {16, 9, 12, 8, 11, 11};
  print_row({"placement", "brokers", "sys msg/s", "hops", "avg ms", "p99 ms"}, widths);

  struct Mode {
    const char* name;
    bool run_grape;
    GrapeMode mode;
  };
  for (const Mode m : {Mode{"root (no GRAPE)", false, GrapeMode::kMinimizeLoad},
                       Mode{"minimize-load", true, GrapeMode::kMinimizeLoad},
                       Mode{"minimize-delay", true, GrapeMode::kMinimizeDelay}}) {
    Simulation sim = make_simulation(sc, sim_options());
    sim.run(90.0);
    CrocConfig cfg = croc_config();
    cfg.algorithm = Phase2Algorithm::kCram;
    cfg.run_grape = m.run_grape;
    cfg.grape_mode = m.mode;
    Croc croc(cfg);
    const auto report = croc.reconfigure(sim, BrokerId{0});
    if (!report.success || !redeploy_plan(sim, report.plan, "A3")) {
      print_row({m.name, "failed", "-", "-", "-", "-"}, widths);
      continue;
    }
    sim.run(120.0);
    const SimSummary s = sim.summarize();
    print_row({m.name, std::to_string(s.allocated_brokers), fmt(s.system_msg_rate, 1),
               fmt(s.avg_hop_count, 2), fmt(s.avg_delivery_delay_ms, 2),
               fmt(s.p99_delivery_delay_ms, 2)},
              widths);
  }
  std::printf(
      "\nexpected shape: both GRAPE modes cut the system message rate and hop\n"
      "count vs root placement (minimize-delay the most hops-wise). Note that at\n"
      "high utilization wall-clock delay can still favor the root: an interior\n"
      "broker's output link has more slack than a loaded leaf's.\n");
  return 0;
}
