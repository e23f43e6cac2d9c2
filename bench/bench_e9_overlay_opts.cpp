// E9 — Phase-3 overlay-construction optimizations (Section V, Figure 4).
//
// Ablates the three optimizations (pure-forwarder elimination, child
// takeover, best-fit replacement) over the recursive builder, reporting the
// allocated broker count, tree depth and per-optimization action counts.
#include <cstdio>

#include "alloc/bin_packing.hpp"
#include "bench_util.hpp"
#include "sweep_common.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

int tree_depth(const Topology& t, BrokerId root) {
  int depth = 0;
  for (const auto& [b, d] : t.distances_from(root)) {
    (void)b;
    depth = std::max(depth, d);
  }
  return depth;
}

}  // namespace

int main() {
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 200 : 200;
  // Heterogeneous pool makes best-fit replacement meaningful; tighter
  // broker bandwidth yields a leaf layer wide enough to need real layers.
  cfg.scenario.heterogeneous = true;
  cfg.scenario.full_out_bw_kb_s = full_scale() ? 150.0 : 20.0;
  std::printf("E9: Phase-3 overlay optimization ablation (heterogeneous pool) %s\n\n",
              full_scale() ? "[FULL SCALE]" : "[reduced scale]");

  Simulation sim = make_simulation(cfg.scenario, sim_options());
  sim.run(cfg.profile_seconds);
  const GatheredInfo info = gather_information(
      sim.deployment().topology, BrokerId{0},
      [&sim](BrokerId b) { return sim.broker_info(b); });
  const auto pool = Croc::pool_from(info);
  const auto units = Croc::units_from(info);

  const Allocation phase2 = bin_packing_allocate(pool, units, info.publisher_table);
  if (!phase2.success) {
    std::printf("phase-2 allocation failed; cannot ablate phase 3\n");
    return 1;
  }
  std::printf("phase-2 (BIN PACKING) leaf brokers: %zu\n\n", phase2.brokers_used());

  const AllocatorFn allocator = [](const std::vector<AllocBroker>& p,
                                   const std::vector<SubUnit>& u, const PublisherTable& t) {
    return bin_packing_allocate(p, u, t);
  };

  const std::vector<int> widths = {24, 9, 7, 8, 11, 10, 9};
  print_row({"variant", "brokers", "depth", "layers", "forwarders", "takeovers", "bestfit"},
            widths);
  struct Variant {
    const char* name;
    bool pf, take, fit;
  };
  for (const Variant v : {Variant{"none", false, false, false},
                          Variant{"opt1 forwarders", true, false, false},
                          Variant{"opt2 takeover", false, true, false},
                          Variant{"opt3 best-fit", false, false, true},
                          Variant{"opt1+2", true, true, false},
                          Variant{"all (opt1+2+3)", true, true, true}}) {
    OverlayBuildOptions opts;
    opts.eliminate_pure_forwarders = v.pf;
    opts.takeover_children = v.take;
    opts.best_fit_replacement = v.fit;
    const BuiltOverlay built =
        build_overlay(phase2, pool, info.publisher_table, allocator, opts);
    print_row({v.name, std::to_string(built.broker_count()),
               std::to_string(tree_depth(built.tree, built.root)),
               std::to_string(built.stats.layers),
               std::to_string(built.stats.pure_forwarders_removed),
               std::to_string(built.stats.children_taken_over),
               std::to_string(built.stats.best_fit_replacements)},
              widths);
  }
  std::printf(
      "\nexpected shape: each optimization reduces (or keeps) the broker count;\n"
      "best-fit swaps large brokers for the smallest that still fit.\n");
  return 0;
}
