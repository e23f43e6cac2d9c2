// E7 — CRAM optimization ablation (Section IV-C.1..3).
//
// Quantifies each CRAM optimization on one gathered workload:
//   opt 1 (GIF grouping):    pool reduction (paper: up to 61% on 8,000 subs)
//   opt 2 (poset pruning):   closeness computations with/without pruning
//                            (paper: ~5,000,000 -> ~280,000)
//   opt 3 (one-to-many):     clusters/brokers with and without CGS clustering
//   poset build time         (paper: 3,200 GIFs in ~2 s)
#include <chrono>
#include <cstdio>

#include "alloc/gif.hpp"
#include "bench_util.hpp"
#include "poset/poset.hpp"
#include "sweep_common.hpp"

using namespace greenps;
using namespace greenps::bench;

int main() {
  const BenchBudget budget;  // GREENPS_BENCH_BUDGET_S caps the variant grid
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 200 : 100;
  const std::size_t total = cfg.scenario.subs_per_publisher * cfg.scenario.num_publishers;
  std::printf("E7: CRAM optimization ablation, %zu subscriptions %s\n\n", total,
              full_scale() ? "[FULL SCALE]" : "[reduced scale]");

  Simulation sim = make_simulation(cfg.scenario, sim_options());
  sim.run(cfg.profile_seconds);
  const GatheredInfo info = gather_information(
      sim.deployment().topology, BrokerId{0},
      [&sim](BrokerId b) { return sim.broker_info(b); });
  const auto pool = Croc::pool_from(info);
  const auto units = Croc::units_from(info);

  RunReport report("e7_cram_ablation");
  report.header()
      .set_bool("full_scale", full_scale())
      .set_integer("subscriptions", units.size())
      .set_integer("brokers_in_pool", pool.size());

  // --- opt 1: GIF grouping ---
  {
    const auto gifs = group_identical_filters(units);
    const double reduction =
        (1.0 - static_cast<double>(gifs.size()) / static_cast<double>(units.size())) * 100.0;
    std::printf("opt1 GIF grouping: %zu subscriptions -> %zu GIFs (-%.0f%%; paper: up to -61%%)\n\n",
                units.size(), gifs.size(), reduction);
    report.header().set_integer("gif_count", gifs.size()).set_number("gif_reduction_pct",
                                                                     reduction);
  }

  // --- opt 2 + 3 grid ---
  const std::vector<int> widths = {22, 10, 10, 16, 12, 10, 10, 10};
  print_row({"variant", "brokers", "clusters", "closeness-comps", "one-to-many", "time(s)",
             "probe(s)", "search(s)"},
            widths);
  struct Variant {
    const char* name;
    bool prune;
    bool o2m;
  };
  const auto report_variant = [&report](const char* name, const CramResult& r) {
    report.add_row(JsonObject()
                       .set_string("variant", name)
                       .set_integer("brokers", r.allocation.brokers_used())
                       .set_integer("clusters", r.allocation.unit_count())
                       .set_integer("closeness_computations", r.stats.closeness_computations)
                       .set_integer("one_to_many_applied", r.stats.one_to_many_applied)
                       .set_number("seconds", r.stats.total_seconds)
                       .set_number("probe_seconds", r.stats.probe_seconds)
                       .set_number("pair_search_seconds", r.stats.pair_search_seconds));
  };
  for (const Variant v : {Variant{"full (opt1+2+3)", true, true},
                          Variant{"no pruning (opt1+3)", false, true},
                          Variant{"no one-to-many (1+2)", true, false},
                          Variant{"pairwise only (opt1)", false, false}}) {
    if (budget.skip(v.name)) continue;
    CramOptions opts = cram_options();
    opts.metric = ClosenessMetric::kIos;
    opts.poset_pruning = v.prune;
    opts.one_to_many = v.o2m;
    const CramResult r = cram_allocate(pool, units, info.publisher_table, opts);
    print_row({v.name, std::to_string(r.allocation.brokers_used()),
               std::to_string(r.allocation.unit_count()),
               std::to_string(r.stats.closeness_computations),
               std::to_string(r.stats.one_to_many_applied), fmt(r.stats.total_seconds, 3),
               fmt(r.stats.probe_seconds, 3), fmt(r.stats.pair_search_seconds, 3)},
              widths);
    report_variant(v.name, r);
  }

  // --- no GIF grouping at all (opt 2 requires opt 1, so both are off) ---
  if (!budget.skip("no-optimizations variant")) {
    CramOptions opts = cram_options();
    opts.metric = ClosenessMetric::kIos;
    opts.gif_grouping = false;
    opts.one_to_many = false;
    const CramResult r = cram_allocate(pool, units, info.publisher_table, opts);
    print_row({"no optimizations", std::to_string(r.allocation.brokers_used()),
               std::to_string(r.allocation.unit_count()),
               std::to_string(r.stats.closeness_computations), "0",
               fmt(r.stats.total_seconds, 3), fmt(r.stats.probe_seconds, 3),
               fmt(r.stats.pair_search_seconds, 3)},
              widths);
    report_variant("no optimizations", r);
  }

  // --- poset build time ---
  {
    const std::size_t n = full_scale() ? 3200 : 1000;
    Rng rng(9);
    using Clock = std::chrono::steady_clock;
    ProfilePoset poset;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      SubscriptionProfile p(256);
      const auto from = rng.uniform_int(0, 4000);
      const auto len = 1 + rng.uniform_int(0, 200);
      for (MessageSeq s = from; s < from + len; ++s) {
        p.record(AdvId{static_cast<std::uint64_t>(rng.index(8))}, s);
      }
      poset.insert(std::move(p), i);
    }
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    std::printf("\nposet build: %zu GIFs inserted in %.2f s (paper: 3,200 in ~2 s)\n", n,
                secs);
    report.header().set_integer("poset_build_gifs", n).set_number("poset_build_seconds",
                                                                 secs);
  }
  report.write("BENCH_cram_ablation.json", "results");
  return 0;
}
