// E6 — Algorithm computation time.
//
// Times each Phase-2 algorithm on one gathered workload. Expected shape:
// FBF < BIN PACKING << CRAM, and CRAM-XOR at least ~75% slower than the
// prunable metrics (INTERSECT/IOS/IOU) because XOR cannot prune
// empty-relation subtrees of the poset.
//
// Knobs: GREENPS_FULL=1 for paper scale, GREENPS_BENCH_BUDGET_S=<seconds>
// to cap wall clock (completed rows are kept, the rest are skipped), and
// GREENPS_CRAM_THREADS to size CRAM's parallel pair search. Results are
// also written machine-readably to BENCH_cram.json in the working
// directory.
#include <chrono>
#include <cstdio>

#include "alloc/bin_packing.hpp"
#include "alloc/fbf.hpp"
#include "bench_util.hpp"
#include "profile/union_profile.hpp"
#include "sweep_common.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {
using Clock = std::chrono::steady_clock;
double time_of(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A timing row for a failed allocation is meaningless; say so loudly
// instead of printing broker counts from a half-built result.
std::string broker_cell(const Allocation& a, const char* approach) {
  if (a.success) return std::to_string(a.brokers_used());
  std::fprintf(stderr, "[bench] %s allocation FAILED (insufficient broker resources); "
                       "row reflects a failed run\n", approach);
  return "FAILED";
}
}  // namespace

int main() {
  const BenchBudget budget;
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 200 : tiny_scale() ? 15 : 100;
  const std::size_t total = cfg.scenario.subs_per_publisher * cfg.scenario.num_publishers;
  std::printf("E6: Phase-2 computation time, %zu subscriptions %s\n\n", total,
              full_scale()   ? "[FULL SCALE]"
              : tiny_scale() ? "[tiny/smoke scale]"
                             : "[reduced scale]");

  // Gather once from a profiled deployment.
  Simulation sim = make_simulation(cfg.scenario, sim_options());
  sim.run(cfg.profile_seconds);
  const GatheredInfo info = gather_information(
      sim.deployment().topology, BrokerId{0},
      [&sim](BrokerId b) { return sim.broker_info(b); });
  const auto pool = Croc::pool_from(info);
  const auto units = Croc::units_from(info);
  std::printf("gathered: %zu brokers, %zu subscriptions, %zu publishers\n\n",
              info.brokers.size(), units.size(), info.publishers.size());

  const std::vector<int> widths = {12, 12, 10, 10, 16, 14, 9};
  print_row({"approach", "time(s)", "brokers", "clusters", "closeness-comps", "alloc-runs",
             "threads"},
            widths);

  std::vector<std::string> json_rows;
  bool budget_hit = false;

  {
    Rng rng(1);
    Allocation a;
    const double t = time_of([&] { a = fbf_allocate(pool, units, info.publisher_table, rng); });
    print_row({"FBF", fmt(t, 4), broker_cell(a, "FBF"),
               std::to_string(a.unit_count()), "-", "-", "-"},
              widths);
    json_rows.push_back(JsonObject()
                            .set_string("approach", "FBF")
                            .set_bool("success", a.success)
                            .set_number("seconds", t)
                            .set_integer("brokers", a.brokers_used())
                            .set_integer("clusters", a.unit_count())
                            .render());
  }
  {
    Allocation a;
    const double t =
        time_of([&] { a = bin_packing_allocate(pool, units, info.publisher_table); });
    print_row({"BINPACKING", fmt(t, 4), broker_cell(a, "BINPACKING"),
               std::to_string(a.unit_count()), "-", "-", "-"},
              widths);
    json_rows.push_back(JsonObject()
                            .set_string("approach", "BINPACKING")
                            .set_bool("success", a.success)
                            .set_number("seconds", t)
                            .set_integer("brokers", a.brokers_used())
                            .set_integer("clusters", a.unit_count())
                            .render());
  }
  double prunable_max = 0;
  double xor_time = 0;
  for (const ClosenessMetric m : {ClosenessMetric::kIntersect, ClosenessMetric::kIos,
                                  ClosenessMetric::kIou, ClosenessMetric::kXor}) {
    const std::string name = std::string("CRAM-") + metric_name(m);
    if (budget.skip((name + " (and any remaining metrics)").c_str())) {
      budget_hit = true;
      break;
    }
    CramOptions opts = cram_options();
    opts.metric = m;
    CramResult r;
    UnionProfile::reset_probe_walks();
    const double t =
        time_of([&] { r = cram_allocate(pool, units, info.publisher_table, opts); });
    // Union-rate walks by this thread (complete when threads == 1; worker
    // threads keep their own counters). Dry-run probe loads walk only when
    // their rate bound cannot decide or when they settle, so this counts
    // settle walks plus the eager final packing's, not packed units.
    const std::size_t walks = UnionProfile::probe_walks();
    if (m == ClosenessMetric::kXor) {
      xor_time = t;
    } else {
      prunable_max = std::max(prunable_max, t);
    }
    print_row({name, fmt(t, 4), broker_cell(r.allocation, name.c_str()),
               std::to_string(r.allocation.unit_count()),
               std::to_string(r.stats.closeness_computations),
               std::to_string(r.stats.allocation_runs),
               std::to_string(r.stats.threads_used)},
              widths);
    json_rows.push_back(JsonObject()
                            .set_string("approach", name)
                            .set_bool("success", r.allocation.success)
                            .set_number("seconds", t)
                            .set_integer("brokers", r.allocation.brokers_used())
                            .set_integer("clusters", r.allocation.unit_count())
                            .set_integer("closeness_computations",
                                         r.stats.closeness_computations)
                            .set_integer("allocation_runs", r.stats.allocation_runs)
                            .set_integer("threads", r.stats.threads_used)
                            .set_number("poset_build_seconds", r.stats.poset_build_seconds)
                            .set_number("probe_seconds", r.stats.probe_seconds)
                            .set_number("pair_search_seconds", r.stats.pair_search_seconds)
                            .set_integer("probe_units_packed", r.stats.probe_units_packed)
                            .set_integer("main_thread_probe_walks", walks)
                            .set_integer("base_rebuilds", r.stats.base_rebuilds)
                            .set_integer("speculative_probes", r.stats.speculative_probes)
                            .render());
  }
  if (xor_time > 0 && prunable_max > 0) {
    std::printf(
        "\nCRAM-XOR vs slowest prunable metric: %+.0f%% wall clock, and note the\n"
        "closeness-computation column (the paper's >= +75%% shows when the pair\n"
        "search dominates, i.e. at full scale where candidates grow as S^2).\n",
        (xor_time - prunable_max) / prunable_max * 100.0);
  }

  RunReport report("e6_algo_time");
  report.header()
      .set_bool("full_scale", full_scale())
      .set_integer("subscriptions", units.size())
      .set_integer("brokers_in_pool", pool.size())
      .set_number("budget_seconds", budget.limited() ? budget.budget_seconds() : 0)
      .set_bool("budget_exceeded", budget_hit);
  for (std::string& row : json_rows) report.add_row(std::move(row));
  report.write("BENCH_cram.json", "results");
  return 0;
}
