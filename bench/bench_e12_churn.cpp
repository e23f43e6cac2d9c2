// E12 — Incremental reconfiguration under subscription churn.
//
// Profiles one deployment, then drives Poisson subscription churn (default
// 1%/s turnover) against a warm IncrementalCram session. Every step applies
// the delta batch incrementally AND replays a from-scratch CRAM run on the
// identical post-delta population (inside the differential oracle), so each
// row carries both sides' wall clock and closeness-comparison counts plus
// the oracle verdict. The headline claim — incremental reconvergence is
// >= 10x cheaper than a full re-run at 1%/s turnover, while staying within
// the oracle's union-rate epsilon — is enforced with a non-zero exit (the
// speedup floor is waived at tiny/smoke scale, where populations are too
// small for the asymptotics to show; the oracle is enforced always).
//
// A closing scene exercises the Croc-level path end-to-end on the live
// simulator: reconfigure_incremental bootstraps a session, and a second
// call must reuse every broker's cached BIA (traffic alone must not move
// profile epochs) and plan through the incremental session.
//
// Knobs: GREENPS_TINY=1 / GREENPS_FULL=1 scale, GREENPS_BENCH_BUDGET_S,
// GREENPS_CHURN_TURNOVER (fraction/s, default 0.01), GREENPS_CHURN_STEPS,
// GREENPS_CRAM_REBASELINE (rebaseline every N deltas; the bench also
// requests one whenever measured drift reaches 80% of the oracle epsilon).
// Results land in BENCH_churn.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "croc/diff_oracle.hpp"
#include "sweep_common.hpp"
#include "workload/churn.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

int main() {
  const BenchBudget budget;
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 200 : tiny_scale() ? 15 : 100;
  const double turnover = env_double("GREENPS_CHURN_TURNOVER", 0.01);
  const std::size_t steps = static_cast<std::size_t>(
      env_double("GREENPS_CHURN_STEPS", tiny_scale() ? 6 : full_scale() ? 20 : 12));

  std::printf("E12: incremental reconfiguration under churn, %.2f%%/s turnover, %zu steps %s\n\n",
              turnover * 100.0, steps,
              full_scale()   ? "[FULL SCALE]"
              : tiny_scale() ? "[tiny/smoke scale]"
                             : "[reduced scale]");

  // One profiled deployment seeds the population and the churn references.
  Simulation sim = make_simulation(cfg.scenario, sim_options());
  sim.run(cfg.profile_seconds);
  const GatheredInfo info = gather_information(
      sim.deployment().topology, BrokerId{0},
      [&sim](BrokerId b) { return sim.broker_info(b); });
  const std::vector<SubUnit> units = Croc::units_from(info);
  std::printf("gathered: %zu brokers, %zu subscriptions, %zu publishers\n\n",
              info.brokers.size(), units.size(), info.publishers.size());

  std::vector<SubscriptionProfile> refs;
  std::vector<SubId> live0;
  std::uint64_t max_id = 0;
  refs.reserve(units.size());
  live0.reserve(units.size());
  for (const SubUnit& u : units) {
    refs.push_back(u.profile);
    live0.push_back(u.members.front());
    max_id = std::max(max_id, u.members.front().value());
  }

  IncrementalCram session(Croc::pool_from(info), units, info.publisher_table, cram_options());
  const auto t_init = Clock::now();
  const CramResult init = session.initialize();
  const double init_s = std::chrono::duration<double>(Clock::now() - t_init).count();
  if (!init.allocation.success) {
    std::fprintf(stderr, "[e12] initial convergence failed; cannot bench churn\n");
    return 1;
  }
  std::printf("warm start: %.3f s, %zu clusters on %zu brokers\n\n", init_s,
              init.allocation.unit_count(), init.allocation.brokers_used());

  ChurnOptions churn_opts;
  churn_opts.turnover_per_s = turnover;
  ChurnGenerator churn(churn_opts, std::move(refs), std::move(live0), max_id + 1,
                       Rng(cfg.scenario.seed ^ 0xe12u));

  const std::vector<int> widths = {5, 5, 5, 6, 11, 11, 12, 12, 7, 7};
  print_row({"step", "add", "rm", "live", "inc(s)", "scratch(s)", "inc-comps",
             "scr-comps", "dirty", "oracle"},
            widths);

  std::vector<std::string> rows;
  bool oracle_failed = false;
  double inc_wall = 0, scratch_wall = 0;
  std::size_t inc_comps = 0, scratch_comps = 0;
  std::size_t inc_alloc_runs = 0, scratch_alloc_runs = 0;
  std::size_t steps_run = 0;

  for (std::size_t step = 0; step < steps; ++step) {
    if (budget.skip("remaining churn steps")) break;
    ChurnBatch batch = churn.step();
    std::vector<SubUnit> added;
    added.reserve(batch.added.size());
    for (ChurnBatch::Arrival& a : batch.added) {
      added.push_back(make_subscription_unit(a.id, std::move(a.profile), info.publisher_table));
    }

    const auto t_inc = Clock::now();
    const CramResult inc = session.apply(std::move(added), batch.removed);
    const double inc_s = std::chrono::duration<double>(Clock::now() - t_inc).count();

    // The oracle's from-scratch run on the identical post-delta population
    // is the full-re-run side of the comparison; its wall clock is
    // dominated by that cram_allocate (the membership checks are linear).
    const auto t_scr = Clock::now();
    const DiffOracleResult oracle = diff_against_scratch(session, inc.allocation);
    const double scr_s = std::chrono::duration<double>(Clock::now() - t_scr).count();

    if (!oracle.ok) {
      std::fprintf(stderr, "[e12] step %zu: ORACLE FAILED: %s\n", step, oracle.detail.c_str());
      oracle_failed = true;
    }

    // Drift watchdog: when the incremental objective creeps toward the
    // oracle's epsilon bound (80% of the allowance), fold a from-scratch
    // convergence into the session at the next apply() rather than waiting
    // for a violation. GREENPS_CRAM_REBASELINE additionally forces a
    // periodic rebaseline every N deltas.
    const double drift_gap =
        oracle.scratch_objective > 0
            ? (oracle.incremental_objective - oracle.scratch_objective) /
                  oracle.scratch_objective
            : 0.0;
    if (drift_gap > 0.8 * DiffOracleOptions{}.objective_epsilon) {
      std::printf("  [drift %.3f%% approaches epsilon; rebaseline requested]\n",
                  drift_gap * 100.0);
      session.request_rebaseline();
    }

    const CramDeltaStats& d = session.last_delta();
    inc_wall += inc_s;
    scratch_wall += scr_s;
    inc_comps += inc.stats.closeness_computations;
    scratch_comps += oracle.scratch_stats.closeness_computations;
    inc_alloc_runs += inc.stats.allocation_runs;
    scratch_alloc_runs += oracle.scratch_stats.allocation_runs;
    ++steps_run;

    print_row({std::to_string(step), std::to_string(batch.added.size()),
               std::to_string(batch.removed.size()), std::to_string(churn.live().size()),
               fmt(inc_s, 5), fmt(scr_s, 5), std::to_string(inc.stats.closeness_computations),
               std::to_string(oracle.scratch_stats.closeness_computations),
               std::to_string(d.dirty_gifs), oracle.ok ? "ok" : "FAIL"},
              widths);

    rows.push_back(JsonObject()
                       .set_string("kind", "step")
                       .set_integer("step", step)
                       .set_number("turnover_per_s", turnover)
                       .set_integer("adds", batch.added.size())
                       .set_integer("removes", batch.removed.size())
                       .set_integer("live", churn.live().size())
                       .set_number("inc_wall_s", inc_s)
                       .set_number("scratch_wall_s", scr_s)
                       .set_integer("inc_closeness", inc.stats.closeness_computations)
                       .set_integer("scratch_closeness",
                                    oracle.scratch_stats.closeness_computations)
                       .set_integer("inc_alloc_runs", inc.stats.allocation_runs)
                       .set_integer("scratch_alloc_runs", oracle.scratch_stats.allocation_runs)
                       .set_integer("dirty_gifs", d.dirty_gifs)
                       .set_integer("gif_count", d.gif_count)
                       .set_integer("units_dissolved", d.units_dissolved)
                       .set_integer("survivors_reinserted", d.survivors_reinserted)
                       .set_integer("blacklist_cleared", d.blacklist_cleared)
                       .set_bool("rebaselined", d.rebaselined)
                       .set_bool("inc_success", inc.allocation.success)
                       .set_bool("oracle_ok", oracle.ok)
                       .set_string("oracle_detail", oracle.detail)
                       .set_number("inc_objective", oracle.incremental_objective)
                       .set_number("scratch_objective", oracle.scratch_objective)
                       .set_integer("inc_brokers", oracle.incremental_brokers)
                       .set_integer("scratch_brokers", oracle.scratch_brokers)
                       .render());
  }

  const double wall_speedup = inc_wall > 0 ? scratch_wall / inc_wall : 0;
  const double comp_speedup =
      inc_comps > 0 ? static_cast<double>(scratch_comps) / static_cast<double>(inc_comps) : 0;
  std::printf("\ntotals over %zu steps: incremental %.3f s / %zu comparisons, "
              "from-scratch %.3f s / %zu comparisons\n",
              steps_run, inc_wall, inc_comps, scratch_wall, scratch_comps);
  std::printf("speedup: %.1fx wall-clock, %.1fx comparisons\n", wall_speedup, comp_speedup);

  // ---- Croc-level scene: epoch-based gather reuse on the live simulator ----
  bool scene_ok = true;
  if (!budget.skip("epoch-reuse scene")) {
    CrocConfig ccfg = croc_config();
    ccfg.seed = cfg.scenario.seed;
    Croc croc(ccfg);
    const ReconfigurationReport r1 = croc.reconfigure_incremental(sim, BrokerId{0});
    sim.run(5.0);  // traffic only: no structural profile change
    const ReconfigurationReport r2 = croc.reconfigure_incremental(sim, BrokerId{0});
    const bool reused_all =
        r2.gather.brokers_reused > 0 && r2.gather.brokers_reused == r2.gather.brokers_answered;
    scene_ok = r1.success && r2.success && r2.incremental && reused_all;
    if (!scene_ok) {
      std::fprintf(stderr,
                   "[e12] epoch-reuse scene failed: r1=%s r2=%s incremental=%d reused=%zu/%zu\n",
                   failure_reason_name(r1.failure), failure_reason_name(r2.failure),
                   r2.incremental ? 1 : 0, r2.gather.brokers_reused,
                   r2.gather.brokers_answered);
    }
    std::printf("epoch reuse: second gather reused %zu/%zu broker BIAs (%zu probes) — %s\n",
                r2.gather.brokers_reused, r2.gather.brokers_answered, r2.gather.epoch_probes,
                scene_ok ? "ok" : "FAIL");
    JsonObject scene;
    scene.set_string("kind", "epoch_reuse")
        .set_bool("ok", scene_ok)
        .set_bool("bootstrap_success", r1.success)
        .set_bool("second_success", r2.success)
        .set_bool("second_incremental", r2.incremental)
        .set_integer("delta_removed_found", r2.delta.removed_found)
        .set_integer("delta_added_units", r2.delta.added_units);
    set_gather_stats(scene, r2.gather);
    rows.push_back(scene.render());
  }

  RunReport report = make_sim_report("e12");
  report.header()
      .set_integer("num_brokers", cfg.scenario.num_brokers)
      .set_integer("num_publishers", cfg.scenario.num_publishers)
      .set_integer("initial_subscriptions", units.size())
      .set_number("turnover_per_s", turnover)
      .set_integer("steps", steps_run)
      .set_number("initial_convergence_s", init_s)
      .set_number("incremental_wall_s", inc_wall)
      .set_number("scratch_wall_s", scratch_wall)
      .set_integer("incremental_closeness", inc_comps)
      .set_integer("scratch_closeness", scratch_comps)
      .set_integer("incremental_alloc_runs", inc_alloc_runs)
      .set_integer("scratch_alloc_runs", scratch_alloc_runs)
      .set_number("wall_speedup", wall_speedup)
      .set_number("comparison_speedup", comp_speedup)
      .set_integer("rebaselines", session.rebaselines());
  for (const std::string& row : rows) report.add_row(row);
  report.write("BENCH_churn.json", "rows");

  bool failed = oracle_failed || !scene_ok;
  // The >=10x floor only means something once the population dwarfs the
  // per-step delta; tiny smoke runs check the machinery, not the asymptote.
  if (!tiny_scale() && steps_run > 0 && (wall_speedup < 10.0 || comp_speedup < 10.0)) {
    std::fprintf(stderr, "[e12] speedup below the 10x floor (wall %.1fx, comparisons %.1fx)\n",
                 wall_speedup, comp_speedup);
    failed = true;
  }
  if (failed) {
    std::fprintf(stderr, "[e12] FAILURES above\n");
    return 1;
  }
  return 0;
}
