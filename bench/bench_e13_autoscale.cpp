// E14 — Closed-loop elastic autoscaling over a diurnal day with flash crowds.
//
// Three provisioning policies run the identical MANUAL scenario through the
// identical diurnal + flash-crowd rate schedule (workload/diurnal.hpp:
// trough at t = 0, sinusoidal peak at mid-day, one crowd on the morning
// ramp and one in the evening trough):
//
//   static-peak    size once for the schedule's peak multiplier, never adapt
//   static-trough  size once for the trough multiplier, never adapt
//   controller     ControlLoop: sense -> estimate -> decide -> CROC plan ->
//                  transactional apply, consolidating at low load and
//                  commissioning parked brokers back under the crowds
//
// Each mode reports broker-hours (the energy proxy), the exact overall
// delivery-delay distribution (merged per-window histograms), and
// migrations/hour. The headline — the controller consumes fewer
// broker-hours than static-peak while holding p99 delivery delay within
// max(2x static-peak, static-peak + 100 ms) — is enforced with a non-zero
// exit at default/full scale (tiny smoke runs check the machinery, not the
// asymptote, and the enforcement is waived there and under a budget skip).
//
// Knobs: GREENPS_TINY=1 / GREENPS_FULL=1 scale, GREENPS_BENCH_BUDGET_S,
// GREENPS_AUTOSCALE_DAY_S (day length), GREENPS_AUTOSCALE_INTERVAL_S
// (control interval), GREENPS_HEADROOM_SCALE (seed the controller's learned
// allocator-headroom correction with a previous run's value; each mode row
// emits the run's final correction as learned_headroom_scale). Results land
// in BENCH_autoscale.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/control_loop.hpp"
#include "sweep_common.hpp"
#include "workload/diurnal.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

using Clock = std::chrono::steady_clock;

enum class Mode { kStaticPeak, kStaticTrough, kController };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStaticPeak: return "static-peak";
    case Mode::kStaticTrough: return "static-trough";
    case Mode::kController: return "controller";
  }
  return "?";
}

struct ModeResult {
  Mode mode = Mode::kController;
  bool ran = false;
  bool sized = false;  // static modes: the one-shot reconfigure applied
  double broker_hours = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double avg_ms = 0;
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  std::size_t min_brokers = 0;
  std::size_t max_brokers = 0;
  double migrations_per_hour = 0;
  double headroom_scale = 1.0;  // learned allocator-headroom correction
  control::ControlTotals totals;
  double wall_s = 0;
  std::vector<std::string> tick_rows;
};

ModeResult run_mode(Mode mode, const HarnessConfig& cfg, const DiurnalSchedule& schedule,
                    double run_s, double interval_s, double profile_s) {
  const auto t0 = Clock::now();
  ModeResult r;
  r.mode = mode;

  Simulation sim = make_simulation(cfg.scenario, cfg.sim);
  const control::RateModulator modulator(sim);

  if (mode == Mode::kController) {
    // Warm the CBC profiles at the day's opening rate; the loop itself
    // starts against the full deployment and consolidates on its own.
    modulator.apply(sim, schedule.multiplier(0));
    sim.run(profile_s);
  } else {
    // One-shot sizing: profile at the extremum this baseline provisions
    // for, reconfigure once, then never adapt again.
    const double size_mult =
        mode == Mode::kStaticPeak ? schedule.peak() : schedule.trough();
    modulator.apply(sim, size_mult);
    sim.run(profile_s);
    CrocConfig ccfg = croc_config();
    ccfg.seed = cfg.scenario.seed;
    ccfg.capacity_headroom = 0.9;
    Croc croc(ccfg);
    const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
    if (report.success) {
      ApplyResult applied = apply_plan_transactional(
          sim.deployment(), report.plan,
          [&sim](BrokerId b) { return sim.broker_alive(b); });
      if (applied.success) {
        sim.redeploy(std::move(applied.deployment));
        r.sized = true;
      }
    }
    if (!r.sized) {
      std::fprintf(stderr, "[e14] %s: one-shot sizing failed (%s); running unsized\n",
                   mode_name(mode), failure_reason_name(report.failure));
    }
  }
  sim.reset_metrics();

  control::ControlLoopConfig lc;
  lc.interval_s = interval_s;
  lc.enabled = mode == Mode::kController;
  lc.croc.seed = cfg.scenario.seed;
  lc.croc.cram = cram_options(lc.croc.cram);
  lc.initial_headroom_scale = env_double("GREENPS_HEADROOM_SCALE", 0);
  control::ControlLoop loop(sim, lc);

  r.min_brokers = r.max_brokers = sim.deployment().topology.broker_count();
  const auto steps = static_cast<std::size_t>(std::ceil(run_s / interval_s));
  for (std::size_t i = 0; i < steps; ++i) {
    // Piecewise-constant schedule: the window's rate is set at its start.
    modulator.apply(sim, schedule.multiplier(static_cast<double>(i) * interval_s));
    const control::TickRecord& rec = loop.step();
    r.min_brokers = std::min(r.min_brokers, rec.brokers_after);
    r.max_brokers = std::max(r.max_brokers, rec.brokers_after);
    if (mode == Mode::kController) {
      JsonObject row;
      row.set_string("kind", "tick")
          .set_number("time_s", rec.time_s)
          .set_string("action", control::action_name(rec.decision.action))
          .set_string("hold", control::hold_reason_name(rec.decision.hold))
          .set_bool("emergency", rec.decision.emergency)
          .set_bool("applied", rec.applied)
          .set_integer("brokers", rec.brokers_after)
          .set_number("ewma_peak_util", rec.estimate.ewma_peak_util)
          .set_number("ewma_avg_util", rec.estimate.ewma_avg_util)
          .set_number("max_backlog_s", rec.estimate.max_backlog_s)
          .set_number("in_rate_msg_s", rec.estimate.in_rate_msg_s)
          .set_integer("clients_moved", rec.migration.subscribers_moved +
                                            rec.migration.publishers_moved)
          .set_number("score_net", rec.score.net)
          .set_number("projected_util", rec.score.projected_util)
          .set_bool("delay_risk", rec.score.delay_risk)
          .set_string("plan_failure", failure_reason_name(rec.plan_failure))
          .set_string("apply_failure", failure_reason_name(rec.apply_failure));
      r.tick_rows.push_back(row.render());
    }
  }

  r.totals = loop.totals();
  r.headroom_scale = loop.headroom_scale();
  r.broker_hours = r.totals.broker_seconds / 3600.0;
  r.publications = r.totals.publications;
  r.deliveries = r.totals.deliveries;
  r.p50_ms = loop.delay_histogram().percentile_ms(0.50);
  r.p99_ms = loop.delay_histogram().percentile_ms(0.99);
  r.avg_ms = r.deliveries > 0
                 ? r.totals.delay_sum_ms / static_cast<double>(r.deliveries)
                 : 0.0;
  r.migrations_per_hour =
      static_cast<double>(r.totals.reconfigurations) / (run_s / 3600.0);
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.ran = true;
  return r;
}

}  // namespace

int main() {
  const BenchBudget budget;
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 100 : tiny_scale() ? 15 : 50;

  const double day_s = env_double("GREENPS_AUTOSCALE_DAY_S",
                                  full_scale() ? 1800 : tiny_scale() ? 300 : 900);
  // Two diurnal cycles by default: the first includes the controller's
  // cold start (it inherits the full peak deployment and has to discover
  // the trough), the second is steady state. Day-long averages over both
  // keep the cold-start cost in the books without letting it dominate.
  const double days = env_double("GREENPS_AUTOSCALE_DAYS", tiny_scale() ? 1 : 2);
  const double run_s = days * day_s;
  const double interval_s =
      env_double("GREENPS_AUTOSCALE_INTERVAL_S", tiny_scale() ? 5 : 10);
  const double profile_s = tiny_scale() ? 10 : 45;

  const DiurnalSchedule schedule(default_diurnal(day_s));
  std::printf("E14: elastic autoscaling, %.0f s day x %.0f, %.0f s control interval, "
              "multipliers %.2f..%.2f %s\n\n",
              day_s, days, interval_s, schedule.trough(), schedule.peak(),
              full_scale()   ? "[FULL SCALE]"
              : tiny_scale() ? "[tiny/smoke scale]"
                             : "[reduced scale]");

  const std::vector<Mode> modes = {Mode::kStaticPeak, Mode::kStaticTrough,
                                   Mode::kController};
  std::vector<ModeResult> results;
  for (const Mode m : modes) {
    if (budget.skip("remaining autoscale modes")) break;
    results.push_back(run_mode(m, cfg, schedule, run_s, interval_s, profile_s));
  }

  const std::vector<int> widths = {14, 9, 8, 9, 9, 9, 10, 9, 7};
  print_row({"mode", "brokers", "bk-hrs", "p50(ms)", "p99(ms)", "avg(ms)",
             "deliveries", "reconf/h", "wall"},
            widths);
  for (const ModeResult& r : results) {
    print_row({mode_name(r.mode),
               std::to_string(r.min_brokers) + ".." + std::to_string(r.max_brokers),
               fmt(r.broker_hours, 3), fmt(r.p50_ms, 1), fmt(r.p99_ms, 1),
               fmt(r.avg_ms, 1), std::to_string(r.deliveries),
               fmt(r.migrations_per_hour, 1), fmt(r.wall_s, 1)},
              widths);
  }

  const ModeResult* peak = nullptr;
  const ModeResult* trough = nullptr;
  const ModeResult* on = nullptr;
  for (const ModeResult& r : results) {
    if (r.mode == Mode::kStaticPeak) peak = &r;
    if (r.mode == Mode::kStaticTrough) trough = &r;
    if (r.mode == Mode::kController) on = &r;
  }

  std::vector<std::string> rows;
  for (const ModeResult& r : results) {
    rows.push_back(JsonObject()
                       .set_string("kind", "mode")
                       .set_string("mode", mode_name(r.mode))
                       .set_bool("sized", r.sized)
                       .set_number("broker_hours", r.broker_hours)
                       .set_integer("min_brokers", r.min_brokers)
                       .set_integer("max_brokers", r.max_brokers)
                       .set_number("p50_delivery_delay_ms", r.p50_ms)
                       .set_number("p99_delivery_delay_ms", r.p99_ms)
                       .set_number("avg_delivery_delay_ms", r.avg_ms)
                       .set_integer("publications", r.publications)
                       .set_integer("deliveries", r.deliveries)
                       .set_number("migrations_per_hour", r.migrations_per_hour)
                       .set_integer("reconfigurations", r.totals.reconfigurations)
                       .set_integer("commissions", r.totals.commissions)
                       .set_integer("consolidations", r.totals.consolidations)
                       .set_integer("clients_migrated", r.totals.clients_migrated)
                       .set_integer("plan_failures", r.totals.plan_failures)
                       .set_integer("apply_failures", r.totals.apply_failures)
                       .set_integer("plans_rejected", r.totals.plans_rejected)
                       .set_number("learned_headroom_scale", r.headroom_scale)
                       .set_number("wall_s", r.wall_s)
                       .render());
    for (const std::string& tick : r.tick_rows) rows.push_back(tick);
  }

  bool failed = false;
  if (peak != nullptr && on != nullptr) {
    const double saved_pct =
        peak->broker_hours > 0
            ? 100.0 * (peak->broker_hours - on->broker_hours) / peak->broker_hours
            : 0.0;
    const double p99_bound = std::max(2.0 * peak->p99_ms, peak->p99_ms + 100.0);
    std::printf("\ncontroller vs static-peak: %.1f%% broker-hours saved, "
                "p99 %.1f ms vs bound %.1f ms, %.1f migrations/hour\n",
                saved_pct, on->p99_ms, p99_bound, on->migrations_per_hour);
    if (trough != nullptr) {
      std::printf("static-trough floor: %.3f broker-hours at p99 %.1f ms — "
                  "the energy floor is unreachable without the delay blowup\n",
                  trough->broker_hours, trough->p99_ms);
    }
    if (!tiny_scale()) {
      if (on->broker_hours >= peak->broker_hours) {
        std::fprintf(stderr, "[e14] controller consumed %.3f broker-hours vs "
                             "static-peak %.3f — no energy saving\n",
                     on->broker_hours, peak->broker_hours);
        failed = true;
      }
      if (on->p99_ms > p99_bound) {
        std::fprintf(stderr, "[e14] controller p99 %.1f ms above the bound %.1f ms "
                             "(max(2x static-peak, static-peak + 100 ms))\n",
                     on->p99_ms, p99_bound);
        failed = true;
      }
      if (on->totals.commissions == 0 || on->totals.consolidations == 0) {
        std::fprintf(stderr, "[e14] controller never cycled capacity "
                             "(%zu commissions, %zu consolidations)\n",
                     on->totals.commissions, on->totals.consolidations);
        failed = true;
      }
    }
  } else {
    std::printf("\n(headline comparison skipped: not all modes ran)\n");
  }

  RunReport report = make_sim_report("e14");
  report.header()
      .set_integer("num_brokers", cfg.scenario.num_brokers)
      .set_integer("num_publishers", cfg.scenario.num_publishers)
      .set_integer("subs_per_publisher", cfg.scenario.subs_per_publisher)
      .set_number("day_length_s", day_s)
      .set_number("days", days)
      .set_number("control_interval_s", interval_s)
      .set_number("profile_s", profile_s)
      .set_number("schedule_peak", schedule.peak())
      .set_number("schedule_trough", schedule.trough())
      .set_string("p99_bound", "max(2x static-peak p99, static-peak p99 + 100 ms)");
  for (const std::string& row : rows) report.add_row(row);
  report.write("BENCH_autoscale.json", "rows");

  if (failed) {
    std::fprintf(stderr, "[e14] FAILURES above\n");
    return 1;
  }
  return 0;
}
