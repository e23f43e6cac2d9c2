// E11 — Reconfiguration under chaos (broker churn + degraded links).
//
// Each level profiles a clean deployment, reconfigures with CROC, applies
// the plan transactionally (health-probed), then measures under an
// escalating seeded fault schedule with retransmit-on-reconnect enabled.
// After every run the delivery-loss oracle replays the publication ledger
// and classifies missed deliveries as excused (attributable to an injected
// fault) or real. Crash-only levels must show zero real losses; the heavy
// level adds link flaps and probabilistic drops, which are genuinely lossy.
//
// A final scene forces the failure paths end-to-end: a broker named in a
// fresh plan is crashed mid-apply (the transactional apply must roll back),
// reconfiguring *through* the dead entry broker must fail with
// gather_failed, and a re-plan from a live entry must route around the hole
// and apply cleanly.
//
// Knobs: GREENPS_TINY=1 (smoke scale), GREENPS_FULL=1 (paper scale),
// GREENPS_BENCH_BUDGET_S. Results land in BENCH_chaos.json.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/faults.hpp"
#include "sim/loss_oracle.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

struct ChaosLevel {
  std::string name;
  FaultSchedule::ChaosConfig chaos;
  // Crash-only faults + retransmit-on-reconnect must lose nothing.
  bool lossless_expected = false;
};

std::vector<std::pair<BrokerId, BrokerId>> links_of(const Topology& t) {
  std::vector<std::pair<BrokerId, BrokerId>> links;
  for (const BrokerId a : t.brokers()) {
    for (const BrokerId b : t.neighbors(a)) {
      if (a.value() < b.value()) links.emplace_back(a, b);
    }
  }
  return links;
}

BrokerId first_alive(const Simulation& sim) {
  for (const BrokerId b : sim.deployment().topology.brokers()) {
    if (sim.broker_alive(b)) return b;
  }
  return BrokerId{0};
}

}  // namespace

int main() {
  const BenchBudget budget;
  ScenarioConfig sc;
  sc.num_brokers = full_scale() ? 80 : tiny_scale() ? 8 : 24;
  sc.num_publishers = full_scale() ? 40 : tiny_scale() ? 3 : 8;
  sc.subs_per_publisher = full_scale() ? 50 : tiny_scale() ? 8 : 25;
  sc.seed = 1107;
  const double profile_s = tiny_scale() ? 20.0 : 60.0;
  const double measure_s = tiny_scale() ? 30.0 : 90.0;

  std::printf("E11: reconfiguration under chaos, %zu brokers, %zu publishers %s\n\n",
              sc.num_brokers, sc.num_publishers,
              full_scale()   ? "[FULL SCALE]"
              : tiny_scale() ? "[tiny/smoke scale]"
                             : "[reduced scale]");

  std::vector<ChaosLevel> levels(4);
  levels[0].name = "none";
  levels[0].chaos.crashes = 0;
  levels[0].lossless_expected = true;
  levels[1].name = "light";
  levels[1].chaos.crashes = 1;
  levels[1].chaos.mean_outage_s = measure_s / 15.0;
  levels[1].lossless_expected = true;
  levels[2].name = "medium";
  levels[2].chaos.crashes = 3;
  levels[2].chaos.mean_outage_s = measure_s / 10.0;
  levels[2].lossless_expected = true;
  levels[3].name = "heavy";
  levels[3].chaos.crashes = 4;
  levels[3].chaos.mean_outage_s = measure_s / 8.0;
  levels[3].chaos.link_flaps = 2;
  levels[3].chaos.mean_link_outage_s = measure_s / 20.0;
  levels[3].chaos.drop_windows = 2;
  levels[3].chaos.drop_prob = 0.05;
  levels[3].chaos.latency_spikes = 2;

  const std::vector<int> widths = {8, 8, 10, 9, 9, 9, 10, 9, 9, 7};
  print_row({"level", "crashes", "delivered", "expected", "recorded", "excused", "replayed",
             "dropped", "real", "clean"},
            widths);

  FaultOptions fopts;
  fopts.retransmit_on_reconnect = true;
  LossAuditOptions audit_opts;
  audit_opts.outage_slack = seconds(0.5);
  audit_opts.horizon_slack = seconds(0.5);

  std::vector<std::string> rows;
  bool failed = false;

  for (std::size_t li = 0; li < levels.size(); ++li) {
    const ChaosLevel& level = levels[li];
    if (budget.skip((level.name + " (and any remaining levels)").c_str())) break;

    Simulation sim = make_simulation(sc, sim_options());
    sim.run(profile_s);
    CrocConfig cfg = croc_config();
    cfg.seed = sc.seed;
    Croc croc(cfg);
    const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
    if (!report.success) {
      std::fprintf(stderr, "[e11] %s: reconfiguration failed (%s)\n", level.name.c_str(),
                   failure_reason_name(report.failure));
      failed = true;
      continue;
    }
    ApplyResult apply = apply_plan_transactional(
        sim.deployment(), report.plan, [&sim](BrokerId b) { return sim.broker_alive(b); });
    if (!apply.success) {
      std::fprintf(stderr, "[e11] %s: apply rolled back unexpectedly (%s: %s)\n",
                   level.name.c_str(), failure_reason_name(apply.reason),
                   apply.detail.c_str());
      failed = true;
      continue;
    }
    sim.redeploy(std::move(apply.deployment));

    FaultSchedule::ChaosConfig chaos_cfg = level.chaos;
    chaos_cfg.horizon_s = measure_s;
    Rng chaos_rng(sc.seed ^ (0x517u + li));
    const Topology& topo = sim.deployment().topology;
    FaultSchedule schedule =
        FaultSchedule::chaos(chaos_cfg, topo.brokers(), links_of(topo), chaos_rng);
    const std::size_t fault_events = schedule.size();
    sim.install_faults(std::move(schedule), fopts);
    sim.run(measure_s);

    const SimSummary s = sim.summarize();
    const FaultStats fs = sim.fault_state().stats();
    const LossAudit audit = audit_losses(sim, make_quote_generator(sc), audit_opts);
    const bool level_clean =
        audit.false_positives == 0 && (!level.lossless_expected || audit.real_losses.empty());
    if (!level_clean) {
      std::fprintf(stderr,
                   "[e11] %s: %zu real losses / %llu false positives where none allowed\n",
                   level.name.c_str(), audit.real_losses.size(),
                   static_cast<unsigned long long>(audit.false_positives));
      failed = true;
    }

    print_row({level.name, std::to_string(fs.crashes), std::to_string(s.deliveries),
               std::to_string(audit.expected), std::to_string(audit.recorded),
               std::to_string(audit.excused), std::to_string(fs.retransmits_replayed),
               std::to_string(fs.arrivals_dropped + fs.deliveries_dropped),
               std::to_string(audit.real_losses.size()), level_clean ? "yes" : "NO"},
              widths);

    JsonObject level_row;
    level_row.set_string("kind", "level")
        .set_string("level", level.name)
        .set_bool("lossless_expected", level.lossless_expected)
        .set_bool("clean", level_clean)
        .set_integer("fault_events", fault_events)
        .set_integer("publications", s.publications)
        .set_integer("deliveries", s.deliveries)
        .set_number("avg_delivery_delay_ms", s.avg_delivery_delay_ms)
        .set_integer("crashes", fs.crashes)
        .set_integer("restarts", fs.restarts)
        .set_integer("pubs_dropped_at_source", fs.pubs_dropped_at_source)
        .set_integer("arrivals_dropped", fs.arrivals_dropped)
        .set_integer("deliveries_dropped", fs.deliveries_dropped)
        .set_integer("msgs_dropped_link_down", fs.msgs_dropped_link_down)
        .set_integer("msgs_dropped_random", fs.msgs_dropped_random)
        .set_integer("retransmits_replayed", fs.retransmits_replayed)
        .set_integer("retransmit_overflow", fs.retransmit_overflow)
        .set_integer("audit_expected", audit.expected)
        .set_integer("audit_recorded", audit.recorded)
        .set_integer("audit_excused", audit.excused)
        .set_integer("audit_out_of_window", audit.out_of_window)
        .set_integer("real_losses", audit.real_losses.size())
        .set_integer("false_positives", audit.false_positives);
    set_gather_stats(level_row, report.gather);
    rows.push_back(level_row.render());
  }

  // ---- forced failure paths: mid-apply crash, dead entry, re-plan ----
  if (!budget.skip("mid-apply crash scene")) {
    Simulation sim = make_simulation(sc, sim_options());
    sim.run(profile_s);
    CrocConfig cfg = croc_config();
    cfg.seed = sc.seed;
    Croc croc(cfg);
    const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
    bool rollback_ok = false;
    bool entry_failure_ok = false;
    bool recovered = false;
    if (report.success && !report.plan.allocated_brokers.empty()) {
      const BrokerId victim = report.plan.allocated_brokers.back();
      sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim, {}, 0, 0});
      const auto probe = [&sim](BrokerId b) { return sim.broker_alive(b); };
      // 1. The plan names the now-dead broker: apply must roll back.
      const ApplyResult apply = apply_plan_transactional(sim.deployment(), report.plan, probe);
      rollback_ok = !apply.success && apply.reason == FailureReason::kBrokerUnreachable;
      // 2. Entering the overlay at the dead broker: gather must fail, and a
      //    never-run plan must cost no migrations.
      const ReconfigurationReport via_dead = croc.reconfigure(sim, victim);
      entry_failure_ok = !via_dead.success &&
                         via_dead.failure == FailureReason::kGatherFailed &&
                         via_dead.migration.subscribers_moved == 0 &&
                         via_dead.migration.brokers_decommissioned == 0;
      // 3. Re-plan from a live entry: Phase 1 routes around the dead broker
      //    and the new plan applies cleanly without it.
      const ReconfigurationReport retry = croc.reconfigure(sim, first_alive(sim));
      if (retry.success && !retry.plan.overlay.has_broker(victim)) {
        ApplyResult apply2 = apply_plan_transactional(sim.deployment(), retry.plan, probe);
        if (apply2.success) {
          sim.redeploy(std::move(apply2.deployment));
          sim.install_faults(FaultSchedule{}, fopts);  // ledger only: audit the recovery
          sim.run(measure_s);
          const LossAudit audit = audit_losses(sim, make_quote_generator(sc), audit_opts);
          recovered = audit.clean();
        }
      }
      rows.push_back(JsonObject()
                         .set_string("kind", "mid_apply_crash")
                         .set_integer("victim_broker", victim.value())
                         .set_bool("rollback_ok", rollback_ok)
                         .set_integer("apply_steps_applied", apply.steps_applied)
                         .set_integer("apply_steps_total", apply.steps_total)
                         .set_bool("entry_failure_ok", entry_failure_ok)
                         .set_integer("gather_unreachable",
                                      retry.gather.unreachable_brokers)
                         .set_integer("gather_retries", retry.gather.retries)
                         .set_bool("recovered", recovered)
                         .render());
    }
    std::printf("\nmid-apply crash: rollback %s, dead-entry failure %s, recovery %s\n",
                rollback_ok ? "ok" : "MISSED", entry_failure_ok ? "ok" : "MISSED",
                recovered ? "ok" : "MISSED");
    if (!rollback_ok || !entry_failure_ok || !recovered) failed = true;
  }

  RunReport report = make_sim_report("e11");
  report.header()
      .set_integer("num_brokers", sc.num_brokers)
      .set_integer("num_publishers", sc.num_publishers)
      .set_number("profile_seconds", profile_s)
      .set_number("measure_seconds", measure_s);
  for (const std::string& row : rows) report.add_row(row);
  report.write("BENCH_chaos.json", "rows");

  if (failed) {
    std::fprintf(stderr, "[e11] FAILURES above\n");
    return 1;
  }
  return 0;
}
