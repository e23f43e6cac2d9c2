#include "control/control_loop.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace greenps::control {

ControlLoop::ControlLoop(Simulation& sim, ControlLoopConfig config)
    : sim_(sim),
      config_(config),
      controller_(config.controller),
      detector_([&] {
        // Heartbeats ARE the sampler rows, so the detector's notion of a
        // normal inter-arrival is the sampling period, not a free knob.
        FailureDetectorConfig d = config.detector;
        if (config.sample_interval_ms > 0) {
          d.expected_interval_s = config.sample_interval_ms / 1000.0;
        }
        return d;
      }()),
      croc_([&] {
        CrocConfig c = config.croc;
        c.capacity_headroom = config.consolidate_headroom;
        return c;
      }()) {
  universe_ = sim_.deployment().capacities;
  // Every universe broker is commissionable: parked ones answer no BIR, so
  // CROC plans them from this reserve capacity instead.
  std::vector<BrokerInfo> reserve;
  reserve.reserve(universe_.size());
  for (const auto& [id, cap] : universe_) {
    BrokerInfo info;
    info.id = id;
    info.delay = cap.delay;
    info.total_out_bw = cap.out_bw_kb_s;
    reserve.push_back(std::move(info));
  }
  croc_.set_reserve_brokers(std::move(reserve));
  if (config_.sample_interval_ms > 0) {
    sim_.set_sample_interval_ms(config_.sample_interval_ms);
  }
  consumed_rows_ = sim_.samples().row_count();
  // Construction is not a redeploy: nothing migrated and the caller's
  // profiles are warm, so the first decision owes dwell but not warm-up.
  last_deploy_s_ = -config_.controller.warmup_s;

  if (config_.initial_headroom_scale > 0) {
    headroom_scale_ = std::clamp(config_.initial_headroom_scale, 0.05, kMaxScale);
  }

  if (config_.healing) {
    std::vector<BrokerId> brokers = sim_.deployment().topology.brokers();
    std::sort(brokers.begin(), brokers.end());
    detector_.watch(brokers, now_s_);
  }
}

double ControlLoop::capacity_of(const std::vector<BrokerId>& brokers) const {
  double total = 0;
  for (const BrokerId b : brokers) {
    const auto it = universe_.find(b);
    if (it != universe_.end()) total += it->second.out_bw_kb_s;
  }
  return total;
}

const TickRecord& ControlLoop::step() {
  GREENPS_SPAN("control.tick");
  sim_.run(config_.interval_s);
  // The simulator's event clock restarts at zero on every redeploy; the
  // loop keeps its own continuous timeline for cooldowns and reports.
  now_s_ += config_.interval_s;
  const double now_s = now_s_;

  TickRecord rec;
  rec.time_s = now_s;
  rec.window = sim_.summarize();
  rec.brokers_before = sim_.deployment().topology.broker_count();
  rec.brokers_after = rec.brokers_before;

  totals_.broker_seconds += static_cast<double>(rec.brokers_before) * config_.interval_s;
  totals_.publications += rec.window.publications;
  totals_.deliveries += rec.window.deliveries;
  totals_.delay_sum_ms +=
      rec.window.avg_delivery_delay_ms * static_cast<double>(rec.window.deliveries);
  delays_.merge(sim_.metrics().delay_histogram());

  const std::size_t row_begin = consumed_rows_;
  rec.estimate = estimator_.update(sim_.samples(), consumed_rows_);
  consumed_rows_ = sim_.samples().row_count();

  if (config_.healing) {
    // The sampler rows double as heartbeats: take_sample skips crashed
    // brokers, so silence is the failure signal. Row times are on the sim's
    // per-epoch clock; translate them onto the loop's continuous timeline.
    const auto& rows = sim_.samples().rows();
    const double offset = now_s - to_seconds(sim_.now_us());
    for (std::size_t i = row_begin; i < rows.size(); ++i) {
      detector_.heartbeat(BrokerId{rows[i].key}, rows[i].time_s + offset);
    }
    detector_.evaluate(now_s);
    rec.suspects = detector_.suspects();
    rec.dead = detector_.dead();
    totals_.detections = detector_.dead_transitions();
    obs::MetricsRegistry::global()
        .gauge("control.brokers_dead")
        .set(static_cast<double>(rec.dead.size()));
  }

  if (config_.enabled) {
    rec.decision = controller_.decide(rec.estimate, now_s, now_s - last_deploy_s_);
    if (config_.healing && !rec.dead.empty()) {
      // Confirmed death overrides the load-driven decision: recovery skips
      // dwell and cooldown like the backlog emergency. It still respects
      // the failed-apply backoff — the failed apply usually WAS the last
      // recovery attempt, and re-planning every tick against the same
      // broken pool burns planner time without new information.
      rec.decision = controller_.in_backoff(now_s)
                         ? Decision{ControlAction::kHold, HoldReason::kBackoff, true}
                         : Decision{ControlAction::kRecover, HoldReason::kNone, true};
    } else if (config_.healing && !rec.suspects.empty() &&
               rec.decision.action == ControlAction::kConsolidate) {
      // Suspects gate consolidation (not commission): packing tighter while
      // a broker wobbles risks planning onto a dying broker and then
      // immediately re-migrating everything in the recovery — flapping.
      rec.decision = Decision{ControlAction::kHold, HoldReason::kDegraded, false};
    }
  } else {
    rec.decision = Decision{ControlAction::kHold, HoldReason::kNone, false};
  }
  // Window boundary: the next interval measures from zero (the merged
  // histogram above keeps the overall distribution exact).
  sim_.reset_metrics();

  obs::MetricsRegistry::global()
      .gauge("control.brokers")
      .set(static_cast<double>(rec.brokers_before));

  if (rec.decision.action != ControlAction::kHold) act(rec, now_s);

  history_.push_back(std::move(rec));
  return history_.back();
}

void ControlLoop::act(TickRecord& rec, double now_s) {
  if (rec.decision.action == ControlAction::kRecover) {
    recover(rec, now_s);
    return;
  }

  auto& reg = obs::MetricsRegistry::global();
  const ControlAction action = rec.decision.action;

  // Regular plans must exclude quarantined (confirmed-dead) brokers too:
  // a dead broker answers no BIR, so without the quarantine the reserve
  // splice would happily re-commission it and the apply probe would bounce
  // every plan until its quarantine lapsed.
  refresh_quarantine(now_s);

  // Deterministic entry point: the smallest live broker in the overlay.
  std::vector<BrokerId> ids = sim_.deployment().topology.brokers();
  std::sort(ids.begin(), ids.end());
  BrokerId entry{};
  bool found = false;
  for (const BrokerId b : ids) {
    if (sim_.broker_alive(b)) {
      entry = b;
      found = true;
      break;
    }
  }
  if (!found) {
    rec.plan_failure = FailureReason::kGatherFailed;
    totals_.plan_failures += 1;
    controller_.on_apply_failed(now_s);
    return;
  }

  // The allocator packs by profiled publication rates, which charge each
  // delivery once at its home broker; the measured link utilization pays it
  // at every overlay hop. headroom_scale_ is the learned correction: a
  // delay-risk rejection below tightens it from the measured/projected
  // ratio and re-plans with more brokers. It persists across ticks — the
  // mismatch is a property of the workload's fanout, not of one window.
  ReconfigurationReport report;
  std::size_t moved = 0;
  for (int attempt = 0;; ++attempt) {
    const double base = action == ControlAction::kCommission
                            ? config_.commission_headroom
                            : config_.consolidate_headroom;
    // Changing the headroom ends the warm session (rebootstrap), so it only
    // moves when the direction or the learned scale actually changes.
    croc_.set_capacity_headroom(std::max(0.05, base * headroom_scale_));
    {
      GREENPS_SPAN_TAGGED("control.plan", static_cast<std::uint64_t>(action));
      report = croc_.reconfigure_incremental(sim_, entry);
    }
    rec.planned = true;
    if (!report.success) {
      rec.plan_failure = report.failure;
      totals_.plan_failures += 1;
      reg.counter("control.plan_failures").add(1);
      // Infeasible plans back off like failed applies: re-planning every
      // tick against the same pool would just burn planner time.
      controller_.on_apply_failed(now_s);
      return;
    }

    rec.migration = report.migration;
    const std::size_t planned_brokers = report.plan.allocated_brokers.size();
    moved = report.migration.subscribers_moved + report.migration.publishers_moved;
    const bool noop = moved == 0 && report.migration.brokers_commissioned == 0 &&
                      report.migration.brokers_decommissioned == 0;

    // Measured projection of the plan: the EWMA peak per-broker utilization
    // scaled by the capacity ratio. The estimator is reset on every
    // redeploy, so this EWMA describes the current deployment only — never
    // the ghost of a crisis an earlier commission already relieved.
    const double cap_planned = capacity_of(report.plan.allocated_brokers);
    const double proj_peak =
        cap_planned > 0
            ? rec.estimate.ewma_peak_util * capacity_of(ids) / cap_planned
            : 0.0;
    const double target = config_.controller.consolidate_util_target;

    if (action == ControlAction::kCommission) {
      const bool stale = noop || planned_brokers <= rec.brokers_before;
      // Size the growth toward the target utilization: a plan whose
      // projected peak still clears the band adds too little; one far
      // below 0.75x target adds too much (the overshoot that a later
      // consolidation would have to claw back, migrating everyone twice).
      const bool too_hot = proj_peak > config_.controller.util_high;
      const bool too_cold = proj_peak < 0.75 * target;
      if ((stale || too_hot || too_cold) && attempt < kMaxPlanAttempts) {
        if (stale) {
          // The profiled rates say current capacity suffices while the
          // measured load says otherwise (profiles are lifetime averages
          // and do not see the backlog): tighten until the plan grows —
          // proportionally when the projection is usable, bluntly when the
          // trigger was pure backlog at modest utilization.
          reg.counter("control.stale_profile_rejections").add(1);
          const double factor = proj_peak > target ? target / proj_peak : 0.7;
          headroom_scale_ = std::clamp(headroom_scale_ * factor, 0.05, kMaxScale);
        } else {
          headroom_scale_ = std::clamp(
              headroom_scale_ * target / std::max(proj_peak, 1e-3), 0.05, kMaxScale);
          reg.counter(too_hot ? "control.commission_hot_retunes"
                              : "control.commission_cold_retunes")
              .add(1);
        }
        reg.gauge("control.headroom_scale").set(headroom_scale_);
        continue;
      }
      if (stale) {
        // Out of attempts and the plan never grew: reject, cool down.
        controller_.on_plan_rejected(action, now_s);
        totals_.plans_rejected += 1;
        return;
      }
      // A hot/cold plan that at least grows is still applied at this
      // point — under a commission signal, imperfect capacity beats none.
    } else {
      rec.score = score_consolidation(config_.controller, rec.brokers_before,
                                      planned_brokers, report.migration,
                                      rec.estimate.avg_util, capacity_of(ids),
                                      cap_planned);
      reg.gauge("control.score_net").set(rec.score.net);
      // Predict the post-repack hottest broker: the avg-based capacity
      // scaling times the measured peak/avg skew. The skew is clamped —
      // repacking onto fewer brokers evens out the extreme imbalance of a
      // sparse deployment, so today's raw ratio overstates tomorrow's.
      const double skew = std::clamp(
          rec.estimate.ewma_avg_util > 1e-6
              ? rec.estimate.ewma_peak_util / rec.estimate.ewma_avg_util
              : 1.0,
          1.0, 1.6);
      const double proj = rec.score.projected_util * skew;
      // Calibrate the learned scale toward the target: too hot (the packed
      // peak would ride a rising ramp straight out of the band and flap
      // back) means the model still undercounts; far too cold means the
      // scale has over-corrected (e.g. after a commission surge) and the
      // plan keeps brokers the load cannot fill — including noop plans
      // that refuse to shrink at all. Both retune and re-plan.
      const bool too_hot = proj > 1.2 * target;
      const bool too_cold = proj > 0 && proj < 0.8 * target;
      if ((too_hot || too_cold) && attempt < kMaxPlanAttempts) {
        headroom_scale_ =
            std::clamp(headroom_scale_ * target / std::max(proj, 1e-3), 0.05, kMaxScale);
        reg.gauge("control.headroom_scale").set(headroom_scale_);
        reg.counter(too_cold ? "control.slack_retunes"
                             : "control.delay_risk_retunes")
            .add(1);
        continue;
      }
      if (noop) {
        reg.counter("control.noop_plans").add(1);
        controller_.on_plan_rejected(action, now_s);
        totals_.plans_rejected += 1;
        return;
      }
      if (rec.score.delay_risk || proj > config_.controller.consolidate_util_cap) {
        reg.counter("control.delay_risk_rejections").add(1);
        controller_.on_plan_rejected(action, now_s);
        totals_.plans_rejected += 1;
        return;
      }
      if (!rec.score.worth_applying()) {
        reg.counter("control.not_worth_rejections").add(1);
        controller_.on_plan_rejected(action, now_s);
        totals_.plans_rejected += 1;
        return;
      }
    }
    break;
  }

  if (!finish_apply(rec, report, action, now_s, moved)) return;

  if (action == ControlAction::kCommission) {
    totals_.commissions += 1;
    reg.counter("control.commissions").add(1);
    obs::trace_instant("control.commission", rec.brokers_after);
  } else {
    totals_.consolidations += 1;
    reg.counter("control.consolidations").add(1);
    obs::trace_instant("control.consolidate", rec.brokers_after);
  }
}

bool ControlLoop::finish_apply(TickRecord& rec, const ReconfigurationReport& report,
                               ControlAction action, double now_s, std::size_t moved) {
  auto& reg = obs::MetricsRegistry::global();
  if (pre_apply_hook) pre_apply_hook(report.plan);

  // The commissionable universe rides along so the validator accepts plan
  // brokers that are currently parked (powered off, not in the overlay).
  Deployment base = sim_.deployment();
  for (const auto& [id, cap] : universe_) base.capacities.try_emplace(id, cap);

  // Health probe: a broker is unreachable only if it is deployed AND
  // crashed. Parked universe brokers are powered off, not failed — they
  // must probe healthy or no commission could ever succeed.
  const auto probe = [this](BrokerId b) {
    return !sim_.deployment().topology.has_broker(b) || sim_.broker_alive(b);
  };
  ApplyResult applied;
  {
    GREENPS_SPAN_TAGGED("control.apply", static_cast<std::uint64_t>(action));
    applied = apply_plan_transactional(base, report.plan, probe);
  }
  if (!applied.success) {
    rec.apply_failure = applied.reason;
    totals_.apply_failures += 1;
    reg.counter("control.apply_failures").add(1);
    obs::trace_instant("control.rollback", static_cast<std::uint64_t>(applied.steps_applied));
    controller_.on_apply_failed(now_s);
    return false;
  }

  if (pre_redeploy_hook) pre_redeploy_hook(sim_);
  sim_.redeploy(std::move(applied.deployment));
  if (post_redeploy_hook) post_redeploy_hook(sim_);
  // Redeploy cleared the sampler with the old epoch.
  consumed_rows_ = sim_.samples().row_count();
  // The EWMA state describes a deployment that no longer exists — re-seed
  // it from the new one's first window rather than averaging across the
  // discontinuity.
  estimator_.reset();
  last_deploy_s_ = now_s;
  rec.applied = true;
  rec.brokers_after = sim_.deployment().topology.broker_count();
  if (config_.healing) {
    // Fresh watch list: departed brokers stop being tracked, newly
    // commissioned ones start with a grace heartbeat (their first sampler
    // row is up to a full interval away).
    std::vector<BrokerId> brokers = sim_.deployment().topology.brokers();
    std::sort(brokers.begin(), brokers.end());
    detector_.watch(brokers, now_s);
  }
  controller_.on_applied(action, now_s);
  totals_.reconfigurations += 1;
  totals_.clients_migrated += moved;
  reg.counter("control.clients_migrated").add(moved);
  return true;
}

void ControlLoop::recover(TickRecord& rec, double now_s) {
  auto& reg = obs::MetricsRegistry::global();
  const std::vector<BrokerId> dead = detector_.dead();

  // Capture detection times now: the post-apply watch() drops dead tracks.
  std::vector<RecoveryRecord> pending;
  pending.reserve(dead.size());
  for (const BrokerId b : dead) {
    const double since = detector_.dead_since(b);
    pending.push_back({b, since >= 0 ? since : now_s, now_s, 0});
    quarantine_until_[b] = now_s + config_.quarantine_s;
  }
  refresh_quarantine(now_s);

  // Deterministic entry: the smallest deployed broker that is actually
  // reachable and not one of the condemned.
  std::vector<BrokerId> ids = sim_.deployment().topology.brokers();
  std::sort(ids.begin(), ids.end());
  BrokerId entry{};
  bool found = false;
  for (const BrokerId b : ids) {
    if (detector_.health(b) == BrokerHealth::kDead) continue;
    if (sim_.broker_alive(b)) {
      entry = b;
      found = true;
      break;
    }
  }
  ReconfigurationReport report;
  if (found) {
    // Recovery plans size like commissions: the survivors are about to
    // absorb the dead brokers' whole client load, and the profiled rates
    // that size the plan have not seen it yet.
    croc_.set_capacity_headroom(
        std::max(0.05, config_.commission_headroom * headroom_scale_));
    {
      GREENPS_SPAN_TAGGED("control.plan",
                          static_cast<std::uint64_t>(ControlAction::kRecover));
      report = croc_.reconfigure_incremental(sim_, entry);
    }
  } else {
    // Total outage (e.g. the deployment had consolidated to a single broker
    // and that broker died): no survivor can answer Phase 1, so gather-based
    // planning is impossible. The control plane still holds the broker
    // universe and the client registry, so it bootstraps: commission fresh
    // reserve brokers and re-home everybody onto them.
    GREENPS_SPAN_TAGGED("control.plan",
                        static_cast<std::uint64_t>(ControlAction::kRecover));
    report = bootstrap_plan();
  }
  rec.planned = true;
  if (!report.success) {
    rec.plan_failure = report.failure;
    totals_.plan_failures += 1;
    reg.counter("control.plan_failures").add(1);
    controller_.on_apply_failed(now_s);
    return;
  }

  // The dead brokers' clients never answered Phase 1, so the plan does not
  // place them (they would all default to the plan root): re-home them
  // explicitly, and pin everyone else — an emergency migrates the orphans,
  // not the whole population. In the bootstrap case the entire deployed
  // fleet is condemned, which makes every client an orphan.
  std::vector<BrokerId> condemned = dead;
  if (!found) {
    condemned = sim_.deployment().topology.brokers();
    std::sort(condemned.begin(), condemned.end());
  }
  std::map<BrokerId, std::size_t> orphans_per_home;
  rec.orphans_rehomed = pin_and_rehome(report.plan, condemned, orphans_per_home);
  report.migration = migration_cost(sim_.deployment(), report.plan);
  rec.migration = report.migration;
  const std::size_t moved =
      report.migration.subscribers_moved + report.migration.publishers_moved;

  if (!finish_apply(rec, report, ControlAction::kRecover, now_s, moved)) return;

  for (auto& r : pending) {
    r.orphans = orphans_per_home[r.broker];
    reg.counter("control.recoveries").add(1);
    obs::trace_instant("control.recover", static_cast<std::uint64_t>(r.broker.value()));
    recoveries_.push_back(r);
  }
  totals_.recoveries += 1;
  totals_.orphans_rehomed += rec.orphans_rehomed;
}

ReconfigurationReport ControlLoop::bootstrap_plan() const {
  ReconfigurationReport report;
  // The whole deployed fleet is condemned; commission capacity to match it.
  const double lost = capacity_of(sim_.deployment().topology.brokers());
  std::vector<BrokerId> candidates;
  candidates.reserve(universe_.size());
  for (const auto& [b, cap] : universe_) {
    if (quarantine_until_.contains(b)) continue;
    if (sim_.deployment().topology.has_broker(b)) continue;
    candidates.push_back(b);
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.empty()) {
    // Every reserve broker is quarantined too: nothing to bootstrap onto.
    report.failure = FailureReason::kPhase2Insufficient;
    return report;
  }
  // Ascending ids until the vanished capacity is replaced — but never a
  // single broker when the reserve has two: a one-broker deployment is the
  // unrecoverable single point of failure that forced this bootstrap. The
  // regular controller re-sizes the fleet on subsequent ticks.
  std::vector<BrokerId> selected;
  double cap = 0;
  for (const BrokerId b : candidates) {
    if (selected.size() >= 2 && cap >= lost) break;
    selected.push_back(b);
    cap += capacity_of({b});
  }
  ReconfigurationPlan& plan = report.plan;
  plan.root = selected.front();
  for (const BrokerId b : selected) plan.overlay.add_broker(b);
  for (std::size_t i = 1; i < selected.size(); ++i) {
    plan.overlay.add_link(plan.root, selected[i]);
  }
  plan.allocated_brokers = selected;
  plan.cluster_count = 1;
  report.success = true;
  return report;
}

std::size_t ControlLoop::pin_and_rehome(ReconfigurationPlan& plan,
                                        const std::vector<BrokerId>& dead,
                                        std::map<BrokerId, std::size_t>& per_home) const {
  const auto is_dead = [&dead](BrokerId b) {
    return std::find(dead.begin(), dead.end(), b) != dead.end();
  };
  // Sorted surviving plan brokers: a deterministic round-robin target list.
  std::vector<BrokerId> targets;
  targets.reserve(plan.allocated_brokers.size());
  for (const BrokerId b : plan.allocated_brokers) {
    if (!is_dead(b)) targets.push_back(b);
  }
  std::sort(targets.begin(), targets.end());
  if (targets.empty()) return 0;

  std::size_t rr = 0;
  std::size_t orphans = 0;
  const Deployment& cur = sim_.deployment();
  for (const auto& s : cur.subscribers) {
    if (!is_dead(s.home)) {
      if (plan.overlay.has_broker(s.home)) plan.subscriber_home[s.sub] = s.home;
      continue;
    }
    plan.subscriber_home[s.sub] = targets[rr++ % targets.size()];
    per_home[s.home] += 1;
    orphans += 1;
  }
  for (const auto& p : cur.publishers) {
    if (!is_dead(p.home)) {
      if (plan.overlay.has_broker(p.home)) plan.publisher_home[p.client] = p.home;
      continue;
    }
    plan.publisher_home[p.client] = targets[rr++ % targets.size()];
    per_home[p.home] += 1;
    orphans += 1;
  }
  return orphans;
}

void ControlLoop::refresh_quarantine(double now_s) {
  std::vector<BrokerId> active;
  for (auto it = quarantine_until_.begin(); it != quarantine_until_.end();) {
    if (it->second <= now_s) {
      it = quarantine_until_.erase(it);
    } else {
      active.push_back(it->first);
      ++it;
    }
  }
  croc_.set_quarantined_brokers(std::move(active));
}

void ControlLoop::run_for(double seconds) {
  const auto steps = static_cast<std::size_t>(std::ceil(seconds / config_.interval_s));
  for (std::size_t i = 0; i < steps; ++i) step();
}

}  // namespace greenps::control
