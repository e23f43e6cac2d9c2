// ControlLoop — closes the loop between the simulator's sensors and CROC.
//
// Owns the sense → estimate → decide → plan → apply cycle of elastic
// autoscaling: each step() advances the simulation by one control interval,
// folds the sampler rows it produced into the LoadEstimator, asks the
// ElasticController for a decision, and on Consolidate/Commission plans via
// Croc::reconfigure_incremental (warm session; the broker universe captured
// at construction rides along as CROC's reserve pool so parked brokers can
// be commissioned back) and applies via apply_plan_transactional with the
// simulator's liveness probe. A failed apply rolls back (the simulator
// never sees the half-applied plan), feeds the controller's backoff, and is
// re-planned once the backoff expires and the signal persists.
//
// Accounting is windowed: per-interval SimSummary harvests plus a merged
// delivery-delay histogram, so broker-hours, delivery counts and the exact
// overall p99 survive metric resets and redeploys. With `enabled = false`
// the loop senses and accounts but never plans — traffic is untouched, so
// summaries stay bit-identical to an uncontrolled run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "control/elastic_controller.hpp"
#include "control/failure_detector.hpp"
#include "control/load_estimator.hpp"
#include "croc/croc.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"

namespace greenps::control {

// Replays a rate schedule onto the simulator's publishers: captures every
// publisher's base rate at construction and scales all of them by a
// multiplier between run() slices (DiurnalSchedule supplies the series).
class RateModulator {
 public:
  explicit RateModulator(const Simulation& sim) {
    for (const auto& p : sim.deployment().publishers) {
      base_.emplace_back(p.client, p.rate_msg_s);
    }
  }

  void apply(Simulation& sim, double multiplier) const {
    for (const auto& [client, rate] : base_) {
      sim.set_publisher_rate(client, rate * multiplier);
    }
  }

 private:
  std::vector<std::pair<ClientId, MsgRate>> base_;
};

struct ControlLoopConfig {
  double interval_s = 10;          // sim seconds per control tick
  double sample_interval_ms = 1000;  // sampler period driven into the sim
  bool enabled = true;             // false: sense + account only
  ControllerConfig controller;
  CrocConfig croc;                 // seed/cram options; headroom is overridden
  // Allocator headroom per regime: consolidations pack close to full
  // capacity; commissions leave slack because the CBC publisher rates that
  // size the plan are lifetime averages and lag a rising flash crowd.
  double consolidate_headroom = 0.92;
  double commission_headroom = 0.60;

  // ---- self-healing ----
  // Emergency recovery on confirmed broker death: plan around the dead
  // broker (quarantined from CROC's pool and reserve), re-home its orphaned
  // clients, apply transactionally. Skips dwell/cooldown like the backlog
  // emergency; requires `enabled`.
  bool healing = true;
  // Detection windows. expected_interval_s is overwritten from
  // sample_interval_ms at construction (heartbeats ARE the sampler rows);
  // tune suspicion via the phi/min_missed knobs.
  FailureDetectorConfig detector;
  // How long a confirmed-dead broker stays unplannable after recovery
  // (loop-timeline seconds). Once expired the broker is commissionable
  // again — the simulator recreates decommissioned brokers fresh, so this
  // models the operator's repair/replacement time.
  double quarantine_s = 120;

  // Seed for the learned headroom correction, persisted from an earlier
  // run's headroom_scale(). <= 0 keeps the default 1.0 (trust the
  // allocator's model).
  double initial_headroom_scale = 0;
};

// Everything one control tick did, for reports and tests.
struct TickRecord {
  double time_s = 0;  // loop timeline at the decision point (end of the
                      // window; continuous across redeploys)
  LoadEstimate estimate;
  Decision decision;
  SimSummary window;  // the interval's metrics (pre-reset harvest)
  std::size_t brokers_before = 0;
  std::size_t brokers_after = 0;
  bool planned = false;
  bool applied = false;
  FailureReason plan_failure = FailureReason::kNone;
  FailureReason apply_failure = FailureReason::kNone;
  PlanScore score;  // consolidations only
  MigrationCost migration;
  // Failure-detector view at this tick (deployed brokers only).
  std::vector<BrokerId> suspects;
  std::vector<BrokerId> dead;
  std::size_t orphans_rehomed = 0;  // recovery ticks only
};

struct ControlTotals {
  double broker_seconds = 0;  // deployment size integrated over sim time
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  double delay_sum_ms = 0;  // for the overall mean
  std::size_t reconfigurations = 0;  // successful applies
  std::size_t commissions = 0;
  std::size_t consolidations = 0;
  std::size_t plan_failures = 0;
  std::size_t apply_failures = 0;   // rolled back
  std::size_t plans_rejected = 0;   // scored not-worth-it / no-op
  std::size_t clients_migrated = 0;
  std::size_t detections = 0;       // brokers confirmed dead by the detector
  std::size_t recoveries = 0;       // successful emergency recovery applies
  std::size_t orphans_rehomed = 0;  // clients re-attached by recoveries
};

// One completed emergency recovery: a broker the detector confirmed dead
// and the loop planned out of the deployment. recovered_s - detected_s is
// the detection->clients-reattached recovery time E15 bounds.
struct RecoveryRecord {
  BrokerId broker;
  double detected_s = 0;   // loop time the detector declared it dead
  double recovered_s = 0;  // loop time the recovery plan was applied
  std::size_t orphans = 0; // orphaned clients re-homed by this recovery
};

class ControlLoop {
 public:
  // Captures the current deployment as the broker universe: its capacities
  // are the commissionable pool for the whole run, so construct the loop
  // while the full (peak) deployment is live.
  ControlLoop(Simulation& sim, ControlLoopConfig config);

  // Advance one control interval and decide/act. The caller shapes traffic
  // (RateModulator) before each step.
  const TickRecord& step();
  // ceil(seconds / interval) steps.
  void run_for(double seconds);

  [[nodiscard]] const std::vector<TickRecord>& history() const { return history_; }
  [[nodiscard]] const ControlTotals& totals() const { return totals_; }
  // Exact distribution over the whole run (merged per-window histograms).
  [[nodiscard]] const DelayHistogram& delay_histogram() const { return delays_; }
  [[nodiscard]] Simulation& sim() { return sim_; }
  [[nodiscard]] const ElasticController& controller() const { return controller_; }
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }
  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries() const {
    return recoveries_;
  }
  // The learned allocator-headroom correction as of now — persist it across
  // runs by seeding the next run's initial_headroom_scale with this value.
  [[nodiscard]] double headroom_scale() const { return headroom_scale_; }

  // Test hook: runs after planning, before the transactional apply —
  // injecting a fault here exercises the rollback → backoff → re-plan path.
  std::function<void(const ReconfigurationPlan&)> pre_apply_hook;
  // Run around every successful redeploy: `pre` sees the outgoing epoch
  // while its ledgers are still live (per-epoch loss audits), `post` sees
  // the fresh deployment before any traffic (fault-option re-arm — a
  // redeploy clears the simulator's fault state).
  std::function<void(Simulation&)> pre_redeploy_hook;
  std::function<void(Simulation&)> post_redeploy_hook;

 private:
  void act(TickRecord& rec, double now_s);
  // Emergency re-homing after confirmed broker death(s).
  void recover(TickRecord& rec, double now_s);
  // Total-outage recovery: every deployed broker is dead or unreachable, so
  // there is no entry broker to gather through. Commissions fresh reserve
  // brokers (ascending id, never fewer than two when the reserve allows)
  // sized to the capacity that vanished, on a star overlay; clients are
  // re-homed by the caller's pin_and_rehome pass.
  [[nodiscard]] ReconfigurationReport bootstrap_plan() const;
  // Bounded-migration surgery on a recovery plan: pin every surviving
  // client to its current home (when the plan keeps that broker) and
  // round-robin the dead brokers' orphans across the surviving plan
  // brokers. Returns the orphan count; per_home gets per-dead-broker
  // counts for the recovery records.
  [[nodiscard]] std::size_t pin_and_rehome(ReconfigurationPlan& plan,
                                           const std::vector<BrokerId>& dead,
                                           std::map<BrokerId, std::size_t>& per_home) const;
  // Drop expired quarantine entries and push the active set to CROC.
  void refresh_quarantine(double now_s);
  // Shared apply tail: pre_apply_hook → transactional apply → redeploy (+
  // hooks, detector re-watch) → controller/totals bookkeeping. False means
  // the apply rolled back (backoff already fed).
  bool finish_apply(TickRecord& rec, const ReconfigurationReport& report,
                    ControlAction action, double now_s, std::size_t moved);
  [[nodiscard]] double capacity_of(const std::vector<BrokerId>& brokers) const;

  Simulation& sim_;
  ControlLoopConfig config_;
  ElasticController controller_;
  LoadEstimator estimator_;
  FailureDetector detector_;
  // Confirmed-dead brokers and when their quarantine lapses (loop time).
  std::map<BrokerId, double> quarantine_until_;
  std::vector<RecoveryRecord> recoveries_;
  Croc croc_;
  std::unordered_map<BrokerId, BrokerCapacity> universe_;
  // Learned correction for the allocator's packing model (which does not
  // charge overlay forwarding): tightened whenever a plan's projected
  // utilization trips the delay-risk gate, loosened past 1.0 — a deliberate
  // overbook of the nominal headroom — when measurements show the profiled
  // rates overstate the real load. 1.0 = trust the model.
  double headroom_scale_ = 1.0;
  static constexpr int kMaxPlanAttempts = 3;
  static constexpr double kMaxScale = 3.0;
  std::size_t consumed_rows_ = 0;
  // Continuous loop timeline (the sim's event clock restarts per redeploy).
  double now_s_ = 0;
  double last_deploy_s_ = 0;
  std::vector<TickRecord> history_;
  ControlTotals totals_;
  DelayHistogram delays_;
};

}  // namespace greenps::control
