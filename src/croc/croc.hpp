// CROC — Coordinator for Reconfiguring the Overlay and Clients.
//
// The external publish/subscribe client of Section III: connects to one
// broker, runs Phase 1 (BIR/BIA gathering), Phase 2 (subscription
// allocation), Phase 3 (recursive overlay construction) and GRAPE, and
// emits a ReconfigurationPlan the deployment can apply.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "alloc/cram.hpp"
#include "alloc/cram_incremental.hpp"
#include "common/rng.hpp"
#include "croc/info_gathering.hpp"
#include "croc/reconfig_plan.hpp"
#include "grape/grape.hpp"
#include "overlay_build/recursive_builder.hpp"

namespace greenps {

enum class Phase2Algorithm {
  kFbf,
  kBinPacking,
  kCram,
  kPairwiseK,  // related work: pairwise clustering, K from CRAM-XOR
  kPairwiseN,  // related work: pairwise clustering, one cluster per broker
};

[[nodiscard]] const char* algorithm_name(Phase2Algorithm a);

struct CrocConfig {
  Phase2Algorithm algorithm = Phase2Algorithm::kCram;
  CramOptions cram;  // metric + optimization toggles (CRAM only)
  OverlayBuildOptions overlay;
  bool run_grape = true;
  GrapeMode grape_mode = GrapeMode::kMinimizeLoad;
  // PAIRWISE-K cluster count; 0 = derive by running CRAM with XOR, as the
  // paper does.
  std::size_t pairwise_k = 0;
  // Fraction of each broker's reported output bandwidth the allocators may
  // plan against. 1.0 maximizes utilization (the paper's objective); lower
  // values trade brokers for delivery-delay headroom (less queueing).
  double capacity_headroom = 1.0;
  std::uint64_t seed = 1;
};

// How disruptive applying a plan would be: every client that must detach
// from its current broker and re-attach elsewhere.
struct MigrationCost {
  std::size_t subscribers_moved = 0;
  std::size_t subscribers_total = 0;
  std::size_t publishers_moved = 0;
  std::size_t publishers_total = 0;
  std::size_t brokers_decommissioned = 0;  // in the old overlay, not the new
  std::size_t brokers_commissioned = 0;    // in the new overlay, not the old
};

struct ReconfigurationReport {
  bool success = false;
  // Why success is false; kNone while success is true.
  FailureReason failure = FailureReason::kNone;
  ReconfigurationPlan plan;
  GatherStats gather;
  CramStats cram;                // populated when CRAM ran
  OverlayBuildStats overlay;     // populated for recursive construction
  MigrationCost migration;       // populated by reconfigure()
  // True when the plan came from the incremental path (session deltas
  // reconverged in place instead of a from-scratch Phase 2).
  bool incremental = false;
  CramDeltaStats delta;          // populated by incremental plans
  std::size_t allocated_brokers = 0;
  std::size_t cluster_count = 0;
  double phase1_seconds = 0;
  double phase2_seconds = 0;
  double phase3_seconds = 0;
  double grape_seconds = 0;
};

// Compare a plan against the currently-deployed client placement.
[[nodiscard]] MigrationCost migration_cost(const Deployment& current,
                                           const ReconfigurationPlan& plan);

// One batch of subscription churn between two reconfigurations, as the
// incremental planner consumes it.
struct SubscriptionDelta {
  // Arrivals, as Phase 1 would report them (home broker + local info).
  std::vector<SubscriptionRecord> added;
  // Departures, by subscription id.
  std::vector<SubId> removed;

  [[nodiscard]] bool empty() const { return added.empty() && removed.empty(); }
  [[nodiscard]] std::size_t size() const { return added.size() + removed.size(); }
};

class Croc {
 public:
  // Out-of-line (with the destructor and moves): Session is incomplete
  // here, and unique_ptr<Session> needs the complete type to instantiate.
  explicit Croc(CrocConfig config);
  ~Croc();
  Croc(Croc&&) noexcept;
  Croc& operator=(Croc&&) noexcept;

  // Run all phases against a live simulation, entering the overlay at
  // `entry`. The returned plan is not applied; pass it to
  // apply_plan_transactional(). Tolerates crashed brokers: Phase 1 times
  // out on them (bounded retry) and plans from whatever answered; a crashed
  // *entry* broker fails the report with FailureReason::kGatherFailed.
  [[nodiscard]] ReconfigurationReport reconfigure(const Simulation& sim, BrokerId entry);

  // Phases 2+3 from already-gathered information (also used by benches that
  // skip the simulator).
  [[nodiscard]] ReconfigurationReport plan_from_info(const GatheredInfo& info);

  // Helpers shared with benches/tests.
  [[nodiscard]] static std::vector<SubUnit> units_from(const GatheredInfo& info);
  [[nodiscard]] static std::vector<AllocBroker> pool_from(const GatheredInfo& info);

  // ---- incremental reconfiguration (subscription churn) ----
  //
  // A session keeps Phase 2's converged CRAM state (and the Phase 1 BIA
  // cache) alive between reconfigurations. Deltas reconverge only the dirty
  // neighborhoods, so per-step cost scales with the churn, not the live
  // population. Sessions always allocate with CRAM (config.cram options),
  // whatever `algorithm` says — the other allocators have no incremental
  // form. The emitted plan is a complete ReconfigurationPlan; feed it to
  // apply_plan_transactional as usual (only clients whose home actually
  // changed migrate, which migration_cost quantifies).

  // Start a session from already-gathered info: full Phase 2 convergence
  // (the warm state every later delta starts from), then Phases 3 + GRAPE.
  [[nodiscard]] ReconfigurationReport begin_incremental(const GatheredInfo& info);

  // Apply one delta batch to the live session and emit a fresh plan from
  // the incrementally reconverged allocation. Fails with
  // FailureReason::kNoIncrementalSession when no session is live.
  [[nodiscard]] ReconfigurationReport plan_incremental(const SubscriptionDelta& delta);

  // Incremental counterpart of reconfigure(): epoch-based Phase 1 (brokers
  // whose profile epoch is unchanged reuse their cached BIA), delta derived
  // by diffing the gathered subscriptions against the session's live set.
  // Without a session — or when the broker pool or publisher set changed,
  // which invalidates the warm state — it bootstraps a fresh session via a
  // full gather + begin_incremental.
  [[nodiscard]] ReconfigurationReport reconfigure_incremental(const Simulation& sim,
                                                              BrokerId entry);

  [[nodiscard]] bool has_session() const { return session_ != nullptr; }
  // The session's live CRAM state, for differential oracles. nullptr when
  // no session is live.
  [[nodiscard]] const IncrementalCram* session_cram() const;
  void end_incremental();

  // ---- elastic operation (the autoscaling controller) ----

  // Parked capacity the allocators may commission even though the brokers
  // are not in the live overlay and answer no BIR (a consolidation powered
  // them off). reconfigure()/reconfigure_incremental() splice any reserve
  // entry whose id Phase 1 did not report into the gathered pool, so plans
  // can scale the deployment back out under a flash crowd. Because the
  // spliced pool covers the same broker universe whether a broker is live
  // or parked, commissioning/decommissioning does not trip the structural
  // session reset — the warm incremental state survives controller epochs.
  // Entries are kept sorted by id; pass an empty vector to clear.
  void set_reserve_brokers(std::vector<BrokerInfo> reserve);
  [[nodiscard]] const std::vector<BrokerInfo>& reserve_brokers() const { return reserve_; }

  // Retune the allocator headroom between plans (consolidation plans pack
  // tighter than flash-crowd commissions). Ends any live incremental
  // session when the value actually changes: the warm CRAM state is keyed
  // to the headroom-scaled pool it converged on.
  void set_capacity_headroom(double headroom);
  [[nodiscard]] double capacity_headroom() const { return config_.capacity_headroom; }

  // Brokers no plan may use (the control plane's failure detector declared
  // them dead). Quarantined brokers are filtered out of the gathered pool
  // AND skipped by the reserve splice — without the latter, a crashed
  // broker that answers no BIR would be silently re-commissioned from the
  // reserve (whose entries cover the whole universe). Changing the
  // quarantine changes the pool, so a live incremental session resets
  // naturally on the next plan. Pass an empty vector to lift.
  void set_quarantined_brokers(std::vector<BrokerId> brokers);
  [[nodiscard]] const std::vector<BrokerId>& quarantined_brokers() const {
    return quarantine_;
  }

 private:
  struct Session;

  // The Phase 1 front end of reconfigure() and reconfigure_incremental():
  // run `gather`, drop quarantined brokers, fail with kGatherFailed when no
  // broker is left, splice the reserve, hand the info to `plan`, and stamp
  // the report with the gather stats, the Phase 1 seconds and (on success)
  // the migration cost. `incremental` marks the failure report.
  [[nodiscard]] ReconfigurationReport gather_and_plan(
      const Simulation& sim, BrokerId entry, bool incremental,
      const std::function<GatheredInfo()>& gather,
      const std::function<ReconfigurationReport(GatheredInfo&)>& plan);

  // The allocator pool of plan_from_info and begin_incremental: every
  // gathered broker, its bandwidth scaled by the capacity headroom. Empty
  // when `info` names no broker, and then `report` fails with
  // kGatherFailed.
  [[nodiscard]] std::vector<AllocBroker> headroom_pool(const GatheredInfo& info,
                                                       ReconfigurationReport& report,
                                                       const char* caller) const;

  // Phases 3 + GRAPE from a successful Phase 2 allocation (the shared tail
  // of plan_from_info and the incremental planners).
  [[nodiscard]] ReconfigurationReport finish_plan(const GatheredInfo& info,
                                                  std::vector<AllocBroker> pool,
                                                  Allocation phase2,
                                                  ReconfigurationReport report, Rng& rng);

  CrocConfig config_;
  std::unique_ptr<Session> session_;
  std::vector<BrokerInfo> reserve_;  // sorted by id
  std::vector<BrokerId> quarantine_;  // sorted by id
};

}  // namespace greenps
