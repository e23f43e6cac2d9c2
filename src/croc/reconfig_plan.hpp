// The outcome of Phases 2-3 + GRAPE: where every broker, subscriber and
// publisher should go. Applying a plan to the running deployment yields the
// new deployment ("the results of the reassignment is in the form of
// publications directed to each broker controlling where publishers and
// subscribers should migrate, and which neighbors brokers should connect
// with", Section III-A).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "overlay/topology.hpp"
#include "sim/simulation.hpp"

namespace greenps {

struct ReconfigurationPlan {
  Topology overlay;
  BrokerId root;
  std::vector<BrokerId> allocated_brokers;
  std::unordered_map<SubId, BrokerId> subscriber_home;
  std::unordered_map<ClientId, BrokerId> publisher_home;
  std::size_t cluster_count = 0;
};

// Why a reconfiguration (planning or applying) did not produce a new
// deployment. Shared by ReconfigurationReport and ApplyResult.
enum class FailureReason {
  kNone,
  kGatherFailed,         // Phase 1 collected no broker info (entry down?)
  kPhase2Insufficient,   // allocation failed: not enough broker resources
  kPlanInvalid,          // plan inconsistent with the current deployment
  kBrokerUnreachable,    // a target broker died mid-apply; rolled back
  kNoIncrementalSession, // plan_incremental called without begin_incremental
};

[[nodiscard]] const char* failure_reason_name(FailureReason r);

// Liveness probe consulted before each apply step touches a broker
// (typically Simulation::broker_alive). Empty probe = assume healthy.
using BrokerHealthProbe = std::function<bool(BrokerId)>;

struct ApplyResult {
  bool success = false;
  FailureReason reason = FailureReason::kNone;
  std::string detail;              // human-readable failure description
  std::size_t steps_applied = 0;   // commission/attach steps completed
  std::size_t steps_total = 0;
  // The deployment to run next: the plan's on success, the *old* one on
  // failure (rollback — a failed apply never leaves a half-migrated state).
  Deployment deployment;
};

// Build the new deployment: the plan's overlay and client placements with
// the old deployment's broker capacities and client/workload identities;
// clients without an explicit placement attach to the root. The apply is
// transactional: validate the plan against the current deployment (every
// plan broker has a capacity entry, the overlay is a tree containing the
// root, every client target is in the overlay), then stage it step by step
// — commission brokers, attach publishers, attach subscribers — probing
// each target broker's health before touching it. Any validation error or
// mid-apply crash rolls back to `old_deployment`, so callers must check
// ApplyResult::success.
[[nodiscard]] ApplyResult apply_plan_transactional(const Deployment& old_deployment,
                                                   const ReconfigurationPlan& plan,
                                                   const BrokerHealthProbe& probe = {});

}  // namespace greenps
