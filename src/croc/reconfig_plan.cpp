#include "croc/reconfig_plan.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace greenps {

const char* failure_reason_name(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kGatherFailed: return "gather_failed";
    case FailureReason::kPhase2Insufficient: return "phase2_insufficient";
    case FailureReason::kPlanInvalid: return "plan_invalid";
    case FailureReason::kBrokerUnreachable: return "broker_unreachable";
    case FailureReason::kNoIncrementalSession: return "no_incremental_session";
  }
  return "?";
}

namespace {

ApplyResult rollback(const Deployment& old_deployment, FailureReason reason,
                     std::string detail, std::size_t applied, std::size_t total) {
  ApplyResult r;
  r.success = false;
  r.reason = reason;
  r.detail = std::move(detail);
  r.steps_applied = applied;
  r.steps_total = total;
  r.deployment = old_deployment;
  log::warn("apply_plan_transactional rolled back (", failure_reason_name(reason), "): ", r.detail);
  return r;
}

}  // namespace

ApplyResult apply_plan_transactional(const Deployment& old_deployment,
                                     const ReconfigurationPlan& plan,
                                     const BrokerHealthProbe& probe) {
  // ---- validate against the current deployment ----
  const std::vector<BrokerId> brokers = plan.overlay.brokers();
  if (brokers.empty()) {
    return rollback(old_deployment, FailureReason::kPlanInvalid, "plan overlay is empty", 0, 0);
  }
  if (!plan.overlay.has_broker(plan.root)) {
    return rollback(old_deployment, FailureReason::kPlanInvalid,
                    "root broker " + std::to_string(plan.root.value()) + " not in overlay", 0,
                    0);
  }
  if (!plan.overlay.is_tree()) {
    return rollback(old_deployment, FailureReason::kPlanInvalid,
                    "plan overlay is not a tree", 0, 0);
  }
  for (const BrokerId b : brokers) {
    if (!old_deployment.capacities.contains(b)) {
      return rollback(old_deployment, FailureReason::kPlanInvalid,
                      "plan names broker " + std::to_string(b.value()) +
                          " with no capacity entry in the current deployment",
                      0, 0);
    }
  }
  for (const auto& [sub, b] : plan.subscriber_home) {
    if (!plan.overlay.has_broker(b)) {
      return rollback(old_deployment, FailureReason::kPlanInvalid,
                      "subscriber " + std::to_string(sub.value()) + " targets broker " +
                          std::to_string(b.value()) + " outside the overlay",
                      0, 0);
    }
  }
  for (const auto& [client, b] : plan.publisher_home) {
    if (!plan.overlay.has_broker(b)) {
      return rollback(old_deployment, FailureReason::kPlanInvalid,
                      "publisher client " + std::to_string(client.value()) +
                          " targets broker " + std::to_string(b.value()) +
                          " outside the overlay",
                      0, 0);
    }
  }

  // ---- staged apply: commission brokers, then attach clients ----
  const std::size_t total =
      brokers.size() + old_deployment.publishers.size() + old_deployment.subscribers.size();
  std::size_t applied = 0;

  Deployment next;
  next.topology = plan.overlay;
  next.profile_window_bits = old_deployment.profile_window_bits;

  std::vector<BrokerId> ordered = brokers;
  std::sort(ordered.begin(), ordered.end());  // deterministic step order
  for (const BrokerId b : ordered) {
    if (probe && !probe(b)) {
      return rollback(old_deployment, FailureReason::kBrokerUnreachable,
                      "broker " + std::to_string(b.value()) + " unreachable at commission",
                      applied, total);
    }
    next.capacities.emplace(b, old_deployment.capacities.at(b));
    applied += 1;
  }
  for (const PublisherSpec& p : old_deployment.publishers) {
    const auto it = plan.publisher_home.find(p.client);
    const BrokerId target = it != plan.publisher_home.end() ? it->second : plan.root;
    if (probe && !probe(target)) {
      return rollback(old_deployment, FailureReason::kBrokerUnreachable,
                      "broker " + std::to_string(target.value()) +
                          " unreachable attaching publisher client " +
                          std::to_string(p.client.value()),
                      applied, total);
    }
    PublisherSpec np = p;
    np.home = target;
    next.publishers.push_back(std::move(np));
    applied += 1;
  }
  for (const SubscriberSpec& s : old_deployment.subscribers) {
    const auto it = plan.subscriber_home.find(s.sub);
    const BrokerId target = it != plan.subscriber_home.end() ? it->second : plan.root;
    if (probe && !probe(target)) {
      return rollback(old_deployment, FailureReason::kBrokerUnreachable,
                      "broker " + std::to_string(target.value()) +
                          " unreachable attaching subscriber " + std::to_string(s.sub.value()),
                      applied, total);
    }
    SubscriberSpec ns = s;
    ns.home = target;
    next.subscribers.push_back(std::move(ns));
    applied += 1;
  }

  ApplyResult r;
  r.success = true;
  r.reason = FailureReason::kNone;
  r.steps_applied = applied;
  r.steps_total = total;
  r.deployment = std::move(next);
  return r;
}

}  // namespace greenps
