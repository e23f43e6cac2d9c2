#include "croc/croc.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "alloc/bin_packing.hpp"
#include "alloc/fbf.hpp"
#include "baselines/pairwise.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/topology_builder.hpp"

namespace greenps {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Phase 1 over the live overlay. Crashed brokers answer nothing: the
// gatherer times out on them (bounded retry) and CROC plans from the
// brokers that answered.
GatheredInfo gather_reachable(const Simulation& sim, BrokerId entry) {
  GREENPS_SPAN("croc.phase1.gather");
  return gather_information(sim.deployment().topology, entry, [&sim](BrokerId b) {
    return sim.broker_info_if_reachable(b);
  });
}
}  // namespace

const char* algorithm_name(Phase2Algorithm a) {
  switch (a) {
    case Phase2Algorithm::kFbf: return "FBF";
    case Phase2Algorithm::kBinPacking: return "BIN PACKING";
    case Phase2Algorithm::kCram: return "CRAM";
    case Phase2Algorithm::kPairwiseK: return "PAIRWISE-K";
    case Phase2Algorithm::kPairwiseN: return "PAIRWISE-N";
  }
  return "?";
}

std::vector<SubUnit> Croc::units_from(const GatheredInfo& info) {
  std::vector<SubUnit> units;
  units.reserve(info.subscriptions.size());
  for (const SubscriptionRecord& rec : info.subscriptions) {
    units.push_back(
        make_subscription_unit(rec.info.id, rec.info.profile, info.publisher_table));
  }
  return units;
}

std::vector<AllocBroker> Croc::pool_from(const GatheredInfo& info) {
  std::vector<AllocBroker> pool;
  pool.reserve(info.brokers.size());
  for (const BrokerInfo& b : info.brokers) {
    pool.push_back(AllocBroker{b.id, b.total_out_bw, b.delay});
  }
  return pool;
}

ReconfigurationReport Croc::reconfigure(const Simulation& sim, BrokerId entry) {
  GREENPS_SPAN("croc.reconfigure");
  return gather_and_plan(
      sim, entry, /*incremental=*/false, [&] { return gather_reachable(sim, entry); },
      [this](GatheredInfo& info) { return plan_from_info(info); });
}

ReconfigurationReport Croc::gather_and_plan(
    const Simulation& sim, BrokerId entry, bool incremental,
    const std::function<GatheredInfo()>& gather,
    const std::function<ReconfigurationReport(GatheredInfo&)>& plan) {
  const auto t0 = Clock::now();
  GatheredInfo info = gather();
  const GatherStats stats = info.stats;
  // A suspect broker may still have answered its BIR.
  std::erase_if(info.brokers, [this](const BrokerInfo& b) {
    return std::binary_search(quarantine_.begin(), quarantine_.end(), b.id);
  });
  ReconfigurationReport report;
  if (info.brokers.empty()) {
    report.incremental = incremental;
    report.failure = FailureReason::kGatherFailed;
    log::warn(incremental ? "incremental phase 1" : "phase 1",
              " gathered no broker info (entry broker ", entry.value(),
              " unreachable?); reconfiguration aborted");
  } else {
    // Parked brokers are not in the overlay, so the gather never visits
    // them: append every reserve entry Phase 1 did not report. reserve_ is
    // sorted by id, so the spliced order — and every plan derived from the
    // pool — is deterministic. A quarantined broker must not come back
    // through the reserve: its entry covers the same id the quarantine just
    // removed from the gathered pool.
    std::unordered_set<BrokerId> live;
    live.reserve(info.brokers.size());
    for (const BrokerInfo& b : info.brokers) live.insert(b.id);
    for (const BrokerInfo& b : reserve_) {
      if (live.contains(b.id)) continue;
      if (std::binary_search(quarantine_.begin(), quarantine_.end(), b.id)) continue;
      info.brokers.push_back(b);
    }
    report = plan(info);
  }
  report.gather = stats;
  report.phase1_seconds = seconds_since(t0) - report.phase2_seconds -
                          report.phase3_seconds - report.grape_seconds;
  if (report.success) report.migration = migration_cost(sim.deployment(), report.plan);
  return report;
}

std::vector<AllocBroker> Croc::headroom_pool(const GatheredInfo& info,
                                             ReconfigurationReport& report,
                                             const char* caller) const {
  std::vector<AllocBroker> pool = pool_from(info);
  for (AllocBroker& b : pool) b.out_bw *= config_.capacity_headroom;
  if (pool.empty()) {
    // Nothing answered the BIR (total gather failure): there is no broker
    // to allocate onto, and the no-subscription fallback of finish_plan
    // would index an empty pool.
    report.failure = FailureReason::kGatherFailed;
    log::warn(caller, ": gathered info names no brokers; nothing to plan");
  }
  return pool;
}

MigrationCost migration_cost(const Deployment& current, const ReconfigurationPlan& plan) {
  MigrationCost cost;
  cost.subscribers_total = current.subscribers.size();
  cost.publishers_total = current.publishers.size();
  // An empty plan (failed reconfiguration) moves nothing: without this
  // guard every client would count as "moved to the root" and every
  // current broker as decommissioned, for a plan that never ran.
  if (plan.overlay.brokers().empty()) return cost;
  for (const auto& s : current.subscribers) {
    const auto it = plan.subscriber_home.find(s.sub);
    const BrokerId target = it != plan.subscriber_home.end() ? it->second : plan.root;
    if (target != s.home) cost.subscribers_moved += 1;
  }
  for (const auto& p : current.publishers) {
    const auto it = plan.publisher_home.find(p.client);
    const BrokerId target = it != plan.publisher_home.end() ? it->second : plan.root;
    if (target != p.home) cost.publishers_moved += 1;
  }
  for (const BrokerId b : current.topology.brokers()) {
    if (!plan.overlay.has_broker(b)) cost.brokers_decommissioned += 1;
  }
  for (const BrokerId b : plan.overlay.brokers()) {
    if (!current.topology.has_broker(b)) cost.brokers_commissioned += 1;
  }
  return cost;
}

ReconfigurationReport Croc::plan_from_info(const GatheredInfo& info) {
  ReconfigurationReport report;
  std::vector<AllocBroker> pool = headroom_pool(info, report, "plan_from_info");
  if (pool.empty()) return report;
  Rng rng(config_.seed);
  const PublisherTable& table = info.publisher_table;
  std::vector<SubUnit> units = units_from(info);

  // ---- Phase 2 ----
  const auto t2 = Clock::now();
  GREENPS_INSTANT("croc.phase2.start");
  Allocation phase2;
  {
    GREENPS_SPAN_TAGGED("croc.phase2", static_cast<std::uint64_t>(config_.algorithm));
    switch (config_.algorithm) {
      case Phase2Algorithm::kFbf:
        phase2 = fbf_allocate(pool, units, table, rng);
        break;
      case Phase2Algorithm::kBinPacking:
        phase2 = bin_packing_allocate(pool, units, table);
        break;
      case Phase2Algorithm::kCram: {
        CramResult r = cram_allocate(pool, units, table, config_.cram);
        report.cram = r.stats;
        phase2 = std::move(r.allocation);
        break;
      }
      case Phase2Algorithm::kPairwiseK: {
        std::size_t k = config_.pairwise_k;
        if (k == 0) {
          CramOptions xor_opts = config_.cram;
          xor_opts.metric = ClosenessMetric::kXor;
          CramResult r = cram_allocate(pool, units, table, xor_opts);
          report.cram = r.stats;
          k = r.allocation.success ? r.allocation.unit_count() : pool.size();
        }
        phase2 = pairwise_k_allocate(pool, units, k, table, rng);
        break;
      }
      case Phase2Algorithm::kPairwiseN:
        phase2 = pairwise_n_allocate(pool, units, table, rng);
        break;
    }
  }
  report.phase2_seconds = seconds_since(t2);
  if (!phase2.success) {
    report.failure = FailureReason::kPhase2Insufficient;
    log::warn("phase 2 (", algorithm_name(config_.algorithm),
              ") failed: insufficient broker resources");
    return report;
  }
  report.cluster_count = phase2.unit_count();
  return finish_plan(info, std::move(pool), std::move(phase2), std::move(report), rng);
}

ReconfigurationReport Croc::finish_plan(const GatheredInfo& info,
                                        std::vector<AllocBroker> pool, Allocation phase2,
                                        ReconfigurationReport report, Rng& rng) {
  const PublisherTable& table = info.publisher_table;
  const bool pairwise = !report.incremental &&
                        (config_.algorithm == Phase2Algorithm::kPairwiseK ||
                         config_.algorithm == Phase2Algorithm::kPairwiseN);

  // ---- Phase 3 ----
  const auto t3 = Clock::now();
  // Phase 3 and GRAPE interleave with early returns, so their spans are
  // emitted explicitly at the points the report timers already stop.
  const std::uint64_t ph3_ts = obs::trace_now_us();
  ReconfigurationPlan plan;
  std::unordered_map<BrokerId, SubscriptionProfile> local_profiles;
  if (phase2.brokers.empty()) {
    // No subscriptions to serve: keep one broker (the most resourceful) so
    // publishers still have a home.
    sort_by_capacity_desc(pool);
    plan.overlay.add_broker(pool.front().id);
    plan.root = pool.front().id;
    plan.allocated_brokers = {plan.root};
    for (const PublisherRecord& p : info.publishers) {
      plan.publisher_home[p.client] = plan.root;
    }
    report.allocated_brokers = 1;
    report.plan = std::move(plan);
    report.success = true;
    return report;
  }
  if (pairwise) {
    // The pairwise derivatives build their overlay with the AUTOMATIC
    // approach: a random tree over the brokers that received clusters.
    std::vector<BrokerId> used;
    for (const BrokerLoad& b : phase2.brokers) used.push_back(b.broker().id);
    rng.shuffle(used);
    plan.overlay = build_random_tree(used, rng);
    plan.root = used.front();
    for (const BrokerLoad& b : phase2.brokers) {
      SubscriptionProfile agg;
      for (const SubUnit& u : b.units()) {
        for (const SubId s : u.members) plan.subscriber_home[s] = b.broker().id;
        agg.merge(u.profile);
      }
      local_profiles.emplace(b.broker().id, std::move(agg));
    }
  } else {
    AllocatorFn allocator;
    // Incremental sessions allocate with CRAM whatever config_.algorithm
    // says; the recursion must use the same allocator as Phase 2 did.
    switch (report.incremental ? Phase2Algorithm::kCram : config_.algorithm) {
      case Phase2Algorithm::kFbf:
        allocator = [&rng](const std::vector<AllocBroker>& p, const std::vector<SubUnit>& u,
                           const PublisherTable& t) { return fbf_allocate(p, u, t, rng); };
        break;
      case Phase2Algorithm::kBinPacking:
        allocator = [](const std::vector<AllocBroker>& p, const std::vector<SubUnit>& u,
                       const PublisherTable& t) { return bin_packing_allocate(p, u, t); };
        break;
      default:
        allocator = [this](const std::vector<AllocBroker>& p, const std::vector<SubUnit>& u,
                           const PublisherTable& t) {
          return cram_allocate(p, u, t, config_.cram).allocation;
        };
        break;
    }
    BuiltOverlay built = build_overlay(phase2, pool, table, allocator, config_.overlay);
    report.overlay = built.stats;
    plan.overlay = std::move(built.tree);
    plan.root = built.root;
    for (const auto& [broker, hosted] : built.hosted_units) {
      SubscriptionProfile agg;
      for (const SubUnit& u : hosted) {
        for (const SubId s : u.members) plan.subscriber_home[s] = broker;
        agg.merge(u.profile);
      }
      if (!hosted.empty()) local_profiles.emplace(broker, std::move(agg));
    }
  }
  plan.allocated_brokers = plan.overlay.brokers();
  plan.cluster_count = report.cluster_count;
  report.phase3_seconds = seconds_since(t3);
  obs::trace_complete("croc.phase3", ph3_ts, obs::trace_now_us());

  // ---- GRAPE ----
  const auto tg = Clock::now();
  const std::uint64_t grape_ts = obs::trace_now_us();
  if (pairwise || !config_.run_grape) {
    // AUTOMATIC-style random publisher placement for the pairwise
    // baselines; root placement when GRAPE is disabled.
    for (const PublisherRecord& p : info.publishers) {
      plan.publisher_home[p.client] =
          pairwise ? plan.allocated_brokers[rng.index(plan.allocated_brokers.size())]
                   : plan.root;
    }
  } else {
    std::vector<GrapePublisher> pubs;
    pubs.reserve(info.publishers.size());
    for (const PublisherRecord& p : info.publishers) {
      pubs.push_back(GrapePublisher{p.client, p.profile.adv});
    }
    const GrapePlacement placed = grape_place_publishers(plan.overlay, pubs, local_profiles,
                                                         table, config_.grape_mode);
    plan.publisher_home = placed.broker_for;
  }
  report.grape_seconds = seconds_since(tg);
  obs::trace_complete("croc.grape", grape_ts, obs::trace_now_us());

  report.allocated_brokers = plan.allocated_brokers.size();
  report.plan = std::move(plan);
  report.success = true;

  // Publish the plan's headline numbers to the metrics registry so run
  // reports can snapshot them without re-deriving from the report struct.
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("croc.phase2_seconds").set(report.phase2_seconds);
  reg.gauge("croc.phase3_seconds").set(report.phase3_seconds);
  reg.gauge("croc.grape_seconds").set(report.grape_seconds);
  reg.gauge("croc.cluster_count").set(static_cast<double>(report.cluster_count));
  reg.gauge("croc.allocated_brokers").set(static_cast<double>(report.allocated_brokers));
  return report;
}

// ---- incremental reconfiguration ----

struct Croc::Session {
  GatheredInfo info;              // latest gathered state; the BIA cache
  std::vector<AllocBroker> pool;  // headroom-scaled allocator pool
  std::unordered_set<SubId> live; // subscription ids currently in the session
  std::unique_ptr<IncrementalCram> cram;
};

Croc::Croc(CrocConfig config) : config_(config) {}
Croc::~Croc() = default;
Croc::Croc(Croc&&) noexcept = default;
Croc& Croc::operator=(Croc&&) noexcept = default;

const IncrementalCram* Croc::session_cram() const {
  return session_ != nullptr ? session_->cram.get() : nullptr;
}

void Croc::end_incremental() { session_.reset(); }

void Croc::set_reserve_brokers(std::vector<BrokerInfo> reserve) {
  std::sort(reserve.begin(), reserve.end(),
            [](const BrokerInfo& a, const BrokerInfo& b) { return a.id < b.id; });
  reserve_ = std::move(reserve);
}

void Croc::set_capacity_headroom(double headroom) {
  if (headroom == config_.capacity_headroom) return;
  config_.capacity_headroom = headroom;
  // The warm state converged on the previous headroom-scaled pool; a fresh
  // session bootstraps on the next reconfigure_incremental().
  if (session_ != nullptr) {
    obs::MetricsRegistry::global().counter("croc.incremental.session_resets").add(1);
    end_incremental();
  }
}

void Croc::set_quarantined_brokers(std::vector<BrokerId> brokers) {
  std::sort(brokers.begin(), brokers.end());
  brokers.erase(std::unique(brokers.begin(), brokers.end()), brokers.end());
  quarantine_ = std::move(brokers);
}

ReconfigurationReport Croc::begin_incremental(const GatheredInfo& info) {
  GREENPS_SPAN("croc.begin_incremental");
  end_incremental();
  ReconfigurationReport report;
  report.incremental = true;
  std::vector<AllocBroker> pool = headroom_pool(info, report, "begin_incremental");
  if (pool.empty()) return report;
  Rng rng(config_.seed);

  auto session = std::make_unique<Session>();
  session->info = info;
  session->pool = pool;
  session->live.reserve(info.subscriptions.size());
  for (const SubscriptionRecord& rec : info.subscriptions) {
    session->live.insert(rec.info.id);
  }
  session->cram = std::make_unique<IncrementalCram>(
      std::move(pool), units_from(info), info.publisher_table, config_.cram);

  const auto t2 = Clock::now();
  GREENPS_INSTANT("croc.phase2.start");
  CramResult r = session->cram->initialize();
  report.cram = r.stats;
  report.phase2_seconds = seconds_since(t2);
  if (!r.allocation.success) {
    // No session survives a failed convergence: there is no feasible warm
    // state for later deltas to start from.
    report.failure = FailureReason::kPhase2Insufficient;
    log::warn("begin_incremental: CRAM failed: insufficient broker resources");
    return report;
  }
  report.cluster_count = r.allocation.unit_count();
  session_ = std::move(session);
  obs::MetricsRegistry::global().counter("croc.incremental.sessions").add(1);
  return finish_plan(session_->info, session_->pool, std::move(r.allocation),
                     std::move(report), rng);
}

ReconfigurationReport Croc::plan_incremental(const SubscriptionDelta& delta) {
  GREENPS_SPAN("croc.plan_incremental");
  ReconfigurationReport report;
  report.incremental = true;
  if (session_ == nullptr) {
    report.failure = FailureReason::kNoIncrementalSession;
    log::warn("plan_incremental called without a live session; "
              "run begin_incremental (or reconfigure_incremental) first");
    return report;
  }
  Session& s = *session_;

  const auto t2 = Clock::now();
  GREENPS_INSTANT("croc.phase2.start");
  std::vector<SubUnit> added;
  added.reserve(delta.added.size());
  for (const SubscriptionRecord& rec : delta.added) {
    added.push_back(make_subscription_unit(rec.info.id, rec.info.profile, s.cram->table()));
  }
  CramResult r = s.cram->apply(std::move(added), delta.removed);
  report.cram = r.stats;
  report.delta = s.cram->last_delta();
  report.phase2_seconds = seconds_since(t2);

  // Keep the session's subscription view in step with the delta. Insertion
  // is presence-checked so this stays idempotent under
  // reconfigure_incremental, which refreshes the view from the gather (new
  // arrivals already included) before planning.
  const std::unordered_set<SubId> removed_set(delta.removed.begin(), delta.removed.end());
  std::erase_if(s.info.subscriptions, [&](const SubscriptionRecord& rec) {
    return removed_set.contains(rec.info.id);
  });
  for (const SubId id : delta.removed) s.live.erase(id);
  std::unordered_set<SubId> present;
  present.reserve(s.info.subscriptions.size());
  for (const SubscriptionRecord& rec : s.info.subscriptions) present.insert(rec.info.id);
  for (const SubscriptionRecord& rec : delta.added) {
    s.live.insert(rec.info.id);
    if (present.insert(rec.info.id).second) s.info.subscriptions.push_back(rec);
  }

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("croc.incremental.plans").add(1);
  reg.counter("croc.incremental.subs_added").add(delta.added.size());
  reg.counter("croc.incremental.subs_removed").add(delta.removed.size());

  if (!r.allocation.success) {
    // The session stays live: its state is consistent, merely infeasible on
    // the current pool — a later removal-heavy delta can recover it.
    report.failure = FailureReason::kPhase2Insufficient;
    log::warn("plan_incremental: reconvergence failed: insufficient broker resources");
    return report;
  }
  report.cluster_count = r.allocation.unit_count();
  Rng rng(config_.seed);
  return finish_plan(s.info, s.pool, std::move(r.allocation), std::move(report), rng);
}

namespace {

// The warm CRAM state is keyed to the broker pool and publisher set it
// converged on; a change to either (broker joined/left/resized, publisher
// appeared/vanished) invalidates the packing and the unit rates wholesale.
bool structural_reset_needed(const GatheredInfo& prev, const GatheredInfo& now) {
  if (prev.brokers.size() != now.brokers.size()) return true;
  std::unordered_map<BrokerId, Bandwidth> caps;
  caps.reserve(prev.brokers.size());
  for (const BrokerInfo& b : prev.brokers) caps.emplace(b.id, b.total_out_bw);
  for (const BrokerInfo& b : now.brokers) {
    const auto it = caps.find(b.id);
    if (it == caps.end() || it->second != b.total_out_bw) return true;
  }
  if (prev.publisher_table.size() != now.publisher_table.size()) return true;
  for (const auto& [adv, prof] : now.publisher_table) {
    (void)prof;
    if (!prev.publisher_table.contains(adv)) return true;
  }
  return false;
}

// The diff between what Phase 1 now reports and what the session converged
// on (`live`). live is an unordered set; sorting keeps the delta (and so
// the reconvergence) independent of its iteration order.
SubscriptionDelta subscription_delta(const std::unordered_set<SubId>& live,
                                     const GatheredInfo& now) {
  SubscriptionDelta delta;
  std::unordered_set<SubId> now_ids;
  now_ids.reserve(now.subscriptions.size());
  for (const SubscriptionRecord& rec : now.subscriptions) {
    now_ids.insert(rec.info.id);
    if (!live.contains(rec.info.id)) delta.added.push_back(rec);
  }
  for (const SubId id : live) {
    if (!now_ids.contains(id)) delta.removed.push_back(id);
  }
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end(),
            [](const SubscriptionRecord& a, const SubscriptionRecord& b) {
              return a.info.id < b.info.id;
            });
  return delta;
}

}  // namespace

ReconfigurationReport Croc::reconfigure_incremental(const Simulation& sim, BrokerId entry) {
  GREENPS_SPAN("croc.reconfigure_incremental");
  const auto bootstrap = [this](GatheredInfo& info) { return begin_incremental(info); };
  if (session_ == nullptr) {
    return gather_and_plan(
        sim, entry, /*incremental=*/true, [&] { return gather_reachable(sim, entry); },
        bootstrap);
  }
  const auto gather = [&] {
    GREENPS_SPAN("croc.phase1.gather_incremental");
    return gather_information_incremental(
        sim.deployment().topology, entry, session_->info,
        [&sim](BrokerId b) { return sim.broker_epoch_if_reachable(b); },
        [&sim](BrokerId b) { return sim.broker_info_if_reachable(b); });
  };
  return gather_and_plan(sim, entry, /*incremental=*/true, gather, [&](GatheredInfo& info) {
    if (structural_reset_needed(session_->info, info)) {
      // begin_incremental ends the stale session before it bootstraps.
      obs::MetricsRegistry::global().counter("croc.incremental.session_resets").add(1);
      return bootstrap(info);
    }
    const SubscriptionDelta delta = subscription_delta(session_->live, info);
    session_->info = std::move(info);  // refresh the BIA cache for the next gather
    return plan_incremental(delta);
  });
}

}  // namespace greenps
