#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "control/control_loop.hpp"
#include "croc/croc.hpp"
#include "croc/info_gathering.hpp"
#include "matching/matching_engine.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sim/loss_oracle.hpp"
#include "workload/churn.hpp"
#include "workload/diurnal.hpp"

namespace greenps_bench {

using namespace greenps;

namespace {

// Set-ups per run; setup_s is their median, so work moved into set-up shows
// without one slow start dominating.
constexpr int kSetups = 3;
// Publications replayed through the densest routing table (traced runs).
constexpr std::size_t kRouteReplays = 12000;

ScenarioConfig paper_scenario(std::size_t brokers, std::size_t publishers,
                              std::size_t subs_per_publisher, std::uint64_t seed) {
  ScenarioConfig c;
  c.num_brokers = brokers;
  c.num_publishers = publishers;
  c.subs_per_publisher = subs_per_publisher;
  c.full_out_bw_kb_s = 300.0;
  c.placement = InitialPlacement::kManual;
  c.manual_fanout = 2;
  c.seed = seed;
  return c;
}

// Seed of the variant-th deployment a run draws. The workloads whose cost
// depends most on the drawn subscriptions (consolidate, selfheal) average
// over several deployments, so one seed's quirks do not decide a run.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t variant) {
  return seed * 1000 + variant;
}

std::uint64_t registry_count(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Wall-clock samples of the set-up steps, one entry per set-up.
struct SetupSamples {
  std::vector<double> total;
  std::vector<double> build;
  std::vector<double> construct;
  std::vector<double> warmup;

  void report(Report& r) const {
    r.put("setup_s", median(total), "s");
    r.put("scenario.build_s", median(build), "s");
    r.put("sim.construct_s", median(construct), "s");
    r.put("sim.warmup_s", median(warmup), "s");
  }
};

// Scenario build plus simulator construction (which installs routing).
std::unique_ptr<Simulation> build_sim(const ScenarioConfig& cfg, std::size_t workers,
                                      Tracer& tr, SetupSamples& s) {
  Scenario sc;
  s.build.push_back(timed(tr, "scenario.build", [&] { sc = build_scenario(cfg); }));
  std::unique_ptr<Simulation> sim;
  SimOptions opts;
  opts.workers = workers;
  s.construct.push_back(timed(tr, "sim.construct", [&] {
    sim = std::make_unique<Simulation>(std::move(sc.deployment), make_quote_generator(cfg),
                                       NetworkConfig{}, opts);
  }));
  return sim;
}

// build_sim plus a warm-up/profiling run; the whole set-up is one sample.
std::unique_ptr<Simulation> set_up(const ScenarioConfig& cfg, std::size_t workers,
                                   double warm_s, Tracer& tr, SetupSamples& s) {
  const int span = tr.open("setup");
  const auto t0 = Clock::now();
  std::unique_ptr<Simulation> sim = build_sim(cfg, workers, tr, s);
  s.warmup.push_back(timed(tr, "sim.run", [&] { sim->run(warm_s); }));
  s.total.push_back(seconds_since(t0));
  tr.close(span);
  return sim;
}

// Canonical text of a plan, so repeated plans can be compared exactly.
std::string plan_fingerprint(const ReconfigurationPlan& p) {
  std::ostringstream out;
  out << "root " << p.root.value() << "\n";
  std::vector<BrokerId> brokers = p.overlay.brokers();
  std::sort(brokers.begin(), brokers.end());
  for (const BrokerId b : brokers) {
    std::vector<BrokerId> nbrs = p.overlay.neighbors(b);
    std::sort(nbrs.begin(), nbrs.end());
    out << b.value() << ":";
    for (const BrokerId n : nbrs) out << " " << n.value();
    out << "\n";
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> homes;
  for (const auto& [sub, b] : p.subscriber_home) homes.emplace_back(sub.value(), b.value());
  std::sort(homes.begin(), homes.end());
  for (const auto& [s, b] : homes) out << "s" << s << ">" << b << "\n";
  homes.clear();
  for (const auto& [c, b] : p.publisher_home) homes.emplace_back(c.value(), b.value());
  std::sort(homes.begin(), homes.end());
  for (const auto& [c, b] : homes) out << "p" << c << ">" << b << "\n";
  return out.str();
}

// Deterministic outputs of one simulated window.
void report_window(Report& r, const SimSummary& s, std::uint64_t events, std::uint64_t walks) {
  r.put("sim.events", static_cast<double>(events), "count");
  r.put("sim.publications", static_cast<double>(s.publications), "count");
  r.put("sim.deliveries", static_cast<double>(s.deliveries), "count");
  r.put("sim.avg_hops", s.avg_hop_count, "hops");
  r.put("sim.msg_rate", s.avg_broker_msg_rate, "msg/sim_s");
  r.put("sim.delay_p50_ms", s.p50_delivery_delay_ms, "sim_ms");
  r.put("sim.delay_p99_ms", s.p99_delivery_delay_ms, "sim_ms");
  r.put("matching.walks", static_cast<double>(walks), "count");
  r.put("matching.walks_per_pub",
        s.publications > 0 ? static_cast<double>(walks) / static_cast<double>(s.publications)
                           : 0.0,
        "count");
}

// Replays fresh quotes through Broker::route_into on the broker holding the
// largest subscription routing table, timing each call.
void report_routing(Report& r, const Simulation& sim, const ScenarioConfig& cfg) {
  std::vector<BrokerId> ids = sim.deployment().topology.brokers();
  std::sort(ids.begin(), ids.end());
  BrokerId densest = ids.front();
  std::size_t most = 0;
  for (const BrokerId b : ids) {
    const std::size_t n = sim.broker(b).srt().filter_count();
    if (n > most) {
      most = n;
      densest = b;
    }
  }
  const Broker& broker = sim.broker(densest);
  const auto& pubs = sim.deployment().publishers;
  StockQuoteGenerator quotes = make_quote_generator(cfg);
  SubscriptionRoutingTable::MatchResult out;
  MatchScratch scratch;
  std::vector<double> ns;
  ns.reserve(kRouteReplays);
  for (std::size_t i = 0; i < kRouteReplays; ++i) {
    const PublisherSpec& p = pubs[i % pubs.size()];
    Publication pub = quotes.next(p.symbol);
    pub.set_header(p.adv, static_cast<MessageSeq>(i / pubs.size()));
    const auto t0 = Clock::now();
    broker.route_into(pub, nullptr, out, scratch);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  r.put("broker.filters_max", static_cast<double>(most), "count");
  r.put("broker.route_ns_p50", quantile(ns, 0.5), "ns");
  r.put("broker.route_ns_p90", quantile(ns, 0.9), "ns");
}

// Loss audit of a ledgered tail window appended after the timed section.
void audit_tail(Report& r, Tracer& tr, Simulation& sim, const ScenarioConfig& cfg,
                double tail_s) {
  sim.set_publication_ledger(true);
  timed(tr, "sim.run", [&] { sim.run(tail_s); });
  LossAudit audit;
  const double audit_s = timed(tr, "oracle.audit", [&] {
    audit = audit_losses(sim, make_quote_generator(cfg));
  });
  r.put("oracle.audited", static_cast<double>(audit.expected), "count");
  r.put("oracle.real_losses", static_cast<double>(audit.real_losses.size()), "count");
  r.put("oracle.audit_s", audit_s, "s");
  r.op(audit.real_losses.empty(), 1);
  r.check(audit.clean() && audit.expected > 0,
          "loss audit of a " + std::to_string(static_cast<int>(tail_s)) +
              " sim-s tail: " + std::to_string(audit.expected) + " expected deliveries, " +
              std::to_string(audit.real_losses.size()) + " real losses");
}

void report_ops(Report& r, const std::vector<double>& op_s) {
  std::vector<double> ms(op_s);
  for (double& v : ms) v *= 1000.0;
  r.put("op_ms_p50", median(ms), "ms");
  r.put("op_ms_mean", std::accumulate(ms.begin(), ms.end(), 0.0) / static_cast<double>(ms.size()),
        "ms");
  r.put("bench.op_samples", static_cast<double>(ms.size()), "samples");
}

}  // namespace

// ---------------------------------------------------------------------------
// consolidate: the paper's headline operation. Each of kVariants profiled
// MANUAL deployments is consolidated by cold CROC cycles (gather -> CRAM ->
// overlay -> GRAPE -> transactional apply), round-robin, always from the same
// profiled state. Variant 0's plan is then deployed and the consolidated
// overlay carries a fixed simulated window (every subscription matched on a
// few brokers).
void run_consolidate(const RunOptions& o, Tracer& tr, Report& r) {
  constexpr std::size_t kBrokers = 80, kPublishers = 40, kSubsPerPublisher = 100;
  constexpr double kProfileS = 90, kWindowS = 900, kAuditTailS = 30;
  constexpr std::size_t kVariants = 4;
  // One cycle past a full round, so at least one plan repeats and is compared.
  constexpr std::size_t kMinCycles = kVariants + 1, kMaxCycles = 200;

  std::vector<ScenarioConfig> cfgs;
  SetupSamples setup;
  std::vector<std::unique_ptr<Simulation>> sims;
  for (std::size_t v = 0; v < kVariants; ++v) {
    cfgs.push_back(paper_scenario(kBrokers, kPublishers, kSubsPerPublisher,
                                  variant_seed(o.seed, v)));
    sims.push_back(set_up(cfgs.back(), 1, kProfileS, tr, setup));
  }
  setup.report(r);

  std::vector<double> cycle_s, p1, p2, p3, pg, apply_s, pair_s, probe_s, poset_s;
  std::vector<std::string> plans(kVariants);
  std::vector<std::size_t> brokers(kVariants, 0);
  ReconfigurationReport first;
  ApplyResult first_apply;
  bool all_ok = true;
  bool identical = true;
  std::uint64_t comps = 0, runs = 0, packed = 0;

  obs::MetricsRegistry::global().reset();
  const auto t_timed = Clock::now();
  while (cycle_s.size() < kMinCycles ||
         (seconds_since(t_timed) < o.seconds && cycle_s.size() < kMaxCycles)) {
    const std::size_t v = cycle_s.size() % kVariants;
    Simulation& sim = *sims[v];
    CrocConfig cc;
    cc.seed = cfgs[v].seed;
    ReconfigurationReport rep;
    ApplyResult applied;
    const int span = tr.open("consolidate.cycle");
    const double reconfigure_s = timed(tr, "croc.reconfigure", [&] {
      Croc croc(cc);
      rep = croc.reconfigure(sim, BrokerId{0});
    });
    const double commit_s = timed(tr, "croc.apply", [&] {
      applied = apply_plan_transactional(sim.deployment(), rep.plan,
                                         [&sim](BrokerId b) { return sim.broker_alive(b); });
    });
    tr.close(span);
    r.op(rep.success);
    r.op(applied.success);
    all_ok = all_ok && rep.success && applied.success;
    cycle_s.push_back(reconfigure_s + commit_s);
    p1.push_back(rep.phase1_seconds);
    p2.push_back(rep.phase2_seconds);
    p3.push_back(rep.phase3_seconds);
    pg.push_back(rep.grape_seconds);
    apply_s.push_back(commit_s);
    pair_s.push_back(rep.cram.pair_search_seconds);
    probe_s.push_back(rep.cram.probe_seconds);
    poset_s.push_back(rep.cram.poset_build_seconds);
    if (cycle_s.size() <= kVariants) {
      plans[v] = plan_fingerprint(rep.plan);
      brokers[v] = applied.deployment.topology.broker_count();
    } else {
      identical = identical && plan_fingerprint(rep.plan) == plans[v];
    }
    if (cycle_s.size() == 1) {
      comps = registry_count("cram.closeness_computations");
      runs = registry_count("cram.allocation_runs");
      packed = registry_count("cram.probe_units_packed");
      first = std::move(rep);
      first_apply = std::move(applied);
    }
  }
  r.check(all_ok, "consolidate: all " + std::to_string(cycle_s.size()) +
                      " plans succeed and commit without rollback");
  r.check(identical, "consolidate: repeated cold plans are identical");
  report_ops(r, cycle_s);

  r.put("brokers",
        static_cast<double>(std::accumulate(brokers.begin(), brokers.end(), std::size_t{0})) /
            static_cast<double>(kVariants),
        "count");
  r.put("croc.phase1_s", median(p1), "s");
  r.put("croc.phase2_s", median(p2), "s");
  r.put("croc.phase3_s", median(p3), "s");
  r.put("croc.grape_s", median(pg), "s");
  r.put("croc.apply_s", median(apply_s), "s");
  r.put("croc.subs_moved", static_cast<double>(first.migration.subscribers_moved), "count");
  r.put("croc.gather_msgs",
        static_cast<double>(first.gather.bir_messages + first.gather.bia_messages), "count");
  r.put("alloc.closeness_comps", static_cast<double>(comps), "count");
  r.put("alloc.alloc_runs", static_cast<double>(runs), "count");
  r.put("alloc.probe_units_packed", static_cast<double>(packed), "count");
  r.put("alloc.clusters", static_cast<double>(first.cluster_count), "count");
  r.put("alloc.pair_search_s", median(pair_s), "s");
  r.put("alloc.probe_s", median(probe_s), "s");
  r.put("alloc.poset_build_s", median(poset_s), "s");
  r.put("overlay_build.layers", static_cast<double>(first.overlay.layers), "count");

  // Variant 0's consolidated overlay carries a fixed window.
  Simulation& sim = *sims.front();
  const double redeploy_s =
      timed(tr, "sim.redeploy", [&] { sim.redeploy(std::move(first_apply.deployment)); });
  const std::size_t walks0 = MatchingEngine::match_walks();
  const std::size_t events0 = sim.events_executed();
  const double run_s = timed(tr, "sim.run", [&] { sim.run(kWindowS); });
  SimSummary s;
  const double summarize_s = timed(tr, "sim.summarize", [&] { s = sim.summarize(); });
  const std::uint64_t events = sim.events_executed() - events0;
  report_window(r, s, events, MatchingEngine::match_walks() - walks0);
  r.op(s.pubs_shed == 0, s.publications);
  r.check(s.deliveries > 0 && s.allocated_brokers == brokers.front(),
          "consolidate: the deployed plan delivers (" + std::to_string(s.deliveries) +
              " deliveries on " + std::to_string(s.allocated_brokers) + " brokers)");
  r.put("sim.run_s", run_s, "s");
  r.put("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");
  r.put("sim.deliveries_per_s", static_cast<double>(s.deliveries) / run_s, "1/s");
  r.put("sim.shards", static_cast<double>(sim.shard_count()), "count");
  r.put("sim.redeploy_s", redeploy_s, "s");
  r.put("sim.summarize_s", summarize_s, "s");

  if (o.traced) {
    report_routing(r, sim, cfgs.front());
    audit_tail(r, tr, sim, cfgs.front(), kAuditTailS);
    const double parts = median(p1) + median(p2) + median(p3) + median(pg) + median(apply_s);
    const double cycle = median(cycle_s);
    r.check(std::abs(parts - cycle) <= 0.05 * cycle,
            "consolidate: phase 1-3 + GRAPE + apply seconds reconcile with the cycle");
  }
}

// ---------------------------------------------------------------------------
// scinet: the paper's SciNet shape on the sharded simulator. Forwarding-heavy
// (deep MANUAL tree, sparse matching); CROC never runs.
void run_scinet(const RunOptions& o, Tracer& tr, Report& r) {
  constexpr std::size_t kBrokers = 400, kPublishers = 72, kSubsPerPublisher = 225;
  constexpr std::size_t kWorkers = 4;
  constexpr double kWarmS = 20, kSliceS = 5, kAuditTailS = 10;
  // The first kPrefixSlices slices fix every deterministic metric.
  constexpr std::size_t kPrefixSlices = 12, kMaxSlices = 100000;

  const ScenarioConfig cfg = paper_scenario(kBrokers, kPublishers, kSubsPerPublisher, o.seed);
  SetupSamples setup;
  std::unique_ptr<Simulation> sim;
  for (int i = 0; i < kSetups; ++i) {
    sim.reset();
    sim = set_up(cfg, kWorkers, kWarmS, tr, setup);
  }
  setup.report(r);
  r.put("brokers", static_cast<double>(sim->deployment().topology.broker_count()), "count");
  r.put("sim.shards", static_cast<double>(sim->shard_count()), "count");

  sim->reset_metrics();
  const std::size_t walks0 = MatchingEngine::match_walks();
  const std::size_t events0 = sim->events_executed();
  std::vector<double> slice_s;
  SimSummary prefix;
  double prefix_wall = 0;
  const auto t_timed = Clock::now();
  while (slice_s.size() < kPrefixSlices ||
         (seconds_since(t_timed) < o.seconds && slice_s.size() < kMaxSlices)) {
    slice_s.push_back(timed(tr, "sim.run", [&] { sim->run(kSliceS); }));
    if (slice_s.size() == kPrefixSlices) {
      prefix = sim->summarize();
      report_window(r, prefix, sim->events_executed() - events0,
                    MatchingEngine::match_walks() - walks0);
      prefix_wall = std::accumulate(slice_s.begin(), slice_s.end(), 0.0);
    }
  }
  SimSummary total;
  const double summarize_s = timed(tr, "sim.summarize", [&] { total = sim->summarize(); });
  const double run_s = std::accumulate(slice_s.begin(), slice_s.end(), 0.0);
  const std::uint64_t events = sim->events_executed() - events0;
  report_ops(r, slice_s);
  r.op(total.pubs_shed == 0, total.publications);
  r.check(prefix.deliveries > 0 && prefix.publications > 0,
          "scinet: the window delivers (" + std::to_string(prefix.deliveries) + " deliveries)");
  r.put("sim.run_s", run_s, "s");
  r.put("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");
  r.put("sim.deliveries_per_s", static_cast<double>(total.deliveries) / run_s, "1/s");
  r.put("sim.summarize_s", summarize_s, "s");

  if (o.traced) {
    report_routing(r, *sim, cfg);
    sim.reset();
    // The same prefix on one worker: a bit-identical summary, the multi-core
    // speedup of the sharded loop, and a loss audit of a tail appended at a
    // fixed simulated time.
    SetupSamples one_worker;
    std::unique_ptr<Simulation> seq = set_up(cfg, 1, kWarmS, tr, one_worker);
    seq->reset_metrics();
    const double seq_wall = timed(tr, "sim.run", [&] {
      for (std::size_t i = 0; i < kPrefixSlices; ++i) seq->run(kSliceS);
    });
    const SimSummary a = seq->summarize();
    const bool same =
        a.publications == prefix.publications && a.deliveries == prefix.deliveries &&
        a.broker_msgs_total == prefix.broker_msgs_total &&
        a.avg_hop_count == prefix.avg_hop_count &&
        a.avg_delivery_delay_ms == prefix.avg_delivery_delay_ms &&
        a.p50_delivery_delay_ms == prefix.p50_delivery_delay_ms &&
        a.p99_delivery_delay_ms == prefix.p99_delivery_delay_ms &&
        a.avg_output_utilization == prefix.avg_output_utilization &&
        a.brokers_with_traffic == prefix.brokers_with_traffic;
    r.check(same, "scinet: the 1-worker summary is bit-identical to the 4-worker one");
    r.put("sim.speedup_4w", seq_wall / prefix_wall, "x");
    audit_tail(r, tr, *seq, cfg, kAuditTailS);
  }
}

// ---------------------------------------------------------------------------
// churn: the alloc layer as many small writes. A warm incremental CROC
// session absorbs 1 %/s Poisson subscription churn, one plan per step. No
// simulated traffic runs in the timed section.
void run_churn(const RunOptions& o, Tracer& tr, Report& r) {
  constexpr std::size_t kBrokers = 80, kPublishers = 40, kSubsPerPublisher = 100;
  constexpr double kProfileS = 90;
  // The first kMinSteps steps fix every deterministic metric.
  constexpr std::size_t kMinSteps = 300, kMaxSteps = 1000000;

  const ScenarioConfig cfg = paper_scenario(kBrokers, kPublishers, kSubsPerPublisher, o.seed);
  CrocConfig cc;
  cc.seed = o.seed;
  SetupSamples setup;
  GatheredInfo info;
  std::unique_ptr<Croc> croc;
  ReconfigurationReport begun;
  for (int i = 0; i < kSetups; ++i) {
    croc.reset();
    const int span = tr.open("setup");
    const auto t0 = Clock::now();
    std::unique_ptr<Simulation> sim = build_sim(cfg, 1, tr, setup);
    setup.warmup.push_back(timed(tr, "sim.run", [&] { sim->run(kProfileS); }));
    timed(tr, "croc.gather", [&] {
      info = gather_information(sim->deployment().topology, BrokerId{0},
                                [&sim](BrokerId b) { return sim->broker_info(b); });
    });
    croc = std::make_unique<Croc>(cc);
    timed(tr, "croc.begin_incremental", [&] { begun = croc->begin_incremental(info); });
    setup.total.push_back(seconds_since(t0));
    tr.close(span);
  }
  setup.report(r);
  r.put("croc.gather_msgs",
        static_cast<double>(info.stats.bir_messages + info.stats.bia_messages), "count");
  r.check(begun.success, "churn: the session bootstrap succeeds");
  r.op(begun.success);

  // Every live subscription's record, so a traced run can plan the final
  // population from scratch.
  std::unordered_map<SubId, SubscriptionRecord> live_records;
  std::vector<SubscriptionProfile> refs;
  std::vector<SubId> live0;
  std::uint64_t max_id = 0;
  for (const SubscriptionRecord& rec : info.subscriptions) {
    refs.push_back(rec.info.profile);
    live0.push_back(rec.info.id);
    max_id = std::max(max_id, rec.info.id.value());
    if (o.traced) live_records.emplace(rec.info.id, rec);
  }
  ChurnGenerator churn(ChurnOptions{}, std::move(refs), std::move(live0), max_id + 1,
                       Rng(o.seed ^ 0xc4u));

  std::vector<double> step_s, gen_ms, p2, p3, pg, pair_s, probe_s;
  std::uint64_t dirty = 0, comps = 0, runs = 0, packed = 0, dissolved = 0, rebaselines = 0;
  std::size_t brokers = 0, clusters = 0, layers = 0;
  bool all_ok = true;
  bool membership = true;
  ReconfigurationReport last;

  obs::MetricsRegistry::global().reset();
  const auto t_timed = Clock::now();
  while (step_s.size() < kMinSteps ||
         (seconds_since(t_timed) < o.seconds && step_s.size() < kMaxSteps)) {
    ChurnBatch batch;
    gen_ms.push_back(1000.0 * timed(tr, "workload.churn_step", [&] { batch = churn.step(); }));
    SubscriptionDelta delta;
    delta.removed = batch.removed;
    delta.added.reserve(batch.added.size());
    for (ChurnBatch::Arrival& a : batch.added) {
      SubscriptionRecord rec;
      rec.home = BrokerId{0};
      rec.info.id = a.id;
      rec.info.client = ClientId{a.id.value()};
      rec.info.profile = std::move(a.profile);
      delta.added.push_back(std::move(rec));
    }
    if (o.traced) {
      for (const SubId id : delta.removed) live_records.erase(id);
      for (const SubscriptionRecord& rec : delta.added) live_records.emplace(rec.info.id, rec);
    }
    ReconfigurationReport rep;
    step_s.push_back(timed(tr, "croc.plan_incremental", [&] { rep = croc->plan_incremental(delta); }));
    r.op(rep.success);
    all_ok = all_ok && rep.success;
    const std::vector<SubId>& live = churn.live();
    bool covered = rep.plan.subscriber_home.size() == live.size();
    for (std::size_t i = 0; covered && i < live.size(); ++i) {
      covered = rep.plan.subscriber_home.contains(live[i]);
    }
    membership = membership && covered;
    p2.push_back(rep.phase2_seconds);
    p3.push_back(rep.phase3_seconds);
    pg.push_back(rep.grape_seconds);
    pair_s.push_back(rep.cram.pair_search_seconds);
    probe_s.push_back(rep.cram.probe_seconds);
    if (step_s.size() <= kMinSteps) {
      dirty += rep.delta.dirty_gifs;
      if (step_s.size() == kMinSteps) {
        comps = registry_count("cram.closeness_computations");
        runs = registry_count("cram.allocation_runs");
        packed = registry_count("cram.probe_units_packed");
        dissolved = registry_count("cram.incremental.units_dissolved");
        rebaselines = registry_count("cram.incremental.rebaselines");
        brokers = rep.allocated_brokers;
        clusters = rep.cluster_count;
        layers = rep.overlay.layers;
      }
    }
    last = std::move(rep);
  }
  r.check(all_ok, "churn: all " + std::to_string(step_s.size()) + " incremental plans succeed");
  r.check(membership, "churn: every live subscription has exactly one home in every plan");
  report_ops(r, step_s);
  std::vector<double> step_ms(step_s);
  for (double& v : step_ms) v *= 1000.0;
  r.put("brokers", static_cast<double>(brokers), "count");
  r.put("croc.replan_ms_p50", quantile(step_ms, 0.5), "ms");
  r.put("croc.replan_ms_p90", quantile(step_ms, 0.9), "ms");
  r.put("croc.phase2_s", median(p2), "s");
  r.put("croc.phase3_s", median(p3), "s");
  r.put("croc.grape_s", median(pg), "s");
  r.put("alloc.closeness_comps", static_cast<double>(comps), "count");
  r.put("alloc.alloc_runs", static_cast<double>(runs), "count");
  r.put("alloc.probe_units_packed", static_cast<double>(packed), "count");
  r.put("alloc.dirty_gifs", static_cast<double>(dirty), "count");
  r.put("alloc.units_dissolved", static_cast<double>(dissolved), "count");
  r.put("alloc.rebaselines", static_cast<double>(rebaselines), "count");
  r.put("alloc.clusters", static_cast<double>(clusters), "count");
  r.put("alloc.pair_search_s", median(pair_s), "s");
  r.put("alloc.probe_s", median(probe_s), "s");
  r.put("overlay_build.layers", static_cast<double>(layers), "count");
  r.put("workload.churn_step_ms", median(gen_ms), "ms");

  if (o.traced) {
    // From-scratch plan of the final population: same membership, and the
    // warm session's broker count within one of it.
    GatheredInfo scratch = info;
    scratch.subscriptions.clear();
    for (const SubId id : churn.live()) scratch.subscriptions.push_back(live_records.at(id));
    ReconfigurationReport fresh;
    timed(tr, "croc.begin_incremental", [&] {
      Croc cold(cc);
      fresh = cold.begin_incremental(scratch);
    });
    bool same_members = fresh.success &&
                        fresh.plan.subscriber_home.size() == last.plan.subscriber_home.size();
    for (const auto& [sub, home] : last.plan.subscriber_home) {
      (void)home;
      same_members = same_members && fresh.plan.subscriber_home.contains(sub);
    }
    r.check(same_members, "churn: a from-scratch plan of the final population has the same "
                          "membership");
    r.check(last.allocated_brokers <= fresh.allocated_brokers + 1,
            "churn: warm plan uses " + std::to_string(last.allocated_brokers) +
                " brokers, from-scratch " + std::to_string(fresh.allocated_brokers));
  }
}

// ---------------------------------------------------------------------------
// selfheal: the control plane. Each episode sets up a fresh deployment and
// walks one diurnal day under the self-healing ControlLoop, with two
// permanent crashes of the most-loaded broker. Episodes cycle through kDays
// deployments drawn from the seed; a repeated deployment repeats exactly.
namespace {

struct Episode {
  double control_s = 0;  // ControlLoop::step() wall, audits excluded
  double quiet_s = 0;
  double plan_tick_s = 0;
  double apply_s = 0;
  double redeploy_s = 0;
  double audit_s = 0;
  std::vector<double> quiet_ms;
  std::size_t ticks = 0;
  std::size_t plans = 0;
  control::ControlTotals totals;
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  double broker_msgs = 0;
  double broker_seconds = 0;
  double delay_p50_ms = 0;
  double delay_p99_ms = 0;
  double recovery_s = 0;
  bool recovered = true;
  std::size_t crashes = 0;
  std::uint64_t deferred = 0;
  std::uint64_t shed = 0;
  std::uint64_t overflow = 0;
  std::uint64_t stranded = 0;
  std::uint64_t audited = 0;
  std::uint64_t real_losses = 0;
  bool audits_clean = true;
  double warm_plan_share = 0;
  std::uint64_t comps = 0;
  std::uint64_t runs = 0;
  std::uint64_t packed = 0;
  std::string fingerprint;
};

// The broker hosting the most live subscribers (ties: smallest id).
BrokerId most_loaded(const Simulation& sim) {
  std::map<BrokerId, std::size_t> load;
  for (const auto& s : sim.deployment().subscribers) {
    if (sim.broker_alive(s.home)) load[s.home] += 1;
  }
  BrokerId best{};
  std::size_t n = 0;
  for (const auto& [b, count] : load) {
    if (count > n) {
      best = b;
      n = count;
    }
  }
  return best;
}

}  // namespace

void run_selfheal(const RunOptions& o, Tracer& tr, Report& r) {
  constexpr std::size_t kBrokers = 80, kPublishers = 40, kSubsPerPublisher = 25;
  constexpr double kDayS = 300, kIntervalS = 10, kProfileS = 45;
  // Episode i runs variant i % kDays; every variant runs at least once.
  constexpr std::size_t kDays = 6, kMaxEpisodes = 100;

  const DiurnalSchedule schedule(default_diurnal(kDayS));
  const auto ticks = static_cast<std::size_t>(std::ceil(kDayS / kIntervalS));
  const std::vector<std::size_t> crash_ticks = {
      static_cast<std::size_t>(0.15 * static_cast<double>(ticks)),
      static_cast<std::size_t>(0.55 * static_cast<double>(ticks))};
  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.admission_control = true;

  SetupSamples setup;
  std::vector<Episode> episodes;
  const auto t_timed = Clock::now();
  double setup_total = 0;
  while (episodes.size() < kDays ||
         (seconds_since(t_timed) - setup_total < o.seconds && episodes.size() < kMaxEpisodes)) {
    const std::size_t variant = episodes.size() % kDays;
    const ScenarioConfig cfg = paper_scenario(kBrokers, kPublishers, kSubsPerPublisher,
                                              variant_seed(o.seed, variant));
    Episode ep;
    obs::MetricsRegistry::global().reset();

    const int setup_span = tr.open("setup");
    const auto t_setup = Clock::now();
    std::unique_ptr<Simulation> sim = build_sim(cfg, 1, tr, setup);
    const control::RateModulator modulator(*sim);
    setup.warmup.push_back(timed(tr, "sim.run", [&] {
      modulator.apply(*sim, schedule.multiplier(0));
      sim->run(kProfileS);
      sim->reset_metrics();
    }));
    sim->install_faults(FaultSchedule{}, fo);
    control::ControlLoopConfig lc;
    lc.interval_s = kIntervalS;
    lc.croc.seed = cfg.seed;
    control::ControlLoop loop(*sim, lc);
    setup.total.push_back(seconds_since(t_setup));
    setup_total += setup.total.back();
    tr.close(setup_span);

    Clock::time_point apply_start{}, redeploy_start{};
    double tick_audit_s = 0;
    auto snapshot_faults = [&ep](const Simulation& s) {
      const FaultStats& fs = s.fault_state().stats();
      ep.deferred += fs.pubs_deferred_admission;
      ep.shed += fs.pubs_shed_admission;
      ep.overflow += fs.retransmit_overflow;
    };
    auto audit = [&](const Simulation& s) {
      LossAudit a;
      const double secs = timed(tr, "oracle.audit", [&] {
        a = audit_losses(s, make_quote_generator(cfg));
      });
      tick_audit_s += secs;
      ep.audit_s += secs;
      ep.audited += a.expected;
      ep.real_losses += a.real_losses.size();
      ep.audits_clean = ep.audits_clean && a.clean();
    };
    loop.pre_apply_hook = [&](const ReconfigurationPlan&) { apply_start = Clock::now(); };
    loop.pre_redeploy_hook = [&](Simulation& s) {
      ep.apply_s += seconds_since(apply_start);
      snapshot_faults(s);
      if (o.traced) audit(s);
      redeploy_start = Clock::now();
    };
    loop.post_redeploy_hook = [&](Simulation& s) {
      ep.redeploy_s += seconds_since(redeploy_start);
      s.install_faults(FaultSchedule{}, fo);
    };

    std::vector<std::pair<double, BrokerId>> crashes;  // (loop time, victim)
    std::ostringstream fp;
    for (std::size_t i = 0; i < ticks; ++i) {
      const double tick_start_s = static_cast<double>(i) * kIntervalS;
      if (std::find(crash_ticks.begin(), crash_ticks.end(), i) != crash_ticks.end()) {
        const BrokerId victim = most_loaded(*sim);
        sim->inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});
        crashes.emplace_back(tick_start_s, victim);
      }
      modulator.apply(*sim, schedule.multiplier(tick_start_s));
      tick_audit_s = 0;
      const control::TickRecord* rec = nullptr;
      const double tick_s = timed(tr, "control.step", [&] { rec = &loop.step(); }) - tick_audit_s;
      ep.control_s += tick_s;
      if (rec->planned) {
        ep.plans += 1;
        ep.plan_tick_s += tick_s;
      } else {
        ep.quiet_s += tick_s;
        ep.quiet_ms.push_back(1000.0 * tick_s);
      }
      ep.broker_msgs += static_cast<double>(rec->window.broker_msgs_total);
      fp << control::action_name(rec->decision.action) << "/" << rec->dead.size() << "/"
         << rec->orphans_rehomed << "/" << rec->brokers_after << "/" << rec->window.publications
         << "/" << rec->window.deliveries << "\n";
    }
    ep.ticks = ticks;
    ep.totals = loop.totals();
    snapshot_faults(*sim);
    ep.stranded = sim->summarize().msgs_stranded;
    if (o.traced) {
      // Quiet tail at the trough so buffers drain, then the closing audit.
      modulator.apply(*sim, schedule.trough());
      sim->run(2 * kIntervalS);
      audit(*sim);
    }
    ep.publications = ep.totals.publications;
    ep.deliveries = ep.totals.deliveries;
    ep.broker_seconds = ep.totals.broker_seconds;
    ep.delay_p50_ms = loop.delay_histogram().percentile_ms(0.50);
    ep.delay_p99_ms = loop.delay_histogram().percentile_ms(0.99);
    ep.crashes = crashes.size();
    // Pair each crash with the first later recovery of its broker.
    std::vector<bool> used(loop.recoveries().size(), false);
    for (const auto& [at, victim] : crashes) {
      bool found = false;
      for (std::size_t k = 0; k < loop.recoveries().size() && !found; ++k) {
        const control::RecoveryRecord& rec = loop.recoveries()[k];
        if (used[k] || rec.broker != victim || rec.recovered_s < at) continue;
        used[k] = true;
        found = true;
        ep.recovery_s = std::max(ep.recovery_s, rec.recovered_s - at);
      }
      ep.recovered = ep.recovered && found;
      fp << "crash " << victim.value() << "@" << at << "\n";
    }
    for (const control::RecoveryRecord& rec : loop.recoveries()) {
      fp << "recovered " << rec.broker.value() << "@" << rec.recovered_s << "/" << rec.orphans
         << "\n";
    }
    const double warm = static_cast<double>(registry_count("croc.incremental.plans"));
    const double cold = static_cast<double>(registry_count("croc.incremental.sessions"));
    ep.warm_plan_share = warm + cold > 0 ? warm / (warm + cold) : 0.0;
    ep.comps = registry_count("cram.closeness_computations");
    ep.runs = registry_count("cram.allocation_runs");
    ep.packed = registry_count("cram.probe_units_packed");
    ep.fingerprint = fp.str();
    episodes.push_back(std::move(ep));
  }

  setup.report(r);
  const Episode& e = episodes.front();
  bool identical = true;
  bool healed = true;
  double worst_recovery_s = 0;
  double mean_brokers = 0;
  std::vector<double> control_s;
  double quiet = 0, plan = 0, apply = 0, redeploy = 0, audit_s = 0;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    identical = identical && ep.fingerprint == episodes[i % kDays].fingerprint;
    healed = healed && ep.crashes == 2 && ep.recovered && ep.totals.plan_failures == 0 &&
             ep.totals.apply_failures == 0;
    worst_recovery_s = std::max(worst_recovery_s, ep.recovery_s);
    if (i < kDays) {
      mean_brokers += ep.broker_seconds / (static_cast<double>(ep.ticks) * kIntervalS) /
                      static_cast<double>(kDays);
    }
    control_s.push_back(ep.control_s);
    quiet += ep.quiet_s;
    plan += ep.plan_tick_s;
    apply += ep.apply_s;
    redeploy += ep.redeploy_s;
    audit_s += ep.audit_s;
    r.op(ep.totals.plan_failures == 0, ep.plans);
    r.op(ep.totals.apply_failures == 0, ep.totals.reconfigurations + ep.totals.apply_failures);
    r.op(true, ep.publications - std::min(ep.shed, ep.publications));
    r.op(false, ep.shed);
    if (ep.real_losses > 0) r.op(false, ep.real_losses);
  }
  const auto n = static_cast<double>(episodes.size());
  r.check(identical, "selfheal: repeated days of a deployment follow the identical trajectory");
  r.check(healed && worst_recovery_s <= 4 * kIntervalS,
          "selfheal: every day recovers both crashes within 4 control intervals (worst " +
              std::to_string(worst_recovery_s) + " s) without a failed plan or rollback");
  report_ops(r, control_s);
  r.put("brokers", mean_brokers, "count");
  r.put("control.ticks", static_cast<double>(e.ticks), "count");
  r.put("control.plans", static_cast<double>(e.plans), "count");
  r.put("control.quiet_tick_ms_p50", median(e.quiet_ms), "ms");
  r.put("control.quiet_tick_s", quiet / n, "s");
  r.put("control.plan_tick_s", plan / n, "s");
  r.put("control.apply_s", apply / n, "s");
  r.put("control.redeploy_s", redeploy / n, "s");
  r.put("control.plan_failures", static_cast<double>(e.totals.plan_failures), "count");
  r.put("control.apply_failures", static_cast<double>(e.totals.apply_failures), "count");
  r.put("control.recoveries", static_cast<double>(e.totals.recoveries), "count");
  r.put("control.warm_plan_share", e.warm_plan_share, "ratio");
  r.put("control.broker_hours", e.broker_seconds / 3600.0, "h");
  r.put("control.recovery_s", e.recovery_s, "sim_s");
  r.put("alloc.closeness_comps", static_cast<double>(e.comps), "count");
  r.put("alloc.alloc_runs", static_cast<double>(e.runs), "count");
  r.put("alloc.probe_units_packed", static_cast<double>(e.packed), "count");
  r.put("sim.publications", static_cast<double>(e.publications), "count");
  r.put("sim.deliveries", static_cast<double>(e.deliveries), "count");
  r.put("sim.msg_rate", e.broker_seconds > 0 ? e.broker_msgs / e.broker_seconds : 0.0,
        "msg/sim_s");
  r.put("sim.delay_p50_ms", e.delay_p50_ms, "sim_ms");
  r.put("sim.delay_p99_ms", e.delay_p99_ms, "sim_ms");
  r.put("faults.pubs_deferred", static_cast<double>(e.deferred), "count");
  r.put("faults.pubs_shed", static_cast<double>(e.shed), "count");
  r.put("faults.msgs_stranded", static_cast<double>(e.stranded), "count");
  r.put("faults.retransmit_overflow", static_cast<double>(e.overflow), "count");
  if (o.traced) {
    r.put("control.audit_s", audit_s / n, "s");
    r.put("oracle.audited", static_cast<double>(e.audited), "count");
    r.put("oracle.real_losses", static_cast<double>(e.real_losses), "count");
    r.put("oracle.audit_s", audit_s / n, "s");
    const bool clean = std::all_of(episodes.begin(), episodes.end(), [](const Episode& ep) {
      return ep.audits_clean && ep.audited > 0;
    });
    r.check(clean, "selfheal: every epoch's loss audit is clean");
  }
}

}  // namespace greenps_bench
