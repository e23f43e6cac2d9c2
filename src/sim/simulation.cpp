#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "matching/matching_engine.hpp"
#include "matching/relations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/shard_partitioner.hpp"

namespace greenps {

namespace {

// Event-key classes (sim/event_queue.hpp): smaller class fires first at a
// tied timestamp. Fault events beat sampler ticks beat traffic, and all of
// them beat legacy insertion-keyed events (kInsertionClass).
constexpr std::uint64_t kFaultClass = 0;
constexpr std::uint64_t kSamplerClass = 1;
constexpr std::uint64_t kSourceClass = 2;
static_assert(kSourceClass < EventQueue::kInsertionClass);

EventKey make_key(std::uint64_t klass, std::uint64_t ord, std::uint64_t seq) {
  return EventKey{(klass << 56) | ord, seq};
}

// Retransmit-cap fallback when a broker has no profile data (also the old
// flat default, so unprofiled runs keep the historical behavior).
constexpr std::size_t kDefaultRetransmitCap = 65536;
constexpr std::size_t kMinRetransmitCap = 1024;
constexpr std::size_t kMaxRetransmitCap = std::size_t{1} << 20;

// Per-broker drop-RNG seeding: splitmix-style mix of the broker id so
// adjacent ids get uncorrelated streams.
std::uint64_t drop_seed(BrokerId b) {
  std::uint64_t z = (static_cast<std::uint64_t>(b.value()) + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Simulation::Simulation(Deployment deployment, StockQuoteGenerator quotes, NetworkConfig net,
                       SimOptions opts)
    : quotes_(std::move(quotes)),
      net_(net),
      workers_(std::max<std::size_t>(opts.workers, 1)) {
  redeploy(std::move(deployment));
}

Simulation::~Simulation() {
  // Destroying a routing table retires its last published snapshot to the
  // global epoch domain, which frees retired snapshots only on its next
  // reclaim, normally the next publish anywhere in the process. Reclaim now,
  // so a destroyed simulation's snapshots (and the compiled filters they
  // share) do not stay allocated, scattered through the heap, under whatever
  // the process does next.
  brokers_.clear();
  EpochDomain::global().try_reclaim();
}

Broker& Simulation::broker(BrokerId id) {
  const auto it = brokers_.find(id);
  assert(it != brokers_.end());
  return *it->second.broker;
}

const Broker& Simulation::broker(BrokerId id) const {
  const auto it = brokers_.find(id);
  assert(it != brokers_.end());
  return *it->second.broker;
}

std::size_t Simulation::pick_shard_count() const {
  std::size_t n = std::min(workers_, std::max<std::size_t>(
                                         deployment_.topology.broker_count(), 1));
  if (n <= 1) return 1;
  // Zero link latency leaves no conservative lookahead to window on.
  if (net_.link_latency <= 0) return 1;
  // Publishers sharing a symbol (one price walk) or an advertisement (one
  // sequence counter) would race across shards; such workloads run on one.
  std::unordered_set<std::string> symbols;
  std::unordered_set<AdvId> advs;
  for (const auto& pub : deployment_.publishers) {
    if (!symbols.insert(pub.symbol).second || !advs.insert(pub.adv).second) return 1;
  }
  return n;
}

void Simulation::redeploy(Deployment deployment) {
  snapshot_profiled_rates();  // keep the last window's rates across epochs
  // Messages parked in retransmit/deferred buffers die with the shards —
  // if the buffering broker is decommissioned mid-outage there is no
  // restart to replay them. Record them as stranded (cumulative) so the
  // loss oracle can excuse instead of silently losing them.
  sweep_stranded();
  deployment_ = std::move(deployment);
  brokers_.clear();
  publishers_.clear();
  const std::size_t num_shards = pick_shard_count();
  loop_.reset(num_shards);
  shards_.clear();
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[s]->index = s;
  }
  metrics_.reset();
  measured_s_ = 0;
  publishers_scheduled_ = false;
  sampler_scheduled_ = false;
  // The sampler's epoch ends with the deployment: the event clock restarts
  // at zero, so keeping old rows would interleave two timelines in one
  // series (the canonical (time, key) sort would shuffle them together).
  sampler_.clear();
  // Fault epoch ends with the deployment: pending fault events died with
  // the queue, active faults and buffers are meaningless for new brokers.
  faults_active_ = false;
  admission_active_ = false;
  faults_.reset();
  fault_key_seq_ = 0;
  retransmit_caps_.clear();
  publish_ledger_.clear();
  ledger_enabled_ = false;

  // Shard assignment: contiguous cuts of the overlay, balanced by hosted
  // clients (a proxy for per-broker event volume).
  std::unordered_map<BrokerId, std::size_t> weight;
  for (const auto& sub : deployment_.subscribers) weight[sub.home] += 1;
  for (const auto& pub : deployment_.publishers) weight[pub.home] += 1;
  const ShardPlan plan = partition_brokers(deployment_.topology, weight, num_shards);
  obs::MetricsRegistry::global().gauge("sim.shards").set(static_cast<double>(num_shards));
  obs::MetricsRegistry::global()
      .gauge("sim.cross_shard_links")
      .set(static_cast<double>(plan.cross_links));

  // Dense ordinals in ascending-id order feed the event keys; the same
  // deployment gets the same keys no matter how many shards it runs on.
  std::vector<BrokerId> ids = deployment_.topology.brokers();
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BrokerId b = ids[i];
    const auto cap_it = deployment_.capacities.find(b);
    const BrokerCapacity cap =
        cap_it != deployment_.capacities.end() ? cap_it->second : BrokerCapacity{};
    BrokerSlot slot;
    slot.broker = std::make_unique<Broker>(b, cap, deployment_.profile_window_bits);
    slot.shard = shards_[plan.shard_of(b)].get();
    slot.ord = i;
    slot.drop_rng = Rng(drop_seed(b));
    slot.shard->owned_sorted.push_back(b);  // ids ascend, so this stays sorted
    brokers_.emplace(b, std::move(slot));
  }
  for (std::size_t i = 0; i < deployment_.publishers.size(); ++i) {
    const PublisherSpec& spec = deployment_.publishers[i];
    PublisherState st;
    st.spec = spec;
    auto [seq_it, inserted] = seq_.try_emplace(spec.adv, 0);
    (void)inserted;
    st.next_seq = seq_it->second;
    st.seq_slot = &seq_it->second;
    st.home = &brokers_.at(spec.home);
    st.shard = st.home->shard;
    st.ord = ids.size() + i;
    publishers_.push_back(std::move(st));
    // Pre-create the symbol's walk state: worker threads must never insert
    // into the generator's map concurrently.
    quotes_.prewarm(spec.symbol);
  }
  client_hosts_.clear();
  for (const auto& sub : deployment_.subscribers) client_hosts_.insert(sub.home);
  for (const auto& pub : deployment_.publishers) client_hosts_.insert(pub.home);
  install_routing();
}

void Simulation::install_routing() {
  // Routing state is installed along the overlay's unique tree paths: each
  // subscription is compiled once and its shared record is walked from its
  // home broker toward every intersecting advertisement's home, using the
  // flood's BFS trees instead of a fresh path search per pair.
  assert(deployment_.topology.is_tree());
  const std::uint64_t install_ts = obs::trace_enabled() ? obs::trace_now_us() : 0;
  std::vector<BrokerSlot*> by_ord(brokers_.size());
  for (auto& [id, slot] : brokers_) {
    (void)id;
    by_ord[slot.ord] = &slot;
  }
  const std::size_t num_pubs = deployment_.publishers.size();
  constexpr auto kUnseen = ~std::uint32_t{0};

  // Advertisement flooding: every broker learns each advertisement, and the
  // flood's BFS tree records the direction (last hop) toward its publisher:
  // toward[p][b] is the dense ordinal of b's neighbor toward publisher p's
  // home (the home maps to itself). These trees are the advertisement
  // routing state; subscription propagation below walks them.
  std::vector<std::vector<std::uint32_t>> toward(num_pubs);
  std::vector<CompiledFilter> adv_filters;
  adv_filters.reserve(num_pubs);
  {
    GREENPS_SPAN("sim.install_routing.flood");
    for (std::size_t p = 0; p < num_pubs; ++p) {
      const PublisherSpec& pub = deployment_.publishers[p];
      assert(deployment_.topology.has_broker(pub.home));
      std::vector<std::uint32_t>& parent = toward[p];
      parent.assign(by_ord.size(), kUnseen);
      const auto root = static_cast<std::uint32_t>(brokers_.at(pub.home).ord);
      std::vector<std::uint32_t> frontier{root};
      parent[root] = root;
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const std::uint32_t b = frontier[head];
        for (const BrokerId n : deployment_.topology.neighbors(by_ord[b]->broker->id())) {
          const auto o = static_cast<std::uint32_t>(brokers_.at(n).ord);
          if (parent[o] == kUnseen) {
            parent[o] = b;
            frontier.push_back(o);
          }
        }
      }
      adv_filters.emplace_back(pub.adv_filter);
      for (const std::uint32_t b : frontier) {
        // Announce to the SRT: it scopes matching to the candidate
        // subscriptions intersecting this advertisement.
        by_ord[b]->broker->srt().register_advertisement(pub.adv, adv_filters.back());
      }
      broker(pub.home).cbc().register_publisher(pub.client, pub.adv);
    }
  }

  // Subscription propagation: each subscription is installed at every
  // broker on the path from its home broker toward each intersecting
  // advertisement's home broker, pointing back toward the subscriber. Paths
  // to several advertisements share a prefix; in a tree the hop at a shared
  // broker is the same, so each (broker, subscription) pair is installed
  // once. installed[b] is the index + 1 of the last subscription installed
  // at b, hop_of[b] the ordinal its entry points to.
  {
    GREENPS_SPAN("sim.install_routing.propagate");
    std::vector<std::size_t> installed(by_ord.size(), 0);
    [[maybe_unused]] std::vector<std::uint32_t> hop_of(by_ord.size(), 0);
    for (std::size_t s = 0; s < deployment_.subscribers.size(); ++s) {
      const SubscriberSpec& sub = deployment_.subscribers[s];
      assert(deployment_.topology.has_broker(sub.home));
      const CompiledFilter filter(sub.filter);
      const auto home = static_cast<std::uint32_t>(brokers_.at(sub.home).ord);
      Broker& home_broker = *by_ord[home]->broker;
      home_broker.srt().insert(sub.sub, filter, Hop::to_client(sub.client));
      home_broker.cbc().register_subscription(sub.sub, sub.client, sub.filter);
      installed[home] = s + 1;
      for (std::size_t p = 0; p < num_pubs; ++p) {
        const PublisherSpec& pub = deployment_.publishers[p];
        if (!may_intersect(adv_filters[p], filter)) {
          assert(!intersects(pub.adv_filter, sub.filter));
          continue;
        }
        if (!intersects(pub.adv_filter, sub.filter)) continue;
        const std::vector<std::uint32_t>& parent = toward[p];
        for (std::uint32_t prev = home, b = parent[home]; prev != b; prev = b, b = parent[b]) {
          assert(b != kUnseen);
          if (installed[b] == s + 1) {
            assert(hop_of[b] == prev);
            continue;
          }
          installed[b] = s + 1;
          hop_of[b] = prev;
          by_ord[b]->broker->srt().insert(sub.sub, filter,
                                          Hop::to_broker(by_ord[prev]->broker->id()));
        }
      }
    }
  }

  // Publish immutable routing snapshots: matching reads only published
  // state, so the tables installed above become visible here, in one step
  // per broker.
  std::size_t entries = 0;
  {
    GREENPS_SPAN("sim.install_routing.publish");
    for (auto& [id, slot] : brokers_) {
      (void)id;
      slot.broker->publish_routing();
      entries += slot.broker->srt().filter_count();
    }
  }
  if (obs::trace_enabled()) {
    obs::trace_complete("sim.install_routing", install_ts, obs::trace_now_us(), entries);
  }
}

void Simulation::schedule_publisher(std::size_t pub_index, SimTime first) {
  PublisherState& st = publishers_[pub_index];
  if (st.spec.rate_msg_s <= 0) return;
  loop_.queue(st.shard->index)
      .schedule_keyed(first, make_key(kSourceClass, st.ord, st.key_seq++),
                      [this, pub_index] { publish(pub_index); });
}

void Simulation::publish(std::size_t pub_index) {
  PublisherState& st = publishers_[pub_index];
  Shard& sh = *st.shard;
  EventQueue& q = loop_.queue(sh.index);
  const SimTime now = q.now();

  std::shared_ptr<Publication> pub = sh.pub_pool.acquire();
  quotes_.next_into(st.spec.symbol, *pub);
  const MessageSeq seq = st.next_seq++;
  *st.seq_slot = st.next_seq;
  pub->set_header(st.spec.adv, seq);
  sh.metrics.on_publication();
  BrokerSlot& home = *st.home;
  // A crashed home broker rejects the publication at its door. The quote
  // draw and sequence increment above still happened, so the per-symbol
  // price walk and seq<->quote mapping stay aligned with a fault-free run
  // and the loss oracle can regenerate exactly what was lost.
  const bool home_down = faults_active_ && home.broker->crashed();
  if (ledger_enabled_) sh.ledger.push_back({st.spec.adv, seq, now, home_down});
  if (home_down) {
    sh.faults.stats().pubs_dropped_at_source += 1;
  } else if (admission_active_ &&
             to_seconds(std::max<SimTime>(home.broker->out_link().busy_until() - now, 0)) >
                 fault_options_.admission_backlog_s) {
    // Degraded mode: the home broker is drowning (typically absorbing a
    // dead peer's traffic) — park the publication at the door instead of
    // feeding the backlog. New injections are the lowest-priority class;
    // in-transit forwards and deliveries are never shed.
    defer_publication(home, std::move(pub), now);
  } else {
    home.broker->cbc().record_publish(st.spec.adv, seq, pub->size_kb(), now);
    const SimTime arrival = now + net_.client_latency;
    q.schedule_keyed(arrival, make_key(kSourceClass, st.ord, st.key_seq++),
                     [this, pub = std::move(pub), slot = &home, now] {
                       arrive_at_broker(*slot, pub, BrokerId{}, /*has_from=*/false,
                                        /*broker_hops=*/0, now);
                     });
  }

  // Next publication, fixed inter-arrival spacing.
  const auto period = static_cast<SimTime>(
      std::llround(static_cast<double>(kMicrosPerSecond) / st.spec.rate_msg_s));
  q.schedule_keyed(now + std::max<SimTime>(period, 1),
                   make_key(kSourceClass, st.ord, st.key_seq++),
                   [this, pub_index] { publish(pub_index); });
}

void Simulation::arrive_at_broker(BrokerSlot& slot, std::shared_ptr<const Publication> pub,
                                  BrokerId from, bool has_from, int broker_hops,
                                  SimTime publish_time) {
  Broker& br = *slot.broker;
  Shard& sh = *slot.shard;
  EventQueue& q = loop_.queue(sh.index);
  const BrokerId b = br.id();
  if (faults_active_ && br.crashed()) {
    // Messages aimed at a dead broker never enter its queues. With
    // retransmit-on-reconnect the neighbor holds the message and replays
    // it after the restart (store-and-forward); otherwise it is lost.
    sh.faults.stats().arrivals_dropped += 1;
    if (fault_options_.retransmit_on_reconnect) {
      buffer_for_retransmit(
          sh, b, BufferedArrival{std::move(pub), from, has_from, /*is_delivery=*/false,
                                 SubId{}, broker_hops, publish_time});
    }
    return;
  }
  BrokerTraffic& traffic = sh.metrics.traffic_for(b);
  traffic.msgs_in += 1;
  const int hops_here = broker_hops + 1;

  const SimTime service = br.matching_service_time();
  br.cbc().record_matching(br.srt().filter_count(), service);
  const SimTime matched_at = br.matcher().serve(q.now(), service);
  const BrokerId* exclude = has_from ? &from : nullptr;
  // Routing decision is computed against current tables; the simulator's
  // tables are static during a run, so evaluating now is equivalent to
  // evaluating at matched_at and avoids copying the tables into the closure.
  // The scratch result is consumed before this function returns (the
  // scheduled closures don't reference it), so reuse across arrivals is safe.
  br.route_into(*pub, exclude, sh.route_scratch, sh.match_scratch);
  const auto& decision = sh.route_scratch;

  const MsgSize size = pub->size_kb();
  for (const BrokerId next : decision.forward_to) {
    if (faults_active_) {
      if (sh.faults.link_is_down(b, next)) {
        sh.faults.stats().msgs_dropped_link_down += 1;
        continue;
      }
      const double p = sh.faults.drop_prob(b, next);
      if (p > 0 && slot.drop_rng.chance(p)) {
        sh.faults.stats().msgs_dropped_random += 1;
        continue;
      }
    }
    const SimTime sent_at = br.out_link().transmit(matched_at, size);
    traffic.msgs_out += 1;
    const SimTime hop_latency =
        net_.link_latency + (faults_active_ ? sh.faults.extra_latency() : 0);
    // Lookahead contract (sim/sharded_engine.hpp): sent_at >= now + the
    // sender's matching service time and hop_latency >= link latency, so a
    // cross-shard arrival is always at least shard_lookahead() ahead.
    BrokerSlot* next_slot = &brokers_.at(next);
    const SimTime at = sent_at + hop_latency;
    const EventKey key = make_key(kSourceClass, slot.ord, slot.key_seq++);
    EventQueue::Action action = [this, next_slot, pub, b, hops_here, publish_time] {
      arrive_at_broker(*next_slot, pub, b, /*has_from=*/true, hops_here, publish_time);
    };
    if (next_slot->shard == &sh) {
      q.schedule_keyed(at, key, std::move(action));
    } else {
      loop_.post(sh.index, next_slot->shard->index, at, key, std::move(action));
    }
  }
  for (const auto& [sub_id, client] : decision.deliver) {
    const SimTime sent_at = br.out_link().transmit(matched_at, size);
    traffic.msgs_out += 1;
    const SimTime delivered_at = sent_at + net_.client_latency;
    q.schedule_keyed(delivered_at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                     [this, sp = &slot, sub_id = sub_id, pub, hops_here, publish_time,
                      delivered_at] {
                       Shard& s2 = *sp->shard;
                       if (faults_active_ && sp->broker->crashed()) {
                         // The home broker died while the message was on the
                         // client link: the subscriber is detached, so the
                         // delivery never lands. With retransmit enabled it is
                         // re-delivered after the restart.
                         s2.faults.stats().deliveries_dropped += 1;
                         if (fault_options_.retransmit_on_reconnect) {
                           buffer_for_retransmit(
                               s2, sp->broker->id(),
                               BufferedArrival{pub, BrokerId{}, false,
                                               /*is_delivery=*/true, sub_id, hops_here,
                                               publish_time});
                         }
                         return;
                       }
                       s2.metrics.on_delivery(sp->broker->id(), hops_here,
                                              delivered_at - publish_time);
                       sp->broker->cbc().record_delivery(sub_id, pub->adv_id(), pub->seq());
                     });
  }
}

void Simulation::install_faults(FaultSchedule schedule, FaultOptions options) {
  fault_options_ = options;
  ledger_enabled_ = true;  // the loss oracle needs the ledger either way
  // Admission control arms with the options, schedule or not: a re-armed
  // epoch after a recovery redeploy has no scheduled events, but the
  // surviving brokers still need backpressure while load settles.
  admission_active_ = options.admission_control;
  derive_retransmit_caps(schedule);
  if (schedule.empty()) return;
  faults_active_ = true;
  const SimTime now = loop_.now();
  for (const FaultEvent& ev : schedule.events()) {
    // Replicate onto every shard under one shared key: each replica flips
    // its shard's FaultState at the same point in the event order. Replicas
    // beyond shard 0 are bookkeeping, excluded from events_executed().
    const EventKey key = make_key(kFaultClass, 0, fault_key_seq_++);
    const SimTime at = std::max(ev.at, now);
    for (auto& shp : shards_) {
      Shard* sh = shp.get();
      loop_.queue(sh->index).schedule_keyed(at, key, [this, ev, sh] {
        if (sh->index != 0) sh->aux_events += 1;
        apply_fault(ev, *sh);
      });
    }
  }
}

void Simulation::inject_fault(FaultEvent ev) {
  faults_active_ = true;
  ledger_enabled_ = true;
  for (auto& sh : shards_) apply_fault(ev, *sh);
  rebuild_fault_view();
}

void Simulation::apply_fault(const FaultEvent& scheduled, Shard& sh) {
  // Stamp with the actual fire time: events armed in the past were clamped
  // to "now", and outage windows must reflect when the broker really died.
  FaultEvent ev = scheduled;
  ev.at = loop_.queue(sh.index).now();
  const bool record = sh.index == 0;
  auto& reg = obs::MetricsRegistry::global();
  switch (ev.kind) {
    case FaultKind::kBrokerCrash: {
      const auto it = brokers_.find(ev.broker);
      // Dedup against this replica's own state: every replica sees the same
      // fault sequence, so all of them agree (the Broker object belongs to
      // one shard and cannot be consulted from the others).
      if (it == brokers_.end() || sh.faults.is_crashed(ev.broker)) return;
      sh.faults.apply(ev, record);
      if (it->second.shard == &sh) it->second.broker->on_crash();
      if (record) {
        obs::trace_instant("fault.broker_crash",
                           static_cast<std::uint64_t>(ev.broker.value()));
        reg.counter("fault.broker_crashes").add(1);
      }
      break;
    }
    case FaultKind::kBrokerRestart: {
      const auto it = brokers_.find(ev.broker);
      if (it == brokers_.end() || !sh.faults.is_crashed(ev.broker)) return;
      sh.faults.apply(ev, record);
      if (it->second.shard == &sh) {
        it->second.broker->on_restart();
        if (fault_options_.retransmit_on_reconnect) replay_retransmits(it->second);
      }
      if (record) {
        obs::trace_instant("fault.broker_restart",
                           static_cast<std::uint64_t>(ev.broker.value()));
        reg.counter("fault.broker_restarts").add(1);
      }
      break;
    }
    case FaultKind::kLinkDown:
      sh.faults.apply(ev, record);
      if (record) {
        obs::trace_instant("fault.link_down", static_cast<std::uint64_t>(ev.broker.value()));
        reg.counter("fault.link_downs").add(1);
      }
      break;
    case FaultKind::kLinkUp:
      sh.faults.apply(ev, record);
      if (record) {
        obs::trace_instant("fault.link_up", static_cast<std::uint64_t>(ev.broker.value()));
        reg.counter("fault.link_ups").add(1);
      }
      break;
    case FaultKind::kLinkDrop:
      sh.faults.apply(ev, record);
      if (record) {
        obs::trace_instant("fault.link_drop");
        reg.counter("fault.link_drop_windows").add(1);
      }
      break;
    case FaultKind::kLatencySpike:
      sh.faults.apply(ev, record);
      if (record) {
        obs::trace_instant("fault.latency_spike");
        reg.counter("fault.latency_spikes").add(1);
      }
      break;
  }
  if (record) {
    GREENPS_COUNTER("fault.crashed_brokers", sh.faults.crashed_count());
  }
}

std::size_t Simulation::retransmit_cap(BrokerId b) const {
  if (fault_options_.max_retransmit_buffer != 0) return fault_options_.max_retransmit_buffer;
  const auto it = retransmit_caps_.find(b);
  return it != retransmit_caps_.end() ? it->second : kDefaultRetransmitCap;
}

void Simulation::derive_retransmit_caps(const FaultSchedule& schedule) {
  retransmit_caps_.clear();
  if (fault_options_.max_retransmit_buffer != 0) return;  // explicit flat cap
  double outage_s = fault_options_.expected_outage_s;
  if (outage_s <= 0) {
    // Size for the longest crash-to-restart gap the schedule will inflict.
    std::unordered_map<BrokerId, SimTime> crash_at;
    SimTime longest = 0;
    for (const FaultEvent& ev : schedule.events()) {
      if (ev.kind == FaultKind::kBrokerCrash) {
        crash_at[ev.broker] = ev.at;
      } else if (ev.kind == FaultKind::kBrokerRestart) {
        if (const auto it = crash_at.find(ev.broker); it != crash_at.end()) {
          longest = std::max(longest, ev.at - it->second);
          crash_at.erase(it);
        }
      }
    }
    outage_s = longest > 0 ? to_seconds(longest) : 5.0;
  }
  for (const auto& [b, rate] : profiled_rate_) {
    const double raw = rate * outage_s * fault_options_.retransmit_headroom;
    const auto cap = static_cast<std::size_t>(std::ceil(std::max(raw, 0.0)));
    retransmit_caps_[b] = std::clamp(cap, kMinRetransmitCap, kMaxRetransmitCap);
  }
}

void Simulation::buffer_for_retransmit(Shard& sh, BrokerId at, BufferedArrival&& entry) {
  auto& buf = sh.retransmit[at];
  if (buf.size() >= retransmit_cap(at)) {
    sh.faults.stats().retransmit_overflow += 1;
    return;
  }
  buf.push_back(std::move(entry));
}

void Simulation::replay_retransmits(BrokerSlot& slot) {
  Shard& sh = *slot.shard;
  const auto it = sh.retransmit.find(slot.broker->id());
  if (it == sh.retransmit.end() || it->second.empty()) return;
  std::vector<BufferedArrival> entries = std::move(it->second);
  sh.retransmit.erase(it);
  EventQueue& q = loop_.queue(sh.index);
  const SimTime at = q.now() + net_.reconnect_latency;
  obs::trace_instant("fault.retransmit_replay", entries.size());
  for (BufferedArrival& e : entries) {
    sh.faults.stats().retransmits_replayed += 1;
    if (e.is_delivery) {
      // Final hop was lost: re-deliver straight to the local subscriber.
      q.schedule_keyed(at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                       [this, sp = &slot, e = std::move(e)] {
                         Shard& s2 = *sp->shard;
                         if (sp->broker->crashed()) {  // crashed again before the replay
                           s2.faults.stats().deliveries_dropped += 1;
                           if (fault_options_.retransmit_on_reconnect) {
                             buffer_for_retransmit(s2, sp->broker->id(), BufferedArrival{e});
                           }
                           return;
                         }
                         s2.metrics.traffic_for(sp->broker->id()).msgs_out += 1;
                         s2.metrics.on_delivery(sp->broker->id(), e.broker_hops,
                                                loop_.queue(s2.index).now() - e.publish_time);
                         sp->broker->cbc().record_delivery(e.sub, e.pub->adv_id(),
                                                           e.pub->seq());
                       });
    } else {
      // Re-run the arrival; arrive_at_broker re-buffers if down again.
      q.schedule_keyed(at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                       [this, sp = &slot, e = std::move(e)] {
                         arrive_at_broker(*sp, e.pub, e.from, e.has_from, e.broker_hops,
                                          e.publish_time);
                       });
    }
  }
}

void Simulation::defer_publication(BrokerSlot& home, std::shared_ptr<Publication> pub,
                                   SimTime published_at) {
  Shard& sh = *home.shard;
  DeferredQueue& dq = sh.deferred[home.broker->id()];
  if (dq.entries.size() >= fault_options_.admission_max_deferred) {
    // Back-pressure at the door: the freshest message is the one shed.
    sh.faults.stats().pubs_shed_admission += 1;
    sh.shed.emplace(pub->adv_id(), pub->seq());
    return;
  }
  sh.faults.stats().pubs_deferred_admission += 1;
  dq.entries.push_back(DeferredPub{std::move(pub), published_at});
  if (!dq.drain_scheduled) {
    dq.drain_scheduled = true;
    schedule_admission_drain(home);
  }
}

void Simulation::schedule_admission_drain(BrokerSlot& slot) {
  Shard& sh = *slot.shard;
  EventQueue& q = loop_.queue(sh.index);
  const SimTime retry = std::max<SimTime>(seconds(fault_options_.admission_retry_s), 1);
  q.schedule_keyed(q.now() + retry, make_key(kSourceClass, slot.ord, slot.key_seq++),
                   [this, sp = &slot] { drain_admissions(*sp); });
}

void Simulation::drain_admissions(BrokerSlot& slot) {
  Shard& sh = *slot.shard;
  const auto it = sh.deferred.find(slot.broker->id());
  if (it == sh.deferred.end()) return;
  DeferredQueue& dq = it->second;
  if (dq.entries.empty()) {
    dq.drain_scheduled = false;
    return;
  }
  EventQueue& q = loop_.queue(sh.index);
  const SimTime now = q.now();
  const double backlog_s =
      to_seconds(std::max<SimTime>(slot.broker->out_link().busy_until() - now, 0));
  // A crashed home holds its parked messages (re-admitting them would only
  // migrate them into the retransmit buffer); hysteresis on the backlog
  // keeps the drain from re-flooding a link that barely recovered.
  if (!slot.broker->crashed() && backlog_s <= fault_options_.admission_resume_s) {
    const std::size_t n =
        std::min(dq.entries.size(), fault_options_.admission_drain_batch);
    for (std::size_t i = 0; i < n; ++i) {
      DeferredPub e = std::move(dq.entries.front());
      dq.entries.pop_front();
      sh.faults.stats().pubs_readmitted += 1;
      slot.broker->cbc().record_publish(e.pub->adv_id(), e.pub->seq(), e.pub->size_kb(),
                                        now);
      // Re-stamp the ledger at re-admission: the oracle's horizon-slack
      // excuse must measure from when the message actually entered the
      // system, not from when it was parked (later rows win in its map).
      if (ledger_enabled_) {
        sh.ledger.push_back({e.pub->adv_id(), e.pub->seq(), now, false});
      }
      q.schedule_keyed(now + net_.client_latency,
                       make_key(kSourceClass, slot.ord, slot.key_seq++),
                       [this, sp = &slot, pub = std::move(e.pub),
                        at = e.published_at]() mutable {
                         arrive_at_broker(*sp, std::move(pub), BrokerId{},
                                          /*has_from=*/false, /*broker_hops=*/0, at);
                       });
    }
  }
  if (dq.entries.empty()) {
    dq.drain_scheduled = false;
    return;
  }
  schedule_admission_drain(slot);
}

void Simulation::sweep_stranded() {
  for (const auto& sh : shards_) {
    for (const auto& [b, buf] : sh->retransmit) {
      (void)b;
      for (const BufferedArrival& e : buf) {
        if (stranded_.emplace(e.pub->adv_id(), e.pub->seq()).second) stranded_total_ += 1;
      }
    }
    for (const auto& [b, dq] : sh->deferred) {
      (void)b;
      for (const DeferredPub& e : dq.entries) {
        if (stranded_.emplace(e.pub->adv_id(), e.pub->seq()).second) stranded_total_ += 1;
      }
    }
  }
}

bool Simulation::broker_alive(BrokerId id) const {
  const auto it = brokers_.find(id);
  return it != brokers_.end() && !it->second.broker->crashed();
}

std::optional<BrokerInfo> Simulation::broker_info_if_reachable(BrokerId id) const {
  if (!broker_alive(id)) return std::nullopt;
  return broker_info(id);
}

std::optional<std::uint64_t> Simulation::broker_epoch_if_reachable(BrokerId id) const {
  if (!broker_alive(id)) return std::nullopt;
  return broker(id).cbc().epoch();
}

std::set<std::pair<AdvId, MessageSeq>> Simulation::pending_retransmits() const {
  std::set<std::pair<AdvId, MessageSeq>> out;
  for (const auto& sh : shards_) {
    for (const auto& [b, buf] : sh->retransmit) {
      (void)b;
      for (const BufferedArrival& e : buf) out.emplace(e.pub->adv_id(), e.pub->seq());
    }
  }
  return out;
}

std::set<std::pair<AdvId, MessageSeq>> Simulation::pending_admissions() const {
  std::set<std::pair<AdvId, MessageSeq>> out;
  for (const auto& sh : shards_) {
    for (const auto& [b, dq] : sh->deferred) {
      (void)b;
      for (const DeferredPub& e : dq.entries) out.emplace(e.pub->adv_id(), e.pub->seq());
    }
  }
  return out;
}

std::set<std::pair<AdvId, MessageSeq>> Simulation::shed_publications() const {
  std::set<std::pair<AdvId, MessageSeq>> out;
  for (const auto& sh : shards_) out.insert(sh->shed.begin(), sh->shed.end());
  return out;
}

void Simulation::ensure_pool() {
  const std::size_t n = loop_.shard_count();
  if (pool_ == nullptr || pool_->size() < n) pool_ = std::make_unique<ThreadPool>(n);
}

SimTime Simulation::shard_lookahead() const {
  SimTime min_service = std::numeric_limits<SimTime>::max();
  for (const auto& [id, slot] : brokers_) {
    (void)id;
    min_service = std::min(min_service, slot.broker->matching_service_time());
  }
  if (min_service == std::numeric_limits<SimTime>::max()) min_service = 0;
  return net_.link_latency + min_service;
}

void Simulation::run(double duration_s) {
  const SimTime start = loop_.now();
  const SimTime end = start + seconds(duration_s);
  if (!publishers_scheduled_) {
    // Start publishers, staggering initial publications across one period
    // to avoid a synchronized burst.
    for (std::size_t i = 0; i < publishers_.size(); ++i) {
      const auto& spec = publishers_[i].spec;
      if (spec.rate_msg_s <= 0) continue;
      const auto period = static_cast<SimTime>(
          std::llround(static_cast<double>(kMicrosPerSecond) / spec.rate_msg_s));
      const SimTime first = start + (period * static_cast<SimTime>(i)) /
                                        static_cast<SimTime>(publishers_.size() + 1);
      schedule_publisher(i, first);
    }
    publishers_scheduled_ = true;
  }
  if (sample_interval_us_ > 0 && !sampler_scheduled_) {
    for (auto& sh : shards_) schedule_sample(*sh, start + sample_interval_us_);
    sampler_scheduled_ = true;
  }
  {
    GREENPS_SPAN("sim.run");
    if (loop_.shard_count() <= 1) {
      loop_.run(end, 0, nullptr);
    } else {
      ensure_pool();
      // Match-walk counters are thread_local; harvest each worker slot's
      // delta and fold it into the caller's counter after the join.
      loop_.run(
          end, shard_lookahead(), pool_.get(),
          [this](std::size_t s) { shards_[s]->walk_base = MatchingEngine::match_walks(); },
          [this](std::size_t s) {
            shards_[s]->walk_delta = MatchingEngine::match_walks() - shards_[s]->walk_base;
          });
      for (std::size_t s = 1; s < shards_.size(); ++s) {
        MatchingEngine::add_match_walks(shards_[s]->walk_delta);
      }
    }
  }
  // Events past `end` (in-flight deliveries, future publications) stay
  // queued; a subsequent run() continues seamlessly.
  measured_s_ += duration_s;
  rebuild_master_state();
}

void Simulation::set_publisher_rate(ClientId client, MsgRate rate_msg_s) {
  assert(rate_msg_s > 0);
  for (auto& spec : deployment_.publishers) {
    if (spec.client == client) spec.rate_msg_s = rate_msg_s;
  }
  for (auto& st : publishers_) {
    if (st.spec.client == client) st.spec.rate_msg_s = rate_msg_s;
  }
}

void Simulation::set_sample_interval_ms(double ms) {
  sample_interval_us_ = ms > 0 ? static_cast<SimTime>(std::llround(ms * 1000.0)) : 0;
}

void Simulation::rebuild_master_state() {
  metrics_.reset();
  for (const auto& sh : shards_) metrics_.merge_from(sh->metrics);
  rebuild_fault_view();
  publish_ledger_.clear();
  for (const auto& sh : shards_) {
    publish_ledger_.insert(publish_ledger_.end(), sh->ledger.begin(), sh->ledger.end());
  }
  // Canonical order regardless of shard layout (advs are unique per
  // publisher whenever more than one shard is in play).
  std::stable_sort(publish_ledger_.begin(), publish_ledger_.end(),
                   [](const PublishRecord& a, const PublishRecord& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.adv != b.adv) return a.adv < b.adv;
                     return a.seq < b.seq;
                   });
  for (const auto& sh : shards_) sampler_.absorb(sh->sampler);
  sampler_.sort_rows();
}

void Simulation::rebuild_fault_view() {
  // Shard 0 is the recording replica: full state plus schedule-driven
  // stats and outage windows. The other shards contribute only their
  // hot-path drop/replay counters.
  faults_ = shards_[0]->faults;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    faults_.stats().add(shards_[s]->faults.stats());
  }
}

void Simulation::snapshot_profiled_rates() {
  if (measured_s_ <= 0) return;
  profiled_rate_.clear();
  for (const auto& [b, t] : metrics_.traffic()) {
    profiled_rate_[b] =
        static_cast<double>(t.msgs_in + t.local_deliveries) / measured_s_;
  }
}

void Simulation::schedule_sample(Shard& sh, SimTime at) {
  loop_.queue(sh.index).schedule_keyed(
      at, make_key(kSamplerClass, sh.index, sh.sampler_key_seq++), [this, sp = &sh] {
        if (sp->index != 0) sp->aux_events += 1;
        take_sample(*sp);
        schedule_sample(*sp, loop_.queue(sp->index).now() + sample_interval_us_);
      });
}

void Simulation::take_sample(Shard& sh) {
  const SimTime now = loop_.queue(sh.index).now();
  const double interval_s = to_seconds(sample_interval_us_);
  for (const BrokerId id : sh.owned_sorted) {
    const Broker& br = *brokers_.at(id).broker;
    // A crashed broker emits no row: sampler rows double as heartbeats for
    // the control plane's failure detector, and silence is the signal. The
    // faults_active_ guard keeps fault-free series bit-identical. Baselines
    // are left untouched, so the first post-restart row reports the rates
    // accumulated since the last emitted row.
    if (faults_active_ && br.crashed()) continue;
    SampleBaseline& base = sh.sample_baselines[id];
    std::uint64_t in_now = 0;
    std::uint64_t out_now = 0;
    if (const auto it = sh.metrics.traffic().find(id); it != sh.metrics.traffic().end()) {
      in_now = it->second.msgs_in;
      out_now = it->second.msgs_out;
    }
    const SimTime busy_now = br.out_link().busy_time();
    const double in_rate = static_cast<double>(in_now - base.msgs_in) / interval_s;
    const double out_rate = static_cast<double>(out_now - base.msgs_out) / interval_s;
    const double backlog_s = to_seconds(std::max<SimTime>(br.out_link().busy_until() - now, 0));
    // A crash resets the output link's busy counter, so the delta can go
    // negative mid-outage; clamp (no-op in fault-free runs, where busy
    // time is monotone).
    const double util = std::max(
        0.0,
        static_cast<double>(busy_now - base.busy_us) / static_cast<double>(sample_interval_us_));
    sh.sampler.append(to_seconds(now), id.value(), {in_rate, out_rate, backlog_s, util});
    base = {in_now, out_now, busy_now};
  }
}

void Simulation::reset_metrics() {
  snapshot_profiled_rates();
  metrics_.reset();
  measured_s_ = 0;
  for (const auto& sh : shards_) {
    sh->metrics.reset();
    // Traffic counters restart at zero; link busy time does not, so only
    // the message baselines reset.
    for (auto& [id, base] : sh->sample_baselines) {
      (void)id;
      base.msgs_in = 0;
      base.msgs_out = 0;
    }
  }
}

std::size_t Simulation::events_executed() const {
  std::size_t aux = 0;
  for (const auto& sh : shards_) aux += sh->aux_events;
  return loop_.executed() - aux;
}

BrokerInfo Simulation::broker_info(BrokerId id) const {
  const Broker& br = broker(id);
  return br.cbc().snapshot(id, br.capacity().delay, br.capacity().out_bw_kb_s);
}

SimSummary Simulation::summarize() const {
  SimSummary s;
  s.duration_s = measured_s_;
  s.allocated_brokers = brokers_.size();
  s.publications = metrics_.publications();
  s.deliveries = metrics_.deliveries();
  s.avg_hop_count = metrics_.avg_hops();
  s.avg_delivery_delay_ms = metrics_.avg_delay_ms();
  s.p50_delivery_delay_ms = metrics_.delay_histogram().percentile_ms(0.50);
  s.p99_delivery_delay_ms = metrics_.delay_histogram().percentile_ms(0.99);
  s.retransmit_overflow = faults_.stats().retransmit_overflow;
  s.pubs_deferred = faults_.stats().pubs_deferred_admission;
  s.pubs_shed = faults_.stats().pubs_shed_admission;
  s.msgs_stranded = stranded_total_;

  double util_total = 0;
  for (const auto& [b, traffic] : metrics_.traffic()) {
    (void)b;
    if (traffic.msgs_in + traffic.msgs_out > 0) s.brokers_with_traffic += 1;
    s.broker_msgs_total += traffic.msgs_in + traffic.msgs_out;
  }
  std::size_t with_subs_or_traffic = 0;
  for (const auto& [id, slot] : brokers_) {
    const auto it = metrics_.traffic().find(id);
    const bool processed = it != metrics_.traffic().end() && it->second.msgs_in > 0;
    if (processed) {
      with_subs_or_traffic += 1;
      // busy_time is an integer microsecond count far below 2^53, so this
      // sum is exact and iteration order cannot perturb it.
      util_total += static_cast<double>(slot.broker->out_link().busy_time());
      const bool no_local = it->second.local_deliveries == 0;
      // A pure forwarder processes traffic but hosts no clients and fans
      // out to at most one direction (Section V-A, Figure 4a).
      if (no_local && deployment_.topology.neighbors(id).size() <= 2 &&
          !client_hosts_.contains(id)) {
        s.pure_forwarding_brokers += 1;
      }
    }
  }
  if (s.duration_s > 0) {
    s.system_msg_rate = static_cast<double>(s.broker_msgs_total) / s.duration_s;
    if (s.allocated_brokers > 0) {
      s.avg_broker_msg_rate = s.system_msg_rate / static_cast<double>(s.allocated_brokers);
    }
    if (with_subs_or_traffic > 0) {
      s.avg_output_utilization = util_total / static_cast<double>(kMicrosPerSecond) /
                                 s.duration_s / static_cast<double>(with_subs_or_traffic);
    }
  }
  return s;
}

}  // namespace greenps
