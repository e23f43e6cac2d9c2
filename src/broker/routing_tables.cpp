#include "broker/routing_tables.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace greenps {

namespace {
std::atomic<bool> g_adv_pruning_enabled{true};

// Sorted with no duplicates (debug check of the scoped path's ordering).
template <typename T>
[[maybe_unused]] bool strictly_ascending(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            [](const T& a, const T& b) { return !(a < b); }) == v.end();
}
}  // namespace

void SubscriptionRoutingTable::set_adv_pruning_enabled(bool enabled) {
  g_adv_pruning_enabled.store(enabled, std::memory_order_relaxed);
}
bool SubscriptionRoutingTable::adv_pruning_enabled() {
  return g_adv_pruning_enabled.load(std::memory_order_relaxed);
}

// Conservative disjointness: if both filters carry an equality predicate on
// the same attribute with different value keys, no publication value can
// equal both, so the filters share no matching publication. (Equal keys of
// different values exist only for NaN; keeping such a candidate is merely
// conservative.) This is far cheaper than a full intersects() — no filter
// normalization/copies — at the cost of a slightly wider candidate set for
// range-disjoint filters, which the per-candidate match re-check absorbs.
bool SubscriptionRoutingTable::eq_disjoint(EqKeys a, EqKeys b) {
  for (const EqKey& pa : a) {
    for (const EqKey& pb : b) {
      if (pa.attr == pb.attr && !(pa.key == pb.key)) return true;
    }
  }
  return false;
}

// A scope pinning attribute `a` by equality can agree with the filter only
// if it pins `a` to one of the filter's keys for `a`. So when every scope
// pins some attribute the filter pins, the (attr, key) bucket holds every
// compatible scope; otherwise fall back to visiting all scopes. Either way
// eq_disjoint makes the final call, so the visited set never changes which
// scopes qualify.
template <typename Fn>
void SubscriptionRoutingTable::for_each_compatible_scope(EqKeys eqs, Fn&& fn) {
  if (advs_.empty()) return;
  const std::vector<AdvScope*>* narrowest = nullptr;
  for (const EqKey& e : eqs) {
    const auto count = scopes_per_attr_.find(e.attr);
    if (count == scopes_per_attr_.end() || count->second != advs_.size()) continue;
    const auto bucket = scopes_by_eq_.find(e);
    if (bucket == scopes_by_eq_.end()) return;  // every scope pins another key
    if (narrowest == nullptr || bucket->second.size() < narrowest->size()) {
      narrowest = &bucket->second;
    }
  }
  if (narrowest != nullptr) {
    for (AdvScope* scope : *narrowest) {
      if (!eq_disjoint(scope->compiled.eq_keys(), eqs)) fn(*scope);
    }
    return;
  }
  for (auto& [adv, scope] : advs_) {
    (void)adv;
    if (!eq_disjoint(scope.compiled.eq_keys(), eqs)) fn(scope);
  }
}

void SubscriptionRoutingTable::index_scope(AdvScope& scope) {
  const EqKeys eqs = scope.compiled.eq_keys();
  for (std::size_t i = 0; i < eqs.size(); ++i) {
    const auto seen = eqs.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(eqs.begin(), seen, eqs[i]) == seen) scopes_by_eq_[eqs[i]].push_back(&scope);
    if (std::none_of(eqs.begin(), seen, [&](const EqKey& e) { return e.attr == eqs[i].attr; })) {
      ++scopes_per_attr_[eqs[i].attr];
    }
  }
}

void SubscriptionRoutingTable::unindex_scope(AdvScope& scope) {
  const EqKeys eqs = scope.compiled.eq_keys();
  for (std::size_t i = 0; i < eqs.size(); ++i) {
    const auto seen = eqs.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(eqs.begin(), seen, eqs[i]) == seen) {
      const auto bucket = scopes_by_eq_.find(eqs[i]);
      std::erase(bucket->second, &scope);
      if (bucket->second.empty()) scopes_by_eq_.erase(bucket);
    }
    if (std::none_of(eqs.begin(), seen, [&](const EqKey& e) { return e.attr == eqs[i].attr; })) {
      const auto count = scopes_per_attr_.find(eqs[i].attr);
      if (--count->second == 0) scopes_per_attr_.erase(count);
    }
  }
}

void SubscriptionRoutingTable::insert(SubId sub, CompiledFilter filter, Hop next_hop) {
  if (hops_.contains(sub)) remove(sub);
  const CompiledFilter& cf = engine_.insert(sub.value(), std::move(filter));
  hops_.insert_or_assign(sub, next_hop);
  for_each_compatible_scope(cf.eq_keys(), [&](AdvScope& scope) {
    const auto pos =
        std::lower_bound(scope.candidates.begin(), scope.candidates.end(), sub.value());
    scope.candidates.insert(pos, sub.value());
  });
}

void SubscriptionRoutingTable::remove(SubId sub) {
  if (!hops_.contains(sub)) return;
  // A subscription sits in exactly the scopes it is compatible with, so the
  // same visit finds every candidate entry. The engine entry (and with it
  // the equality keys) must outlive the visit.
  for_each_compatible_scope(engine_.compiled(sub.value())->eq_keys(), [&](AdvScope& scope) {
    const auto pos =
        std::lower_bound(scope.candidates.begin(), scope.candidates.end(), sub.value());
    if (pos != scope.candidates.end() && *pos == sub.value()) scope.candidates.erase(pos);
  });
  engine_.remove(sub.value());
  hops_.erase(sub);
}

void SubscriptionRoutingTable::register_advertisement(AdvId id, CompiledFilter filter) {
  const auto [it, inserted] = advs_.try_emplace(id);
  AdvScope& scope = it->second;
  if (!inserted) unindex_scope(scope);
  scope.compiled = std::move(filter);
  scope.candidates.clear();
  const EqKeys eqs = scope.compiled.eq_keys();
  engine_.for_each([&](MatchingEngine::Handle h, const CompiledFilter& f) {
    if (!eq_disjoint(eqs, f.eq_keys())) scope.candidates.push_back(h);
  });
  std::sort(scope.candidates.begin(), scope.candidates.end());
  index_scope(scope);
}

SubscriptionRoutingTable::Snapshot* SubscriptionRoutingTable::build_snapshot() const {
  auto* s = new Snapshot();
  s->engine = engine_.build_snapshot();
  // A hop per dense sub. Every engine handle has a hop (insert/remove keep
  // them in sync).
  s->hops.reserve(s->engine.subs.size());
  for (const auto& sub : s->engine.subs) s->hops.push_back(hops_.at(SubId{sub.handle}));
  s->advs.reserve(advs_.size());
  std::vector<std::pair<BrokerId, std::uint32_t>> remote;  // reused across scopes
  for (const auto& [id, scope] : advs_) {
    Snapshot::SnapScope snap_scope;
    snap_scope.compiled = scope.compiled;
    snap_scope.candidates.reserve(scope.candidates.size());
    remote.clear();
    for (const MatchingEngine::Handle h : scope.candidates) {
      const std::uint32_t idx = s->engine.dense_index(h);
      const Hop& hop = s->hops[idx];
      if (hop.kind == Hop::Kind::kClient) {
        snap_scope.candidates.push_back(idx);
      } else {
        remote.emplace_back(hop.broker, idx);
      }
    }
    snap_scope.local_end = static_cast<std::uint32_t>(snap_scope.candidates.size());
    // Group by neighbor; within a group, keep ascending handle order.
    std::sort(remote.begin(), remote.end());
    snap_scope.group_begin = static_cast<std::uint32_t>(s->groups.size());
    for (const auto& [broker, idx] : remote) {
      if (s->groups.size() == snap_scope.group_begin || s->groups.back().broker != broker) {
        s->groups.push_back({broker, 0});
      }
      snap_scope.candidates.push_back(idx);
      s->groups.back().end = static_cast<std::uint32_t>(snap_scope.candidates.size());
    }
    snap_scope.group_end = static_cast<std::uint32_t>(s->groups.size());
    s->advs.emplace(id, std::move(snap_scope));
  }
  s->groups.shrink_to_fit();
  return s;
}

void SubscriptionRoutingTable::publish() {
  Snapshot* s = build_snapshot();
  s->version = next_version_++;
  snap_.publish(s);
}

std::uint64_t SubscriptionRoutingTable::published_version() const {
  EpochGuard guard;
  const Snapshot* s = snap_.load();
  return s == nullptr ? 0 : s->version;
}

std::uint64_t SubscriptionRoutingTable::match_into(const Publication& pub,
                                                   const BrokerId* exclude,
                                                   MatchResult& result,
                                                   MatchScratch& scratch) const {
  result.clear();
  EpochGuard guard;
  const Snapshot* snap = snap_.load();
  if (snap == nullptr) return 0;
  const Snapshot::SnapScope* scope = nullptr;
  if (adv_pruning_enabled() && pub.adv_id().valid()) {
    const auto it = snap->advs.find(pub.adv_id());
    // Pruning applies only to conforming publications; anything else (or an
    // unknown advertisement) takes the full engine match.
    if (it != snap->advs.end() && it->second.compiled.matches(pub)) scope = &it->second;
  }
  if (scope != nullptr) {
    // Advertisement-scoped fast path. Every local candidate is matched; each
    // neighbor group stops at its first matching filter, and the arrival
    // link's group is skipped. Locals ascend by handle and groups by broker,
    // so both lists come out sorted and unique without a sort.
    const std::vector<std::uint32_t>& cands = scope->candidates;
    std::size_t walks = scope->local_end;
    for (std::uint32_t i = 0; i < scope->local_end; ++i) {
      const std::uint32_t idx = cands[i];
      if (snap->engine.subs[idx].filter.matches(pub)) {
        result.deliver.emplace_back(SubId{snap->engine.subs[idx].handle}, snap->hops[idx].client);
      }
    }
    std::uint32_t begin = scope->local_end;
    for (std::uint32_t g = scope->group_begin; g < scope->group_end; ++g) {
      const Snapshot::HopGroup& group = snap->groups[g];
      if (exclude == nullptr || group.broker != *exclude) {
        for (std::uint32_t i = begin; i < group.end; ++i) {
          ++walks;
          if (snap->engine.subs[cands[i]].filter.matches(pub)) {
            result.forward_to.push_back(group.broker);
            break;
          }
        }
      }
      begin = group.end;
    }
    MatchingEngine::add_match_walks(walks);
    assert(strictly_ascending(result.forward_to));
    assert(strictly_ascending(result.deliver));
    return snap->version;
  }
  scratch.dense.clear();
  snap->engine.match_into(pub, scratch.dense);
  for (const std::uint32_t idx : scratch.dense) {
    const Hop& hop = snap->hops[idx];
    if (hop.kind == Hop::Kind::kClient) {
      result.deliver.emplace_back(SubId{snap->engine.subs[idx].handle}, hop.client);
    } else if (exclude == nullptr || hop.broker != *exclude) {
      result.forward_to.push_back(hop.broker);
    }
  }
  // Deterministic ordering for reproducible simulations; forwarding dedup is
  // one sort + unique instead of a quadratic std::find per hop.
  std::sort(result.forward_to.begin(), result.forward_to.end());
  result.forward_to.erase(std::unique(result.forward_to.begin(), result.forward_to.end()),
                          result.forward_to.end());
  std::sort(result.deliver.begin(), result.deliver.end());
  return snap->version;
}

}  // namespace greenps
