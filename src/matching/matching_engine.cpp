#include "matching/matching_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

namespace greenps {

namespace {

thread_local std::size_t t_match_walks = 0;
std::atomic<bool> g_index_enabled{true};

// Conservative numeric interval [lo, hi] implied by a filter's inequality
// predicates on one attribute. Bounds are inclusive even for strict
// operators — candidates are re-checked with the full filter, so widening
// is safe and keeps the stab test branch-free.
struct Bounds {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool bounded_below = false;
  bool bounded_above = false;
};

}  // namespace

std::size_t MatchingEngine::match_walks() { return t_match_walks; }
void MatchingEngine::reset_match_walks() { t_match_walks = 0; }
void MatchingEngine::add_match_walks(std::size_t n) { t_match_walks += n; }
void MatchingEngine::set_index_enabled(bool enabled) {
  g_index_enabled.store(enabled, std::memory_order_relaxed);
}
bool MatchingEngine::index_enabled() {
  return g_index_enabled.load(std::memory_order_relaxed);
}

const CompiledFilter::EqKey* MatchingEngine::pick_eq_predicate(
    const CompiledFilter& f) const {
  const CompiledFilter::EqKey* best = nullptr;
  std::size_t best_distinct = 0;
  for (const CompiledFilter::EqKey& p : f.eq_keys()) {
    std::size_t distinct = 0;
    const auto it = attr_indexes_.find(p.attr);
    if (it != attr_indexes_.end()) distinct = it->second.eq.size();
    // `>=` so later predicates win ties: subscription filters typically put
    // the broad class predicate first and the selective one after it.
    if (best == nullptr || distinct >= best_distinct) {
      best = &p;
      best_distinct = distinct;
    }
  }
  return best;
}

const CompiledFilter& MatchingEngine::insert(Handle handle, CompiledFilter filter) {
  remove(handle);  // replacing an entry must first drop its index refs
  Entry e{std::move(filter), Slot::kScan, kNoIntern, {}};
  if (const CompiledFilter::EqKey* p = pick_eq_predicate(e.compiled)) {
    e.slot = Slot::kEq;
    e.index_attr = p->attr;
    e.eq_key = p->key;
    const auto it = entries_.insert_or_assign(handle, std::move(e)).first;
    const Entry& stored = it->second;
    attr_indexes_[stored.index_attr].eq[stored.eq_key].push_back(handle);
    return stored.compiled;
  }

  // No equality predicate: look for a numeric interval to index under,
  // preferring the most constrained attribute (both bounds > one bound).
  using Kind = CompiledFilter::Kind;
  std::unordered_map<InternId, Bounds> bounds;
  std::vector<InternId> order;  // deterministic preference order
  for (const CompiledFilter::Pred& p : e.compiled.preds()) {
    if (p.kind != Kind::kLt && p.kind != Kind::kLe && p.kind != Kind::kGt &&
        p.kind != Kind::kGe) {
      continue;
    }
    auto [it, inserted] = bounds.try_emplace(p.attr);
    if (inserted) order.push_back(p.attr);
    Bounds& b = it->second;
    if (p.kind == Kind::kLt || p.kind == Kind::kLe) {
      b.hi = b.bounded_above ? std::min(b.hi, p.num) : p.num;
      b.bounded_above = true;
    } else {
      b.lo = b.bounded_below ? std::max(b.lo, p.num) : p.num;
      b.bounded_below = true;
    }
  }
  const InternId* best = nullptr;
  int best_score = -1;
  for (const InternId& attr : order) {
    const Bounds& b = bounds.at(attr);
    const int score = (b.bounded_below ? 1 : 0) + (b.bounded_above ? 1 : 0);
    if (score > best_score) {
      best = &attr;
      best_score = score;
    }
  }
  if (best != nullptr) {
    const Bounds& b = bounds.at(*best);
    e.slot = Slot::kInterval;
    e.index_attr = *best;
    const auto it = entries_.insert_or_assign(handle, std::move(e)).first;
    auto& intervals = attr_indexes_[it->second.index_attr].intervals;
    const Interval iv{b.lo, b.hi, handle};
    intervals.insert(std::upper_bound(intervals.begin(), intervals.end(), iv), iv);
    return it->second.compiled;
  }
  const auto it = entries_.insert_or_assign(handle, std::move(e)).first;
  scan_list_.push_back(handle);
  return it->second.compiled;
}

void MatchingEngine::remove(Handle handle) {
  const auto it = entries_.find(handle);
  if (it == entries_.end()) return;
  const Entry& e = it->second;
  auto erase_from = [handle](std::vector<Handle>& v) { std::erase(v, handle); };
  switch (e.slot) {
    case Slot::kScan:
      erase_from(scan_list_);
      break;
    case Slot::kEq: {
      auto ait = attr_indexes_.find(e.index_attr);
      if (ait != attr_indexes_.end()) {
        auto kit = ait->second.eq.find(e.eq_key);
        if (kit != ait->second.eq.end()) {
          erase_from(kit->second);
          if (kit->second.empty()) ait->second.eq.erase(kit);
        }
      }
      break;
    }
    case Slot::kInterval: {
      auto ait = attr_indexes_.find(e.index_attr);
      if (ait != attr_indexes_.end()) {
        auto& ivs = ait->second.intervals;
        ivs.erase(std::remove_if(ivs.begin(), ivs.end(),
                                 [handle](const Interval& iv) { return iv.handle == handle; }),
                  ivs.end());
      }
      break;
    }
  }
  entries_.erase(it);
}

const Filter* MatchingEngine::find(Handle handle) const {
  const auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : &it->second.compiled.source();
}

const CompiledFilter* MatchingEngine::compiled(Handle handle) const {
  const auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : &it->second.compiled;
}

MatchingEngine::Snapshot MatchingEngine::build_snapshot() const {
  Snapshot s;
  std::vector<std::pair<Handle, const Entry*>> order;
  order.reserve(entries_.size());
  for (const auto& [h, e] : entries_) order.emplace_back(h, &e);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  s.subs.reserve(order.size());
  for (const auto& [h, e] : order) s.subs.push_back(Snapshot::Sub{h, e->compiled});
  const auto dense = [&s](Handle h) { return s.dense_index(h); };
  // Copy the index contents (rather than re-derive them from the filters):
  // bucket membership and interval bounds were chosen by insertion-time
  // heuristics, and preserving the exact per-bucket order keeps probe order
  // (and thus walk counts) a function of the table's mutation history alone.
  s.attr_indexes.reserve(attr_indexes_.size());
  for (const auto& [attr, ai] : attr_indexes_) {
    Snapshot::AttrIdx& out = s.attr_indexes[attr];
    out.eq.reserve(ai.eq.size());
    for (const auto& [key, handles] : ai.eq) {
      std::vector<std::uint32_t>& bucket = out.eq[key];
      bucket.reserve(handles.size());
      for (const Handle h : handles) bucket.push_back(dense(h));
    }
    out.intervals.reserve(ai.intervals.size());
    for (const Interval& iv : ai.intervals) {
      out.intervals.push_back(Snapshot::Interval{iv.lo, iv.hi, dense(iv.handle)});
    }
  }
  s.scan_list.reserve(scan_list_.size());
  for (const Handle h : scan_list_) s.scan_list.push_back(dense(h));
  return s;
}

std::uint32_t MatchingEngine::Snapshot::dense_index(Handle handle) const {
  const auto it = std::lower_bound(subs.begin(), subs.end(), handle,
                                   [](const Sub& sub, Handle h) { return sub.handle < h; });
  return static_cast<std::uint32_t>(it - subs.begin());
}

void MatchingEngine::Snapshot::match_into(const Publication& pub,
                                          std::vector<std::uint32_t>& out) const {
  if (!MatchingEngine::index_enabled()) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      ++t_match_walks;
      if (subs[i].filter.matches(pub)) out.push_back(static_cast<std::uint32_t>(i));
    }
    return;
  }
  auto probe = [&](const std::vector<std::uint32_t>& cands) {
    for (const std::uint32_t c : cands) {
      ++t_match_walks;
      if (subs[c].filter.matches(pub)) out.push_back(c);
    }
  };
  const auto& keys = pub.attr_keys();
  for (const Publication::AttrKey& k : keys) {
    const auto ait = attr_indexes.find(k.attr);
    if (ait == attr_indexes.end()) continue;
    const AttrIdx& index = ait->second;
    if (!index.eq.empty()) {
      const auto kit = index.eq.find(k.key);
      if (kit != index.eq.end()) probe(kit->second);
    }
    if (!index.intervals.empty() && k.key.tag == ValueKey::Tag::kNumber) {
      // Stab query: every interval with lo <= x is in the sorted prefix.
      const double x = std::bit_cast<double>(k.key.bits);
      const auto end = std::upper_bound(
          index.intervals.begin(), index.intervals.end(), x,
          [](double v, const Interval& iv) { return v < iv.lo; });
      for (auto iv = index.intervals.begin(); iv != end; ++iv) {
        if (iv->hi < x) continue;
        ++t_match_walks;
        if (subs[iv->sub].filter.matches(pub)) out.push_back(iv->sub);
      }
    }
  }
  probe(scan_list);
}

}  // namespace greenps
