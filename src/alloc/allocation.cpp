#include "alloc/allocation.hpp"

#include <algorithm>
#include <cassert>

#include "alloc/bin_packing.hpp"

namespace greenps {

std::size_t Allocation::unit_count() const {
  std::size_t n = 0;
  for (const auto& b : brokers) n += b.units().size();
  return n;
}

std::size_t Allocation::endpoint_count() const {
  std::size_t n = 0;
  for (const auto& b : brokers) {
    for (const auto& u : b.units()) n += u.endpoint_count();
  }
  return n;
}

MsgRate Allocation::total_in_rate() const {
  MsgRate r = 0;
  for (const auto& b : brokers) r += b.in_rate();
  return r;
}

namespace {

// First-fit placement of one unit: the first load that accepts it.
bool place(std::vector<BrokerLoad>& loads, const SubUnit& u, const PublisherTable& table) {
  for (BrokerLoad& load : loads) {
    if (load.try_add(u, table)) return true;
  }
  return false;
}

std::size_t count_used(const std::vector<BrokerLoad>& loads) {
  std::size_t n = 0;
  for (const BrokerLoad& load : loads) {
    if (!load.empty()) n += 1;
  }
  return n;
}

}  // namespace

PackProbe first_fit_probe(const std::vector<AllocBroker>& pool,
                          const std::vector<const SubUnit*>& units,
                          const PublisherTable& table) {
  PackProbe probe;
  std::vector<BrokerLoad> loads;
  loads.reserve(pool.size());
  for (const AllocBroker& b : pool) loads.emplace_back(b, /*keep_units=*/false);
  for (const SubUnit* u : units) {
    probe.units_packed += 1;
    if (!place(loads, *u, table)) return probe;
  }
  probe.brokers_used = count_used(loads);
  probe.success = true;
  return probe;
}

Allocation first_fit(const std::vector<AllocBroker>& pool, const std::vector<SubUnit>& units,
                     const PublisherTable& table) {
  Allocation result;
  std::vector<BrokerLoad> loads;
  loads.reserve(pool.size());
  for (const AllocBroker& b : pool) loads.emplace_back(b);

  for (const SubUnit& u : units) {
    if (!place(loads, u, table)) return result;  // success stays false
  }
  for (BrokerLoad& load : loads) {
    if (!load.empty()) result.brokers.push_back(std::move(load));
  }
  result.success = true;
  return result;
}

// --- OverlayFirstFit ---

namespace {

using Slot = OverlayFirstFit::Slot;

Slot slot_of(const SubUnit& u) { return Slot{u.out_bw, unit_tiebreak(u), &u}; }

// unit_order_less on cached keys.
bool slot_less(const Slot& a, const Slot& b) {
  if (a.out_bw != b.out_bw) return a.out_bw > b.out_bw;
  return a.tiebreak < b.tiebreak;
}

bool in_ranges(const SubUnit* u, const std::vector<UnitRange>& ranges) {
  for (const UnitRange& r : ranges) {
    if (u >= r.first && u < r.last) return true;
  }
  return false;
}

}  // namespace

OverlayFirstFit::OverlayFirstFit(std::vector<AllocBroker> pool) : pool_(std::move(pool)) {
  sort_by_capacity_desc(pool_);
}

void OverlayFirstFit::reset_loads(std::vector<BrokerLoad>& loads) const {
  if (loads.size() == pool_.size()) {
    // In place, so each load's buffers keep their capacity across probes.
    for (BrokerLoad& load : loads) load.clear();
    return;
  }
  loads.clear();
  loads.reserve(pool_.size());
  for (const AllocBroker& b : pool_) loads.emplace_back(b, /*keep_units=*/false);
}

std::size_t OverlayFirstFit::find(const SubUnit& u) const {
  const Slot key = slot_of(u);
  const auto it = std::lower_bound(slots_.begin(), slots_.end(), key, slot_less);
  assert(it != slots_.end() && !slot_less(key, *it) && "unit is not in the base");
  return static_cast<std::size_t>(it - slots_.begin());
}

const PackProbe& OverlayFirstFit::rebuild(std::vector<const SubUnit*> units,
                                          const PublisherTable& table) {
  slots_.clear();
  slots_.reserve(units.size());
  for (const SubUnit* u : units) slots_.push_back(slot_of(*u));
  std::sort(slots_.begin(), slots_.end(), slot_less);

  reset_loads(work_);
  base_ = PackProbe{};
  for (const Slot& s : slots_) {
    base_.units_packed += 1;
    if (!place(work_, *s.unit, table)) return base_;  // success stays false
  }
  base_.brokers_used = count_used(work_);
  base_.success = true;
  return base_;
}

void OverlayFirstFit::splice(const std::vector<UnitRange>& removed, const SubUnit& added,
                             const PackProbe& result) {
  // Mark the removed slots, then close the gaps in one pass from the first.
  std::size_t first = slots_.size();
  for (const UnitRange& r : removed) {
    for (const SubUnit* u = r.first; u != r.last; ++u) {
      const std::size_t i = find(*u);
      slots_[i].unit = nullptr;
      first = std::min(first, i);
    }
  }
  slots_.erase(std::remove_if(slots_.begin() + static_cast<std::ptrdiff_t>(first), slots_.end(),
                              [](const Slot& s) { return s.unit == nullptr; }),
               slots_.end());
  const Slot add = slot_of(added);
  slots_.insert(std::lower_bound(slots_.begin(), slots_.end(), add, slot_less), add);
  base_ = result;
  // The packing work was already accounted when the adopted probe ran.
  base_.units_packed = 0;
}

void OverlayFirstFit::repoint(const std::vector<SubUnit>& units) {
  for (const SubUnit& u : units) slots_[find(u)].unit = &u;
}

PackProbe OverlayFirstFit::probe_replacement(const std::vector<UnitRange>& removed,
                                             const SubUnit* added,
                                             const PublisherTable& table,
                                             Scratch& scratch) const {
  PackProbe probe;
  reset_loads(scratch.loads);
  const Slot add = added != nullptr ? slot_of(*added) : Slot{};
  bool pending_add = added != nullptr;
  std::size_t i = 0;
  while (i < slots_.size() || pending_add) {
    const SubUnit* next = nullptr;
    if (pending_add && (i == slots_.size() || slot_less(add, slots_[i]))) {
      next = added;
      pending_add = false;
    } else {
      next = slots_[i++].unit;
      if (in_ranges(next, removed)) continue;
    }
    probe.units_packed += 1;
    if (!place(scratch.loads, *next, table)) return probe;
  }
  probe.brokers_used = count_used(scratch.loads);
  probe.success = true;
  return probe;
}

}  // namespace greenps
