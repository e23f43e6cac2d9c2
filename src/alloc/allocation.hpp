// Allocation result type and the shared first-fit core used by FBF,
// BIN PACKING and (as its inner allocation test) CRAM, plus the overlay
// packer behind CRAM's allocation probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/broker_pool.hpp"

namespace greenps {

struct Allocation {
  bool success = false;
  // One entry per broker that received at least one unit.
  std::vector<BrokerLoad> brokers;

  [[nodiscard]] std::size_t brokers_used() const { return brokers.size(); }
  [[nodiscard]] std::size_t unit_count() const;
  [[nodiscard]] std::size_t endpoint_count() const;
  // Sum over brokers of their union-profile input rate — proportional to
  // the total publication traffic entering the broker tier.
  [[nodiscard]] MsgRate total_in_rate() const;
};

// Place `units` (in the given order) onto `pool` (tried in the given order,
// which callers pre-sort by descending capacity): each unit goes to the
// first broker that passes the allocation test. Fails if any unit fits
// nowhere — "the algorithm ends ... if at least one subscription cannot be
// allocated to any broker".
[[nodiscard]] Allocation first_fit(const std::vector<AllocBroker>& pool,
                                   const std::vector<SubUnit>& units,
                                   const PublisherTable& table);

// Copy-free feasibility probe of the same packing (CRAM runs it after every
// clustering attempt, so it must not copy the pool of units).
struct PackProbe {
  bool success = false;
  std::size_t brokers_used = 0;
  // Units this probe walked through the allocation test (the overlay length
  // on success, up to and including the unplaceable unit on failure).
  std::size_t units_packed = 0;
};

[[nodiscard]] PackProbe first_fit_probe(const std::vector<AllocBroker>& pool,
                                        const std::vector<const SubUnit*>& units,
                                        const PublisherTable& table);

// Units in [first, last) are excluded from an overlay probe. The ranges are
// contiguous in memory (prefixes of GIF unit vectors), not in pack order.
struct UnitRange {
  const SubUnit* first = nullptr;
  const SubUnit* last = nullptr;
};

// First-fit packing of one base unit sequence plus overlays of it.
//
// Holds the committed unit set sorted in first-fit order (unit_order_less).
// An overlay probe packs the base minus some unit ranges, plus at most one
// spliced-in unit, from scratch into caller-owned dry-run loads — no unit
// vector is copied or re-sorted. A committed overlay's winning probe is
// adopted as the next base result, and the base order is updated by
// splicing (erase the removed units' slots, insert the merged unit's) and
// repointing the slots of units that moved in memory, so commits neither
// re-pack nor re-sort.
//
// probe_replacement is const and touches only caller-owned scratch, so
// probes may run concurrently (CRAM's speculative parallel k-search).
class OverlayFirstFit {
 public:
  explicit OverlayFirstFit(std::vector<AllocBroker> pool);

  // One base unit with its sort key cached, so searches and merges of the
  // order never dereference the unit. (out_bw descending, tiebreak
  // ascending) is exactly unit_order_less — a strict total order when
  // tiebreak keys (first member ids) are unique, as they are in CRAM.
  struct Slot {
    Bandwidth out_bw = 0;
    std::uint64_t tiebreak = 0;
    const SubUnit* unit = nullptr;
  };

  // Per-probe working state (dry-run broker loads, left unsettled by the
  // probe), reusable across probes of one packer and owned per worker
  // thread during parallel searches.
  struct Scratch {
    std::vector<BrokerLoad> loads;
  };

  // Sort `units` and pack them as the new base. `units` is borrowed by
  // pointer values; pointees must stay alive and unchanged until the next
  // rebuild, or be repointed when they move.
  const PackProbe& rebuild(std::vector<const SubUnit*> units, const PublisherTable& table);

  // Turn the base into the committed overlay (base − removed + added)
  // without packing: `result` must be that overlay's probe result (the
  // commit's winning probe). Call while `removed` still points into live
  // units. The inserted slot points at `added`; repoint it once the unit
  // reaches its final address.
  void splice(const std::vector<UnitRange>& removed, const SubUnit& added,
              const PackProbe& result);

  // `units` now live at new addresses (e.g. a GIF vector after erase, push
  // or sort): point every base slot with the same key at its new address.
  // Every unit must be in the base.
  void repoint(const std::vector<SubUnit>& units);

  [[nodiscard]] const PackProbe& base() const { return base_; }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

  // Feasibility of the base sequence minus `removed` plus `added` (nullable).
  // Every removed range must reference units of the current base. Leaves
  // scratch.loads unsettled.
  [[nodiscard]] PackProbe probe_replacement(const std::vector<UnitRange>& removed,
                                            const SubUnit* added,
                                            const PublisherTable& table,
                                            Scratch& scratch) const;

 private:
  void reset_loads(std::vector<BrokerLoad>& loads) const;
  // Index of the slot keyed like `u` (which must be in the base).
  [[nodiscard]] std::size_t find(const SubUnit& u) const;

  std::vector<AllocBroker> pool_;  // capacity-sorted
  std::vector<Slot> slots_;        // base units in first-fit order
  std::vector<BrokerLoad> work_;   // rebuild working state
  PackProbe base_;
};

}  // namespace greenps
