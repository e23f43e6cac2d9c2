// BIN PACKING (Section IV-B): like FBF but subscriptions are first sorted
// by descending bandwidth requirement (first-fit-decreasing). O(S log S);
// consistently allocates about one broker fewer than FBF.
#pragma once

#include "alloc/allocation.hpp"

namespace greenps {

[[nodiscard]] Allocation bin_packing_allocate(std::vector<AllocBroker> pool,
                                              std::vector<SubUnit> units,
                                              const PublisherTable& table);

// Sort units by descending output-bandwidth requirement (stable tiebreak on
// first member id for determinism). Exposed for CRAM, which re-runs
// BIN PACKING as its allocation test.
void sort_units_by_bandwidth_desc(std::vector<SubUnit>& units);
void sort_units_by_bandwidth_desc(std::vector<const SubUnit*>& units);

// The strict ordering behind those sorts (bandwidth descending, tiebreak
// ascending — a total order since member ids are unique across units).
// Exposed so CRAM can splice a tentative cluster unit into an already-sorted
// probe vector at exactly the position a full re-sort would give it.
[[nodiscard]] bool unit_order_less(const SubUnit& a, const SubUnit& b);

// unit_order_less's tiebreak key: the first member id, else the first child
// broker id, else 0.
[[nodiscard]] std::uint64_t unit_tiebreak(const SubUnit& u);

// Copy-free BIN PACKING feasibility probe (pool must already be capacity
// sorted by the caller or not — it is re-sorted internally).
[[nodiscard]] PackProbe bin_packing_probe(std::vector<AllocBroker> pool,
                                          std::vector<const SubUnit*> units,
                                          const PublisherTable& table);

}  // namespace greenps
