#include "alloc/bin_packing.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace greenps {

std::uint64_t unit_tiebreak(const SubUnit& u) {
  if (!u.members.empty()) return u.members.front().value();
  if (!u.child_members.empty()) return u.child_members.front().value();
  return 0;
}

bool unit_order_less(const SubUnit& a, const SubUnit& b) {
  if (a.out_bw != b.out_bw) return a.out_bw > b.out_bw;
  return unit_tiebreak(a) < unit_tiebreak(b);
}

void sort_units_by_bandwidth_desc(std::vector<SubUnit>& units) {
  std::sort(units.begin(), units.end(),
            [](const SubUnit& a, const SubUnit& b) { return unit_order_less(a, b); });
}

void sort_units_by_bandwidth_desc(std::vector<const SubUnit*>& units) {
  std::sort(units.begin(), units.end(),
            [](const SubUnit* a, const SubUnit* b) { return unit_order_less(*a, *b); });
}

PackProbe bin_packing_probe(std::vector<AllocBroker> pool, std::vector<const SubUnit*> units,
                            const PublisherTable& table) {
  sort_by_capacity_desc(pool);
  sort_units_by_bandwidth_desc(units);
  return first_fit_probe(pool, units, table);
}

Allocation bin_packing_allocate(std::vector<AllocBroker> pool, std::vector<SubUnit> units,
                                const PublisherTable& table) {
  GREENPS_SPAN_TAGGED("alloc.bin_packing", units.size());
  sort_by_capacity_desc(pool);
  sort_units_by_bandwidth_desc(units);
  return first_fit(pool, units, table);
}

}  // namespace greenps
