#include "alloc/broker_pool.hpp"

#include <algorithm>
#include <cassert>

namespace greenps {

void sort_by_capacity_desc(std::vector<AllocBroker>& brokers) {
  std::sort(brokers.begin(), brokers.end(), [](const AllocBroker& a, const AllocBroker& b) {
    if (a.out_bw != b.out_bw) return a.out_bw > b.out_bw;
    return a.id < b.id;
  });
}

bool BrokerLoad::admissible(const SubUnit& u, MsgRate* rate_out) const {
  // Output bandwidth: remaining must stay strictly positive (checked first —
  // a bandwidth reject costs no union walk).
  if (broker_.out_bw - (used_bw_ + u.out_bw) <= 0) return false;
  // Input rate of the union of hosted profiles, computed incrementally:
  // r(U ∪ u) = r(U) + r(u) − r(U ∩ u). The association (in_rate_ + u.in_rate)
  // − rate matches the historical fits() expression exactly so accept
  // decisions stay bit-identical.
  const MsgRate rate = union_.intersection_rate(u.profile);
  *rate_out = rate;
  const MsgRate new_in = in_rate_ + u.in_rate - rate;
  const std::size_t new_filters = filter_count_ + u.filter_count;
  return new_in <= broker_.delay.max_matching_rate(new_filters);
}

bool BrokerLoad::fits(const SubUnit& u, const PublisherTable& table) const {
  (void)table;
  assert(settled());
  MsgRate rate = 0;
  return admissible(u, &rate);
}

bool BrokerLoad::try_add(const SubUnit& u, const PublisherTable& table) {
  if (broker_.out_bw - (used_bw_ + u.out_bw) <= 0) return false;
  const std::size_t new_filters = filter_count_ + u.filter_count;
  const MsgRate thresh = broker_.delay.max_matching_rate(new_filters);
  if (!keep_units_) {
    // bound_ >= the exact rate E and IEEE addition is monotone, so
    // fl(bound_ + r) <= thresh implies fl(E + r) <= thresh: the eager test
    // below would take its fast path and accept. Its accounting adds
    // r - rate <= r, so the new bound stays above the new exact rate.
    const MsgRate bound = bound_ + u.in_rate;
    if (bound <= thresh) {
      bound_ = bound;
      used_bw_ += u.out_bw;
      filter_count_ = new_filters;
      unit_count_ += 1;
      pending_.push_back(&u);
      return true;
    }
    // The bound cannot decide: make the rate exact and test as below.
    settle(table);
  }
  const MsgRate sum = in_rate_ + u.in_rate;
  MsgRate rate;
  if (sum <= thresh) {
    // Every intersection term is >= 0, so new_in = sum − rate <= sum (IEEE
    // subtraction of a non-negative value never rounds above a representable
    // bound) — the unit provably fits and one fused walk both decides and
    // accounts, with the identical rate value and association the slow path
    // would produce.
    rate = union_.merge_with_rate(u.profile, table);
  } else {
    rate = union_.intersection_rate(u.profile);
    // Same expression and association as the historical fits().
    if (in_rate_ + u.in_rate - rate > thresh) return false;
    union_.merge(u.profile, table);
  }
  // Accounting matches the historical add(): in_rate_ += (u.in_rate − rate).
  in_rate_ += u.in_rate - rate;
  bound_ = in_rate_;
  used_bw_ += u.out_bw;
  filter_count_ = new_filters;
  unit_count_ += 1;
  if (keep_units_) units_.push_back(u);
  return true;
}

void BrokerLoad::add(const SubUnit& u, const PublisherTable& table) {
  assert(settled());
  // Caller checked fits(); merge and account in one fused walk.
  in_rate_ += u.in_rate - union_.merge_with_rate(u.profile, table);
  bound_ = in_rate_;
  used_bw_ += u.out_bw;
  filter_count_ += u.filter_count;
  unit_count_ += 1;
  if (keep_units_) units_.push_back(u);
}

void BrokerLoad::settle(const PublisherTable& table) {
  // In accept order and with add()'s exact expression, so the union and
  // every rounding step match the eager load's.
  for (const SubUnit* p : pending_) {
    in_rate_ += p->in_rate - union_.merge_with_rate(p->profile, table);
  }
  pending_.clear();
  bound_ = in_rate_;
}

void BrokerLoad::clear() {
  units_.clear();
  union_.clear();
  pending_.clear();
  used_bw_ = 0;
  in_rate_ = 0;
  bound_ = 0;
  filter_count_ = 0;
  unit_count_ = 0;
}

}  // namespace greenps
