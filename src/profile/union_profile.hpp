// Flat union profile: the OR of hosted subscription profiles kept as a
// sorted vector instead of a per-adv std::map.
//
// BrokerLoad's allocation test evaluates r(U ∩ u) against the union of every
// already-accepted profile thousands of times per CRAM run, so the union
// side is stored flat (one contiguous sorted vector, publisher pointers
// resolved once) and walked against the unit's sorted map with a single
// two-pointer pass. Arithmetic is kept operation-for-operation identical to
// SubscriptionProfile::intersection_rate so allocations stay bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "bitvec/windowed_bit_vector.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "profile/publisher_profile.hpp"
#include "profile/subscription_profile.hpp"

namespace greenps {

class UnionProfile {
 public:
  struct Entry {
    AdvId adv;
    WindowedBitVector bits;
    // Publisher resolved once at first merge; nullptr when the adv is absent
    // from the table (contributes no rate, exactly like the map kernel).
    const PublisherProfile* pub = nullptr;
  };

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

  // Publication rate common to this union and `p` — one sorted two-pointer
  // walk, numerically identical to
  // SubscriptionProfile::intersection_rate(union, p, table).
  [[nodiscard]] MsgRate intersection_rate(const SubscriptionProfile& p) const;

  // OR-merge `p` into the union (publishers resolved against `table` on
  // first appearance). No rate math — used after a fits decision.
  void merge(const SubscriptionProfile& p, const PublisherTable& table);

  // Fused accept-and-account: OR-merge `p` and return the pre-merge
  // intersection rate in the same walk (the unconditional-add path).
  MsgRate merge_with_rate(const SubscriptionProfile& p, const PublisherTable& table);

  // Materialize back into a map-backed profile (Phase-3 child-broker units).
  [[nodiscard]] SubscriptionProfile to_subscription_profile() const;

  // Number of union-rate walks performed by the calling thread
  // (intersection_rate + merge_with_rate), mirroring
  // SubscriptionProfile::pairwise_walks(). Per-thread so speculative
  // parallel probes stay contention-free.
  [[nodiscard]] static std::size_t probe_walks();
  static void reset_probe_walks();

 private:
  std::vector<Entry> entries_;  // sorted by adv
};

}  // namespace greenps
