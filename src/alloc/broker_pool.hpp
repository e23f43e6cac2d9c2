// Broker capacity views and running load state used by the Phase-2
// allocators.
#pragma once

#include <cassert>
#include <vector>

#include "common/ids.hpp"
#include "matching/delay_model.hpp"
#include "profile/sub_unit.hpp"
#include "profile/union_profile.hpp"

namespace greenps {

// What CROC knows about a broker from its BIA (Section III-A): identity,
// total output bandwidth, and the matching delay function.
struct AllocBroker {
  BrokerId id;
  Bandwidth out_bw = 0;
  MatchingDelayFunction delay;
};

// Sort descending by output bandwidth ("descending resource capacity"),
// ties broken by id for determinism.
void sort_by_capacity_desc(std::vector<AllocBroker>& brokers);

// Load assigned to one broker during an allocation run. Tracks the union
// profile of hosted units so the incoming publication rate counts shared
// traffic once. The union is kept flat (UnionProfile) so the allocation
// test is a single two-pointer walk.
//
// A dry-run load (`keep_units=false`, CRAM's allocation probes) defers that
// walk: it keeps an upper bound on the input rate, accepts a unit on the
// bound alone when the bound already passes the test, and queues the unit.
// settle() replays the queue through the exact accounting. The accept
// decisions, the settled rate and the union bits are identical to an eager
// load's (see DESIGN.md, "Lazy probe accounting").
//
// The publisher table passed to fits/add/try_add/settle must be the same
// table for the lifetime of one load (publisher pointers are resolved once
// on merge).
class BrokerLoad {
 public:
  // `keep_units=false` turns the load into a dry-run accumulator: capacity
  // accounting runs as usual but accepted units are not retained, and the
  // union-rate walk is deferred (see above). Accepted units are then held
  // by pointer until settle() or clear(), so they must outlive that.
  explicit BrokerLoad(AllocBroker broker, bool keep_units = true)
      : broker_(broker), keep_units_(keep_units) {}

  // Allocation test (Section IV-A): after accepting `u`, remaining output
  // bandwidth must stay > 0 and the incoming publication rate must not
  // exceed the maximum matching rate at the new filter count. Requires a
  // settled load.
  [[nodiscard]] bool fits(const SubUnit& u, const PublisherTable& table) const;

  // Fused allocation test + accept: one union-rate walk decides and, on
  // success, accounts (fits() + add() cost two); a dry-run load decided by
  // its rate bound walks nothing. Returns false with the state untouched
  // (apart from settling) if `u` does not fit.
  bool try_add(const SubUnit& u, const PublisherTable& table);

  // Accept `u` unconditionally (caller checked fits()) — one fused
  // merge_with_rate walk. Requires a settled load.
  void add(const SubUnit& u, const PublisherTable& table);

  // Replay the deferred accepts, in accept order, through the exact
  // accounting: afterwards in_rate() and the union equal an eager load's.
  // One union walk per deferred unit.
  void settle(const PublisherTable& table);

  // Empty the load in place, keeping its broker and buffer capacity.
  void clear();

  [[nodiscard]] bool settled() const { return pending_.empty(); }
  [[nodiscard]] const AllocBroker& broker() const { return broker_; }
  [[nodiscard]] const std::vector<SubUnit>& units() const { return units_; }
  [[nodiscard]] std::vector<SubUnit>& mutable_units() { return units_; }
  [[nodiscard]] Bandwidth used_bw() const { return used_bw_; }
  [[nodiscard]] Bandwidth remaining_bw() const { return broker_.out_bw - used_bw_; }
  // Exact input rate. Like union_profile() and union_view(), it requires a
  // settled load.
  [[nodiscard]] MsgRate in_rate() const {
    assert(settled());
    return in_rate_;
  }
  // Upper bound on in_rate() that holds whether or not the load is settled.
  [[nodiscard]] MsgRate in_rate_bound() const { return bound_; }
  [[nodiscard]] std::size_t filter_count() const { return filter_count_; }
  // Materialized union of hosted profiles (Phase-3 child-broker units).
  [[nodiscard]] SubscriptionProfile union_profile() const {
    assert(settled());
    return union_.to_subscription_profile();
  }
  [[nodiscard]] const UnionProfile& union_view() const {
    assert(settled());
    return union_;
  }
  [[nodiscard]] bool empty() const { return unit_count_ == 0; }

  // Fraction of output bandwidth in use.
  [[nodiscard]] double utilization() const {
    return broker_.out_bw > 0 ? used_bw_ / broker_.out_bw : 0.0;
  }

 private:
  // The allocation test's incoming-rate value for accepting `u`; quiet NaN
  // is never produced (rates are finite), so a sentinel is unnecessary —
  // the caller re-checks the bound.
  [[nodiscard]] bool admissible(const SubUnit& u, MsgRate* rate_out) const;

  AllocBroker broker_;
  std::vector<SubUnit> units_;
  UnionProfile union_;
  Bandwidth used_bw_ = 0;
  MsgRate in_rate_ = 0;  // exact for the settled prefix of accepts
  // Invariant: bound_ >= in_rate_ of the fully settled load. Equals
  // in_rate_ whenever pending_ is empty.
  MsgRate bound_ = 0;
  // Dry-run accepts whose union walk is deferred, in accept order.
  std::vector<const SubUnit*> pending_;
  std::size_t filter_count_ = 0;
  std::size_t unit_count_ = 0;
  bool keep_units_ = true;
};

}  // namespace greenps
