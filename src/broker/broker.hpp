// A PADRES-style content-based publish/subscribe broker.
//
// Holds the subscription routing table, capacity description (output
// bandwidth + matching delay function), the CBC profiling component, and
// the two queueing stages the simulator drives: a matching CPU (FifoServer) and a
// throttled output link (BandwidthLimiter).
#pragma once

#include <vector>

#include "broker/bandwidth_limiter.hpp"
#include "broker/cbc.hpp"
#include "broker/routing_tables.hpp"
#include "common/ids.hpp"
#include "matching/delay_model.hpp"

namespace greenps {

struct BrokerCapacity {
  Bandwidth out_bw_kb_s = 1.0e6;
  MatchingDelayFunction delay;
};

class Broker {
 public:
  Broker(BrokerId id, BrokerCapacity capacity,
         std::size_t profile_window_bits = WindowedBitVector::kDefaultCapacity)
      : id_(id),
        capacity_(capacity),
        cbc_(profile_window_bits),
        out_link_(capacity.out_bw_kb_s) {}

  [[nodiscard]] BrokerId id() const { return id_; }
  [[nodiscard]] const BrokerCapacity& capacity() const { return capacity_; }

  [[nodiscard]] SubscriptionRoutingTable& srt() { return srt_; }
  [[nodiscard]] const SubscriptionRoutingTable& srt() const { return srt_; }
  [[nodiscard]] CbcComponent& cbc() { return cbc_; }
  [[nodiscard]] const CbcComponent& cbc() const { return cbc_; }

  // Matching service time for one publication at the current table size.
  [[nodiscard]] SimTime matching_service_time() const {
    return seconds(capacity_.delay.delay_s(srt_.filter_count()));
  }

  [[nodiscard]] FifoServer& matcher() { return matcher_; }
  [[nodiscard]] BandwidthLimiter& out_link() { return out_link_; }
  [[nodiscard]] const BandwidthLimiter& out_link() const { return out_link_; }

  // Route one publication through the published routing snapshot,
  // excluding the neighbor it came from (if any). Fills (and clears) a
  // caller-owned result, so a driver can reuse one MatchResult's vectors and
  // one MatchScratch across every routed message.
  void route_into(const Publication& pub, const BrokerId* from,
                  SubscriptionRoutingTable::MatchResult& out, MatchScratch& scratch) const {
    srt_.match_into(pub, from, out, scratch);
  }

  // Publish an immutable snapshot of the routing table (epoch handle):
  // route_into sees routing state only from here on. Call after
  // (re)installing routing state.
  void publish_routing() { srt_.publish(); }

  void reset_queues() {
    matcher_.reset();
    out_link_.reset();
  }

  // --- fault injection (sim/faults) ---
  // A crashed broker drops every message that reaches it and detaches its
  // clients until restart. Routing tables and CBC profiles survive (warm
  // restart); queued work is dropped.
  [[nodiscard]] bool crashed() const { return crashed_; }
  void on_crash();
  void on_restart();

 private:
  BrokerId id_;
  BrokerCapacity capacity_;
  SubscriptionRoutingTable srt_;
  CbcComponent cbc_;
  FifoServer matcher_;
  BandwidthLimiter out_link_;
  bool crashed_ = false;
};

}  // namespace greenps
