// Routing state of a filter-based publish/subscribe broker: the
// subscription routing table (SRT) steering publications toward
// subscribers. (Advertisements steer subscriptions along the flood trees
// that Simulation::install_routing builds; no broker keeps a table of them.)
//
// Concurrency model: mutations (insert/remove/register_advertisement) and
// publish() belong to one owning thread, and publish() is the only point
// where they become visible. The match read path is const, reads only the
// latest published snapshot and keeps no table-side scratch — callers own a
// MatchScratch — so any number of threads can match concurrently and
// lock-free while the owner keeps mutating and re-publishing: readers pin an
// epoch, load the snapshot pointer with one atomic load, and retired
// snapshots are reclaimed when the last reader leaves (src/common/epoch.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/epoch.hpp"
#include "common/ids.hpp"
#include "matching/matching_engine.hpp"

namespace greenps {

// Next hop of a routed message: either a neighbor broker or a locally
// attached client.
struct Hop {
  enum class Kind : std::uint8_t { kBroker, kClient };

  Kind kind = Kind::kBroker;
  BrokerId broker;
  ClientId client;

  [[nodiscard]] static Hop to_broker(BrokerId b) {
    Hop h;
    h.kind = Kind::kBroker;
    h.broker = b;
    return h;
  }
  [[nodiscard]] static Hop to_client(ClientId c) {
    Hop h;
    h.kind = Kind::kClient;
    h.client = c;
    return h;
  }

  friend bool operator==(const Hop&, const Hop&) = default;
};

class SubscriptionRoutingTable {
 public:
  struct MatchResult {
    // Unique neighbor brokers that need one copy of the publication.
    std::vector<BrokerId> forward_to;
    // Local subscriber deliveries: one copy per matching subscription.
    std::vector<std::pair<SubId, ClientId>> deliver;

    void clear() {
      forward_to.clear();
      deliver.clear();
    }
  };

  SubscriptionRoutingTable() = default;

  // Install or replace the routing entry for `sub`.
  void insert(SubId sub, const Filter& filter, Hop next_hop) {
    insert(sub, CompiledFilter(filter), next_hop);
  }
  // Same, sharing an already compiled record: the simulator compiles each
  // subscription once and installs that record on every broker of its path.
  void insert(SubId sub, CompiledFilter filter, Hop next_hop);
  void remove(SubId sub);

  // Announce an advertisement known at this broker. A conforming publication
  // from `id` (one matching the advertisement's filter) can only match
  // subscriptions compatible with it, so the table precomputes a
  // conservative candidate set per advertisement — routing tables are
  // static during a simulation run — and matches only those candidates; the
  // snapshot stores them as dense indices, so the fast path runs without
  // any per-candidate hash lookup, and groups them by next hop: every local
  // subscriber is matched, while a neighbor's copy is decided by the first
  // matching filter of its group. Non-conforming publications fall back to
  // the full engine match, so registration never changes the match set.
  //
  // Scopes are indexed by (attribute, equality key), with a count of scopes
  // per attribute, so insert() and remove() visit only the scopes a
  // subscription's equality predicates can agree with; each visited scope
  // still runs the eq_disjoint test, so the candidate sets are exactly those
  // of a scan over every scope.
  void register_advertisement(AdvId id, const Filter& filter) {
    register_advertisement(id, CompiledFilter(filter));
  }
  void register_advertisement(AdvId id, CompiledFilter filter);

  // Build an immutable snapshot of the current table and publish it with a
  // single atomic pointer swap. Owner-thread only.
  void publish();
  // Version of the latest published snapshot (0 before the first publish).
  [[nodiscard]] std::uint64_t published_version() const;

  // Match a publication against the latest published snapshot, optionally
  // excluding the broker link it arrived on (never forward a publication
  // back where it came from). `out` is cleared first; `scratch` is
  // caller-owned. Safe from any thread at any time, including while the
  // owner mutates and re-publishes. Returns the snapshot version matched
  // against, or 0 (empty result) if nothing has been published yet.
  std::uint64_t match_into(const Publication& pub, const BrokerId* exclude, MatchResult& out,
                           MatchScratch& scratch) const;

  // Convenience wrapper with call-local scratch (allocates; tests only).
  [[nodiscard]] MatchResult match(const Publication& pub,
                                  const BrokerId* exclude = nullptr) const {
    MatchResult out;
    MatchScratch scratch;
    match_into(pub, exclude, out, scratch);
    return out;
  }

  [[nodiscard]] std::size_t filter_count() const { return hops_.size(); }
  [[nodiscard]] bool contains(SubId sub) const { return hops_.contains(sub); }

  // Test hook: disable advertisement-scoped candidate pruning process-wide
  // (the determinism test asserts identical results either way). The flag
  // is atomic; flip it only while no match is in flight.
  static void set_adv_pruning_enabled(bool enabled);
  [[nodiscard]] static bool adv_pruning_enabled();

 private:
  using EqKey = CompiledFilter::EqKey;
  using EqKeys = std::span<const EqKey>;

  struct AdvScope {
    CompiledFilter compiled;  // conformance check for incoming publications
    std::vector<MatchingEngine::Handle> candidates;  // ascending
  };

  // Immutable published table: the engine snapshot (dense subs in ascending
  // handle order) plus a hop per dense sub and the advertisement scopes
  // with candidates as dense indices, grouped by next hop.
  struct Snapshot {
    // A scope's candidates grouped by hop, in one flat array: first the
    // local subscribers, matched one by one (each is a delivery), then one
    // range per neighbor broker, decided by its first matching filter. The
    // scope's groups are groups[group_begin, group_end) of the snapshot, in
    // ascending broker order; group g spans candidates [previous end, g.end),
    // the first from local_end.
    struct HopGroup {
      BrokerId broker;
      std::uint32_t end;  // one past the group's last index in `candidates`
    };
    struct SnapScope {
      CompiledFilter compiled;
      std::vector<std::uint32_t> candidates;  // dense; ascending handle per part
      std::uint32_t local_end = 0;            // candidates[0, local_end) are local
      std::uint32_t group_begin = 0;
      std::uint32_t group_end = 0;
    };

    MatchingEngine::Snapshot engine;
    std::vector<Hop> hops;  // parallel to engine.subs
    std::unordered_map<AdvId, SnapScope> advs;
    std::vector<HopGroup> groups;  // every scope's, one range per scope
    std::uint64_t version = 0;
  };

  // Conservative disjointness for candidate sets: both filters carry an
  // equality predicate on one attribute with different keys.
  [[nodiscard]] static bool eq_disjoint(EqKeys a, EqKeys b);
  // Calls fn(scope) for every scope not eq-disjoint from `eqs`.
  template <typename Fn>
  void for_each_compatible_scope(EqKeys eqs, Fn&& fn);
  void index_scope(AdvScope& scope);
  void unindex_scope(AdvScope& scope);

  [[nodiscard]] Snapshot* build_snapshot() const;

  MatchingEngine engine_;
  std::unordered_map<SubId, Hop> hops_;
  std::unordered_map<AdvId, AdvScope> advs_;
  // Scope index: every scope with an equality predicate (attr, key), once
  // per distinct pair, and the number of scopes constraining each attribute
  // by equality. Scope pointers are stable (unordered_map nodes).
  std::unordered_map<EqKey, std::vector<AdvScope*>, CompiledFilter::EqKeyHash> scopes_by_eq_;
  std::unordered_map<InternId, std::size_t> scopes_per_attr_;
  EpochPtr<Snapshot> snap_;
  std::uint64_t next_version_ = 1;
};

}  // namespace greenps
