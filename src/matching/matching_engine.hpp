// Broker-side matching engine.
//
// Stores filters under opaque handles and, given a publication, returns the
// handles of all matching filters. The engine keeps typed per-attribute
// indexes keyed on interned ids (no string construction on the match path):
//
//   - equality: filters carrying an equality predicate are bucketed under
//     one (attribute id, value key) pair — the engine adaptively picks the
//     attribute with the highest observed selectivity;
//   - numeric intervals: range-only filters (e.g. `[volume,>,1000]`) are
//     indexed under one attribute's conservative [lo, hi] interval, sorted
//     by lower bound, so a match stabs the interval list instead of
//     brute-forcing the scan list;
//   - residual scan list: only filters with neither an equality nor a
//     numeric range predicate (pure string operators, negation, presence).
//
// Every probed candidate is confirmed with a full Filter::matches, so the
// indexes only need to be conservative (never miss a possible match).
//
// Concurrency model: the engine is a single-writer structure — insert and
// remove belong to the owning thread, and it has no match path of its own.
// build_snapshot() produces an immutable Snapshot (dense candidate arrays in
// the indexes' probe order) that the routing table publishes behind an
// epoch handle; matching reads only snapshots, never mutable engine state.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "language/interner.hpp"
#include "language/publication.hpp"
#include "language/subscription.hpp"
#include "matching/compiled_filter.hpp"

namespace greenps {

// Caller-owned scratch for the allocation-free match path. Each matching
// thread (simulation shard, test thread) owns one and reuses it across
// calls; nothing in the engine or routing table retains state between
// matches, which is what makes the const read path genuinely data-race
// free.
struct MatchScratch {
  std::vector<std::uint32_t> dense;  // snapshot candidate indices
};

class MatchingEngine {
 public:
  using Handle = std::uint64_t;

  // Insert a filter; `handle` must be unique among live entries.
  void insert(Handle handle, const Filter& filter) { (void)insert(handle, CompiledFilter(filter)); }
  // Insert an already compiled filter and return the stored copy (valid
  // until the handle is removed). The entry shares the record, so one
  // compiled subscription can back the engines of many brokers.
  const CompiledFilter& insert(Handle handle, CompiledFilter filter);
  // Remove a previously inserted filter. Unknown handles are ignored.
  void remove(Handle handle);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Filter* find(Handle handle) const;
  // Pre-resolved form of a live filter. The pointer stays valid until the
  // handle is removed (entries live in node-based storage).
  [[nodiscard]] const CompiledFilter* compiled(Handle handle) const;

  // Visit every live (handle, compiled filter) pair.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [h, e] : entries_) fn(h, e.compiled);
  }

  // Immutable, self-contained copy of the typed indexes with candidates as
  // dense indices into `subs` (ascending handle order). Matching a snapshot
  // touches only the snapshot itself plus thread_local counters, so any
  // number of threads can match one concurrently. Candidates are probed in
  // the indexes' insertion order, so walk counts depend only on the table.
  struct Snapshot {
    struct Sub {
      Handle handle;
      CompiledFilter filter;
    };
    struct Interval {
      double lo;  // conservative, inclusive bounds
      double hi;
      std::uint32_t sub;
    };
    struct AttrIdx {
      std::unordered_map<ValueKey, std::vector<std::uint32_t>, ValueKeyHash> eq;
      std::vector<Interval> intervals;  // sorted by (lo, hi, handle)
    };

    std::vector<Sub> subs;  // ascending handle
    std::unordered_map<InternId, AttrIdx> attr_indexes;
    std::vector<std::uint32_t> scan_list;

    // Dense index of a live handle (binary search over `subs`).
    [[nodiscard]] std::uint32_t dense_index(Handle handle) const;

    // Appends the dense indices of all matching subs to `out` (not
    // cleared).
    void match_into(const Publication& pub, std::vector<std::uint32_t>& out) const;
  };

  [[nodiscard]] Snapshot build_snapshot() const;

  // Number of candidate filters evaluated (Filter::matches calls) by the
  // calling thread. Test/bench hook for the index-pruning invariant,
  // mirroring SubscriptionProfile::pairwise_walks(). In sharded runs each
  // worker thread accrues its own walks; the simulator harvests them per
  // worker slot so totals stay invariant.
  [[nodiscard]] static std::size_t match_walks();
  static void reset_match_walks();
  // Credit `n` candidate evaluations done outside the engine (the routing
  // table's advertisement-scoped fast path) to the same counter.
  static void add_match_walks(std::size_t n);

  // Test hook: disable the typed indexes process-wide and brute-force every
  // live filter instead. The match *set* is identical either way; the
  // determinism and differential tests assert exactly that. The flag is
  // atomic (safe to read from matching threads); flip it only while no
  // match is in flight or the walk-count accounting of concurrent matches
  // becomes unpredictable.
  static void set_index_enabled(bool enabled);
  [[nodiscard]] static bool index_enabled();

 private:
  enum class Slot : std::uint8_t { kScan, kEq, kInterval };

  struct Entry {
    CompiledFilter compiled;  // shared record; compiled.source() is the filter
    Slot slot = Slot::kScan;
    InternId index_attr = kNoIntern;
    ValueKey eq_key;  // valid when slot == kEq
  };

  struct Interval {
    double lo;  // conservative, inclusive bounds
    double hi;
    Handle handle;

    friend bool operator<(const Interval& a, const Interval& b) {
      return a.lo != b.lo ? a.lo < b.lo : (a.hi != b.hi ? a.hi < b.hi : a.handle < b.handle);
    }
  };

  struct AttrIndex {
    std::unordered_map<ValueKey, std::vector<Handle>, ValueKeyHash> eq;
    std::vector<Interval> intervals;  // sorted
  };

  // Selectivity heuristic: prefer bucketing under the equality attribute
  // with the most distinct values observed so far.
  [[nodiscard]] const CompiledFilter::EqKey* pick_eq_predicate(const CompiledFilter& f) const;

  std::unordered_map<Handle, Entry> entries_;
  std::unordered_map<InternId, AttrIndex> attr_indexes_;
  // Filters without any equality or numeric range predicate; always probed.
  std::vector<Handle> scan_list_;
};

}  // namespace greenps
