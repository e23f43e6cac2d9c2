// CRAM — Clustering with Resource Awareness and Minimization (Section IV-C).
//
// Repeatedly clusters the closest pair of subscription groups (by one of
// the INTERSECT/XOR/IOS/IOU closeness metrics), re-running BIN PACKING as
// the allocation test after every clustering, and returns the last
// successful allocation. Three optimizations, each individually toggleable
// for the ablation experiments:
//
//   1. GIF grouping      — units with identical bit vectors form one group
//   2. poset pruning     — pair search walks a containment poset, pruning
//                          empty-relation subtrees (impossible under XOR)
//   3. one-to-many       — an intersect pair first tries clustering each
//                          side with its covered GIFs (greedy set cover)
#pragma once

#include <cstdint>
#include <limits>

#include "alloc/allocation.hpp"
#include "alloc/gif.hpp"
#include "profile/closeness.hpp"

namespace greenps {

struct CramOptions {
  ClosenessMetric metric = ClosenessMetric::kIos;
  bool gif_grouping = true;   // optimization 1
  bool poset_pruning = true;  // optimization 2
  bool one_to_many = true;    // optimization 3
  std::size_t max_iterations = std::numeric_limits<std::size_t>::max();
  // Worker threads for the best-partner search and the speculative k-search
  // (the caller counts as one): 0 = hardware_concurrency. Results are
  // bit-identical for every thread count — the searches read a snapshot and
  // merge deterministically.
  std::size_t threads = 0;
  // Drift re-baselining for IncrementalCram sessions: after this many
  // apply() deltas, the session folds a from-scratch convergence over the
  // live population into itself, resetting accumulated clustering drift
  // (incremental reconvergence never revisits untouched neighborhoods, so
  // drift vs from-scratch grows with delta count). 0 = never rebaseline.
  std::size_t rebaseline_interval = 0;
};

struct CramStats {
  std::size_t initial_units = 0;
  std::size_t gif_count = 0;                // after grouping
  std::size_t closeness_computations = 0;
  // Decision-path allocation probes (BIN PACKING feasibility tests). Does
  // not include speculative probes, so it is identical for every thread
  // count.
  std::size_t allocation_runs = 0;
  std::size_t clusterings_applied = 0;
  std::size_t clusterings_rejected = 0;     // failed allocation test
  std::size_t one_to_many_applied = 0;
  std::size_t iterations = 0;
  std::size_t final_units = 0;              // clusters in the result
  std::size_t threads_used = 1;             // resolved pair-search thread count
  // Units walked through the allocation test, summed over base rebuilds
  // and decision-path probes; identical for every thread count.
  std::size_t probe_units_packed = 0;
  // From-scratch sorts and packs of the committed unit set: one per run()
  // and one per reconverge() after a delta. Commits splice instead.
  std::size_t base_rebuilds = 0;
  // k-search probes evaluated ahead of need on worker threads that the
  // decision path then never consumed. Excluded from every other counter;
  // the only stat that may vary with the thread count.
  std::size_t speculative_probes = 0;
  double poset_build_seconds = 0;
  double probe_seconds = 0;        // packing: rebuilds, probes (incl. speculative), splices
  double pair_search_seconds = 0;  // best-partner search (refresh_dirty)
  double total_seconds = 0;
};

// Unordered pair of GIF ids, used as the clustering-blacklist key. Ids are
// full 64-bit values and `next_id_` grows past the initial GIF count, so the
// key must keep both ids intact (a 64-bit `(a << 32) ^ b` fold silently
// discards high bits and lets distinct pairs collide).
struct GifPairKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const GifPairKey&, const GifPairKey&) = default;
};

[[nodiscard]] GifPairKey make_gif_pair_key(std::uint64_t a, std::uint64_t b);

struct GifPairKeyHash {
  [[nodiscard]] std::size_t operator()(const GifPairKey& k) const;
};

struct CramResult {
  Allocation allocation;
  CramStats stats;
};

// Normalize an options struct the way cram_allocate does before running:
// poset pruning is forced off without GIF grouping. IncrementalCram applies
// the same resolution so a delta session and a from-scratch run see
// identical knobs.
[[nodiscard]] CramOptions resolve_cram_options(const CramOptions& options);

[[nodiscard]] CramResult cram_allocate(std::vector<AllocBroker> pool,
                                       std::vector<SubUnit> units,
                                       const PublisherTable& table,
                                       const CramOptions& options = {});

}  // namespace greenps
