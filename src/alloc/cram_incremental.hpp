// Incremental CRAM under subscription churn.
//
// cram_allocate() converges from scratch: every GIF enters the poset, every
// pair is searched, every clustering is probed. IncrementalCram keeps that
// converged state alive between reconfigurations and exposes apply():
// subscription add/remove deltas are spliced through the existing poset
// (insert/remove, no DAG rebuild), clusters that lost members are shrunk in
// place (the survivors re-enter as one unit, re-OR'd from their original
// profiles), and only the dirty neighborhoods are re-searched and
// re-clustered — one sorted first-fit base, re-packed once per delta,
// serves every feasibility probe. Costs scale with the delta, not the live
// subscription population.
//
// The result is NOT guaranteed bit-identical to a from-scratch run: pairs
// whose neighborhoods the delta never touched are not re-searched, so a
// clustering opportunity the new packing would admit can go unnoticed. The
// differential oracle (croc/diff_oracle) bounds how much worse: union-rate
// objective within a configurable epsilon of the from-scratch result.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "alloc/cram.hpp"

namespace greenps {

class ProfilePoset;

namespace cram_detail {
class CramRun;
}

// Per-apply() delta accounting, also mirrored into cram.incremental.*
// metrics.
struct CramDeltaStats {
  std::size_t added_units = 0;
  std::size_t removed_requested = 0;    // SubIds in the remove batch
  std::size_t removed_found = 0;        // of those, located in a live unit
  std::size_t units_dissolved = 0;      // clusters that lost a member
  std::size_t survivors_reinserted = 0; // members carried into shrunk units
  std::size_t gifs_removed = 0;
  std::size_t blacklist_cleared = 0;    // dirty/dead pairs eligible again
  std::size_t dirty_gifs = 0;           // dirty-set size entering reconvergence
  std::size_t gif_count = 0;            // live GIFs after the delta
  // This apply() folded a from-scratch convergence into the session (drift
  // re-baselining) instead of an incremental reconvergence.
  bool rebaselined = false;
};

class IncrementalCram {
 public:
  // `units` must be singleton subscription units (one member each) —
  // clustering is CRAM's job, and dissolution needs the original unit of
  // every member, which this class records before handing them over.
  IncrementalCram(std::vector<AllocBroker> pool, std::vector<SubUnit> units,
                  PublisherTable table, const CramOptions& options = {});
  ~IncrementalCram();

  // The engine holds references into this object; pin it.
  IncrementalCram(const IncrementalCram&) = delete;
  IncrementalCram& operator=(const IncrementalCram&) = delete;

  // Run the initial from-scratch convergence (equivalent to cram_allocate
  // on the constructor arguments). Must be called once, before apply().
  CramResult initialize();

  // Apply one batch of deltas and reconverge the dirty neighborhoods.
  // `added` must be singleton subscription units; `removed` lists SubIds to
  // drop (unknown ids are counted in removed_requested but otherwise
  // ignored). The returned stats cover only this reconvergence, so
  // comparison counts line up against a from-scratch run on the same
  // post-delta population.
  CramResult apply(std::vector<SubUnit> added, const std::vector<SubId>& removed);

  // Force the next apply() to re-baseline (from-scratch convergence over
  // the live population folded into the session), regardless of
  // CramOptions::rebaseline_interval. Callers watching the differential
  // oracle use this when the union-rate gap approaches the epsilon bound.
  void request_rebaseline() { rebaseline_requested_ = true; }
  // Re-baselines performed so far, and deltas applied since the last one.
  [[nodiscard]] std::size_t rebaselines() const { return rebaselines_; }
  [[nodiscard]] std::size_t deltas_since_baseline() const { return deltas_since_baseline_; }

  [[nodiscard]] const CramDeltaStats& last_delta() const { return last_delta_; }
  [[nodiscard]] std::size_t live_subscriptions() const { return originals_.size(); }

  // The live population as original singleton units, sorted by SubId —
  // exactly what a from-scratch cram_allocate on today's subscriptions
  // would receive. The differential oracle runs on this.
  [[nodiscard]] std::vector<SubUnit> current_original_units() const;

  // The (unsorted, as-constructed) broker pool and table, for oracle runs.
  [[nodiscard]] const std::vector<AllocBroker>& pool() const { return pool_; }
  [[nodiscard]] const PublisherTable& table() const { return table_; }
  [[nodiscard]] const CramOptions& options() const { return opts_; }

  // The engine's live containment poset (for reachability differentials).
  [[nodiscard]] const ProfilePoset& poset() const;

 private:
  CramResult rebaseline(std::size_t added_units, const std::vector<SubId>& removed);

  PublisherTable table_;
  std::vector<AllocBroker> pool_;
  CramOptions opts_;
  // SubId -> the original singleton unit, for dissolving clusters that lose
  // a member: survivors re-enter the pool as these units.
  std::unordered_map<SubId, SubUnit> originals_;
  std::unique_ptr<cram_detail::CramRun> run_;
  CramDeltaStats last_delta_;
  bool initialized_ = false;
  bool rebaseline_requested_ = false;
  std::size_t rebaselines_ = 0;
  std::size_t deltas_since_baseline_ = 0;
};

}  // namespace greenps
