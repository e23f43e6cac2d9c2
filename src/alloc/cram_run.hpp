// Internal engine behind cram_allocate() and IncrementalCram.
//
// CramRun holds the full mutable state of one CRAM optimization — GIF pool,
// containment poset, clustering blacklist, best-partner cache and the
// overlay packer — and exposes two drivers:
//
//   run()                      the one-shot convergence cram_allocate() uses
//   apply_delta()/reconverge() the subscription-churn delta path: splice
//                              added units in through the poset, dissolve
//                              units that lost members, and re-cluster only
//                              the dirty neighborhoods from the converged
//                              state (IncrementalCram wraps this).
//
// Not part of the public allocator API: include alloc/cram.hpp (one-shot)
// or alloc/cram_incremental.hpp (delta path) instead.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alloc/bin_packing.hpp"
#include "alloc/cram.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poset/poset.hpp"

namespace greenps::cram_detail {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Left-fold cache for the k-search merged units: upto(m) is `seed`
// clustered, left to right, with arr[0..m). Each prefix is computed once by
// extending the longest cached shorter prefix, so the association order —
// and therefore every float in the merged unit — exactly matches the plain
// sequential fold the search used to recompute per midpoint. Map storage
// keeps references stable while parallel probes read already-computed
// prefixes; extension itself must stay on the calling thread.
class PrefixFold {
 public:
  PrefixFold(SubUnit seed, const SubUnit* arr, const PublisherTable& table)
      : arr_(arr), table_(table) {
    memo_.emplace(0, std::move(seed));
  }

  const SubUnit& upto(std::size_t m) {
    auto it = memo_.lower_bound(m);
    if (it != memo_.end() && it->first == m) return it->second;
    --it;  // memo_ always holds key 0
    std::size_t k = it->first;
    const SubUnit* cur = &it->second;
    while (k < m) {
      SubUnit next = cluster_units(*cur, arr_[k], table_);
      ++k;
      cur = &memo_.emplace(k, std::move(next)).first->second;
    }
    return *cur;
  }

 private:
  const SubUnit* arr_;
  const PublisherTable& table_;
  std::map<std::size_t, SubUnit> memo_;
};

class CramRun {
 public:
  CramRun(std::vector<AllocBroker> pool, std::vector<SubUnit> units,
          const PublisherTable& table, const CramOptions& opts)
      : pool_(std::move(pool)), table_(table), opts_(opts),
        packer_(pool_),
        threads_(ThreadPool::resolve(opts.threads)) {
    sort_by_capacity_desc(pool_);
    stats_.initial_units = units.size();
    stats_.threads_used = threads_;
    // Speculation depth for the parallel k-search: the deepest level count
    // whose frontier (2^L − 1 midpoints) still resolves more decision
    // levels per parallel round than a sequential probe would — with few
    // threads the speculative waste outweighs the depth and L stays 0.
    if (threads_ > 1) {
      double best_rate = 1.0;  // sequential: one level per probe round
      for (std::size_t l = 2; l <= 4; ++l) {
        const std::size_t probes = (std::size_t{1} << l) - 1;
        const auto rounds = static_cast<double>((probes + threads_ - 1) / threads_);
        const double rate = static_cast<double>(l) / rounds;
        if (rate > best_rate) {
          best_rate = rate;
          spec_levels_ = l;
        }
      }
    }
    std::vector<Gif> grouped = opts_.gif_grouping ? group_identical_filters(std::move(units))
                                                  : singleton_gifs(std::move(units));
    stats_.gif_count = grouped.size();
    next_id_ = grouped.size();
    for (auto& g : grouped) {
      const std::uint64_t id = g.id;
      // Warm the cardinality cache now: the parallel pair search reads gif
      // profiles concurrently and pairwise_counts consults the cache, so it
      // must be filled before the profile is ever shared across threads.
      (void)g.profile.cardinality();
      gifs_.emplace(id, std::move(g));
    }
  }

  CramResult run() {
    GREENPS_SPAN("cram.run");
    const auto t0 = Clock::now();
    // Initialization: allocate without clustering; abort if impossible.
    const PackProbe init = probe_allocation();
    if (!init.success) {
      CramResult r;
      r.stats = stats_;
      r.stats.total_seconds = seconds_since(t0);
      publish_stats(r.stats);
      return r;
    }
    best_brokers_ = init.brokers_used;

    // Build the poset over GIFs (optimization 2).
    const auto tp = Clock::now();
    if (opts_.poset_pruning) {
      GREENPS_SPAN_TAGGED("cram.poset_build", gifs_.size());
      for (const auto& [id, g] : gifs_) {
        const auto ins = poset_.insert(g.profile, id);
        assert(ins.inserted || !opts_.gif_grouping);
        node_of_[id] = ins.node;
      }
    }
    stats_.poset_build_seconds = seconds_since(tp);

    // Prime the best-partner cache.
    for (const auto& [id, g] : gifs_) {
      (void)g;
      dirty_.insert(id);
    }

    converge();

    CramResult r;
    // The pool state always matches the last successful allocation (failed
    // clusterings are never committed), so one final packing materializes it.
    r.allocation = bin_packing_allocate(pool_, flatten(), table_);
    assert(r.allocation.success);
    r.stats = stats_;
    r.stats.final_units = r.allocation.unit_count();
    r.stats.total_seconds = seconds_since(t0);
    publish_stats(r.stats);
    return r;
  }

  // --- incremental delta path (IncrementalCram) -----------------------
  //
  // apply_delta() mutates the converged state (poset insert/remove, GIF
  // dissolution) and marks the touched neighborhoods dirty; reconverge()
  // then re-runs the clustering loop, which re-searches only the dirty
  // GIFs. Costs scale with the delta, not the subscription population.

  struct DeltaOutcome {
    std::size_t added_units = 0;
    std::size_t removed_found = 0;        // delta members actually located
    std::size_t units_dissolved = 0;      // clusters that lost a member
    std::size_t survivors_reinserted = 0; // members carried into shrunk units
    std::size_t gifs_removed = 0;
    std::size_t blacklist_cleared = 0;    // dirty/dead pairs eligible again
  };

  // Apply one batch of unit-level deltas. `added` must be singleton
  // subscription units. Each removed SubId is located in its (possibly
  // clustered) unit; a cluster that loses members is shrunk IN PLACE — the
  // survivors re-enter as one rebuilt unit (profile re-OR'd from their
  // `originals`), not as singletons, so a removal dirties one neighborhood
  // instead of re-clustering every surviving member from scratch.
  // Re-clustering is NOT performed here — call reconverge().
  DeltaOutcome apply_delta(std::vector<SubUnit> added, const std::vector<SubId>& removed,
                           const std::unordered_map<SubId, SubUnit>& originals) {
    DeltaOutcome out;
    // The delta mutates units outside the commit discipline: re-sort and
    // re-pack the base from scratch at the next ensure_base().
    invalidate_base();

    if (!removed.empty()) {
      const std::unordered_set<SubId> rm(removed.begin(), removed.end());
      // Locate every unit holding a removed member: one scan of all units.
      std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> hits;
      for (const auto& [id, g] : gifs_) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < g.units.size(); ++i) {
          for (const SubId m : g.units[i].members) {
            if (rm.contains(m)) {
              idx.push_back(i);
              break;
            }
          }
        }
        if (!idx.empty()) hits.emplace_back(id, std::move(idx));
      }
      std::vector<SubUnit> shrunk;
      for (auto& [id, idxs] : hits) {
        Gif& g = gif(id);
        // Erase hit units back to front so earlier indexes stay valid.
        for (auto it = idxs.rbegin(); it != idxs.rend(); ++it) {
          SubUnit u = std::move(g.units[*it]);
          g.units.erase(g.units.begin() + static_cast<std::ptrdiff_t>(*it));
          if (u.members.size() > 1) ++out.units_dissolved;
          // Rebuild the unit from its surviving members' original
          // profiles (a union cannot be subtracted from, so re-OR).
          SubUnit rebuilt;
          bool have = false;
          for (const SubId m : u.members) {
            if (rm.contains(m)) {
              ++out.removed_found;
              continue;
            }
            const auto oit = originals.find(m);
            assert(oit != originals.end());
            if (oit == originals.end()) continue;
            ++out.survivors_reinserted;
            rebuilt = have ? cluster_units(rebuilt, oit->second, table_) : oit->second;
            have = true;
          }
          if (have) shrunk.push_back(std::move(rebuilt));
        }
        if (g.units.empty()) {
          remove_gif(id);
          ++out.gifs_removed;
        } else {
          dirty_.insert(id);
        }
      }
      for (SubUnit& s : shrunk) commit_new_unit(std::move(s));
    }

    out.added_units = added.size();
    for (SubUnit& u : added) {
      assert(u.members.size() == 1 && "delta additions must be singleton units");
      commit_new_unit(std::move(u));
    }

    // The packing changed under every dirty neighborhood, so clusterings it
    // previously rejected for capacity may now fit — a from-scratch run
    // carries no blacklist at all. Also purge pairs naming dead GIF ids so
    // the blacklist cannot grow without bound under churn.
    for (auto it = blacklist_.begin(); it != blacklist_.end();) {
      const bool dead = !gifs_.contains(it->lo) || !gifs_.contains(it->hi);
      if (dead || dirty_.contains(it->lo) || dirty_.contains(it->hi)) {
        it = blacklist_.erase(it);
        ++out.blacklist_cleared;
      } else {
        ++it;
      }
    }
    return out;
  }

  // Re-run the clustering loop from the current (dirtied) state. Stats are
  // per-call: closeness_computations / allocation_runs / seconds cover only
  // this reconvergence, so callers can compare against a from-scratch run.
  CramResult reconverge() {
    GREENPS_SPAN("cram.reconverge");
    const auto t0 = Clock::now();
    stats_ = CramStats{};
    stats_.threads_used = threads_;
    stats_.gif_count = gifs_.size();
    for (const auto& [id, g] : gifs_) {
      (void)id;
      stats_.initial_units += g.units.size();
    }
    // Same discipline as run()'s initialization: the reference broker count
    // for the minimization gate is the current base packing (removals may
    // have freed brokers, additions may legitimately need more).
    best_brokers_ = 0;
    const PackProbe init = probe_allocation();
    if (!init.success) {
      CramResult r;
      r.stats = stats_;
      r.stats.total_seconds = seconds_since(t0);
      publish_stats(r.stats);
      return r;
    }
    best_brokers_ = init.brokers_used;

    converge();

    CramResult r;
    r.allocation = bin_packing_allocate(pool_, flatten(), table_);
    assert(r.allocation.success);
    r.stats = stats_;
    r.stats.final_units = r.allocation.unit_count();
    r.stats.total_seconds = seconds_since(t0);
    publish_stats(r.stats);
    return r;
  }

  [[nodiscard]] std::size_t gif_count() const { return gifs_.size(); }
  [[nodiscard]] std::size_t dirty_count() const { return dirty_.size(); }
  [[nodiscard]] const ProfilePoset& poset() const { return poset_; }

 private:
  struct Candidate {
    std::uint64_t partner = 0;
    double closeness = 0;
  };

  // The greedy clustering loop shared by run() and reconverge(): refresh
  // the dirty best-partner caches, pick the global best, try it, repeat
  // until no candidate survives.
  void converge() {
    while (stats_.iterations < opts_.max_iterations) {
      const auto ts = Clock::now();
      {
        // Tagged with the round's dirty-set size: the trace shows how the
        // re-search load shrinks as the candidate cache warms up.
        GREENPS_SPAN_TAGGED("cram.pair_search", dirty_.size());
        refresh_dirty();
      }
      stats_.pair_search_seconds += seconds_since(ts);
      const auto pick = pick_global_best();
      if (!pick) break;
      ++stats_.iterations;
      const auto [gid, cand] = *pick;
      if (gid == cand.partner) {
        try_self_cluster(gid);
      } else {
        try_pair(gid, cand.partner, cand.closeness);
      }
    }
  }

  // Mirror the run's stats into the global metrics registry (counters
  // accumulate across runs; seconds are per-run gauges).
  static void publish_stats(const CramStats& s) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("cram.iterations").add(s.iterations);
    reg.counter("cram.allocation_runs").add(s.allocation_runs);
    reg.counter("cram.closeness_computations").add(s.closeness_computations);
    reg.counter("cram.clusterings_applied").add(s.clusterings_applied);
    reg.counter("cram.clusterings_rejected").add(s.clusterings_rejected);
    reg.counter("cram.one_to_many_applied").add(s.one_to_many_applied);
    reg.counter("cram.speculative_probes").add(s.speculative_probes);
    reg.counter("cram.probe_units_packed").add(s.probe_units_packed);
    reg.counter("cram.base_rebuilds").add(s.base_rebuilds);
    reg.gauge("cram.final_units").set(static_cast<double>(s.final_units));
    reg.gauge("cram.total_seconds").set(s.total_seconds);
    reg.gauge("cram.pair_search_seconds").set(s.pair_search_seconds);
    reg.gauge("cram.probe_seconds").set(s.probe_seconds);
    GREENPS_COUNTER("cram.final_units", s.final_units);
  }

  // Everything one best-partner search produces. Searches are pure reads of
  // the run state, so the dirty set can be refreshed in parallel; outcomes
  // are merged after the join in ascending-id order, which makes the result
  // bit-identical for every thread count.
  struct SearchOutcome {
    std::optional<Candidate> best;
    // (other, closeness) pairs that beat `other`'s cached candidate at
    // search time — the symmetric-improvement propagation, deferred.
    std::vector<std::pair<std::uint64_t, double>> improvements;
    std::size_t closeness_computations = 0;
  };

  // ---- bookkeeping ----

  Gif& gif(std::uint64_t id) {
    const auto it = gifs_.find(id);
    assert(it != gifs_.end());
    return it->second;
  }

  [[nodiscard]] bool blacklisted(std::uint64_t a, std::uint64_t b) const {
    return blacklist_.contains(make_gif_pair_key(a, b));
  }
  void add_blacklist(std::uint64_t a, std::uint64_t b) {
    blacklist_.insert(make_gif_pair_key(a, b));
    dirty_.insert(a);
    dirty_.insert(b);
  }

  std::vector<SubUnit> flatten() const {
    std::vector<SubUnit> all;
    for (const auto& [id, g] : gifs_) {
      (void)id;
      all.insert(all.end(), g.units.begin(), g.units.end());
    }
    return all;
  }

  // ---- allocation probes ----
  //
  // CRAM's allocation test is a BIN PACKING feasibility probe served by an
  // overlay packer (OverlayFirstFit): the committed unit set is kept sorted
  // in first-fit order, and every tentative clustering is probed as an
  // overlay (base minus the units being merged, plus the merged unit
  // spliced in at its sort position) packed into dry-run loads. No GIF is
  // mutated by a probe, so rejected clusterings have nothing to restore. A
  // commit's winning probe already packed exactly the next base, so it is
  // adopted outright, and the base order is spliced rather than re-sorted:
  // commits re-pack nothing and sort nothing.

  // The unit set changed outside a commit (a delta): the next ensure_base()
  // re-sorts and re-packs from scratch.
  void invalidate_base() { base_valid_ = false; }

  // A committed overlay: splice the base into the committed unit order and
  // adopt the winning probe as its result. Must run before the commit
  // erases anything (`removed` must still point into live GIF units); the
  // commit then repoints every GIF it mutated (repoint_base), which also
  // moves the merged unit's slot from `added` to its home in a GIF.
  void commit_base(const std::vector<UnitRange>& removed, const SubUnit& added,
                   const PackProbe& winning) {
    assert(base_valid_);
    const auto t0 = Clock::now();
    packer_.splice(removed, added, winning);
    stats_.probe_seconds += seconds_since(t0);
  }

  // Erase, push_back and sort_units move a GIF's units in memory: point
  // their base slots at the new addresses. No-op for a removed GIF.
  void repoint_base(std::uint64_t id) {
    const auto it = gifs_.find(id);
    if (it == gifs_.end()) return;
    const auto t0 = Clock::now();
    packer_.repoint(it->second.units);
    stats_.probe_seconds += seconds_since(t0);
  }

  void ensure_base() {
    if (base_valid_) {
      assert(base_matches_gifs());
      return;
    }
    const auto t0 = Clock::now();
    std::size_t total = 0;
    for (const auto& [id, g] : gifs_) {
      (void)id;
      total += g.units.size();
    }
    std::vector<const SubUnit*> units;
    units.reserve(total);
    for (const auto& [id, g] : gifs_) {
      (void)id;
      for (const SubUnit& u : g.units) units.push_back(&u);
    }
    const PackProbe& base = packer_.rebuild(std::move(units), table_);
    ++stats_.base_rebuilds;
    count_probe_work(base);
    base_valid_ = true;
    stats_.probe_seconds += seconds_since(t0);
  }

  void count_probe_work(const PackProbe& p) { stats_.probe_units_packed += p.units_packed; }

  // The commit discipline's invariant (checked in debug builds): the spliced
  // and repointed base is exactly a from-scratch sort of the live units.
  [[nodiscard]] bool base_matches_gifs() const {
    std::vector<const SubUnit*> live;
    for (const auto& [id, g] : gifs_) {
      (void)id;
      for (const SubUnit& u : g.units) live.push_back(&u);
    }
    sort_units_by_bandwidth_desc(live);
    const auto& slots = packer_.slots();
    if (slots.size() != live.size()) return false;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (slots[i].unit != live[i]) return false;
    }
    return true;
  }

  // Broker minimization is CRAM's primary objective, so a clustering whose
  // re-packed allocation needs MORE brokers than the last recorded scheme
  // also fails (clusters are indivisible and can fragment FFD packing).
  PackProbe gate(PackProbe probe) const {
    if (probe.success && best_brokers_ > 0 && probe.brokers_used > best_brokers_) {
      probe.success = false;
    }
    return probe;
  }

  PackProbe probe_allocation() {
    ensure_base();
    ++stats_.allocation_runs;
    return gate(packer_.base());
  }

  PackProbe probe_replacement(const std::vector<UnitRange>& removed, const SubUnit& added) {
    ensure_base();
    const auto t0 = Clock::now();
    const PackProbe raw = packer_.probe_replacement(removed, &added, table_, probe_scratch_);
    stats_.probe_seconds += seconds_since(t0);
    ++stats_.allocation_runs;
    count_probe_work(raw);
    return gate(raw);
  }

  // One accounted decision-path probe of `probe_at` (see search_max).
  template <typename ProbeAt>
  PackProbe decision_probe(std::size_t k, const ProbeAt& probe_at) {
    const auto t0 = Clock::now();
    const PackProbe raw = probe_at(k, probe_scratch_);
    stats_.probe_seconds += seconds_since(t0);
    ++stats_.allocation_runs;
    count_probe_work(raw);
    return gate(raw);
  }

  // Binary search for the largest value in [lo, hi] whose overlay still
  // allocates, given that `lo` already passed with `winning`.
  //
  // probe_at(k, scratch) must be a pure raw (ungated) overlay probe and
  // materialize(k) must prepare its merged unit; with enough threads, the
  // midpoints of the next spec_levels_ decision levels are evaluated
  // speculatively in parallel (probes only read the base packing and
  // per-worker scratch), and the decision path is then replayed out of the
  // batch — so the result, the gate decisions and all decision-path
  // accounting are exactly the sequential ones for every thread count.
  template <typename Materialize, typename ProbeAt>
  std::size_t search_max(std::size_t lo, std::size_t hi, PackProbe& winning,
                         const Materialize& materialize, const ProbeAt& probe_at) {
    auto consume = [&](const PackProbe& raw, std::size_t mid) {
      ++stats_.allocation_runs;
      count_probe_work(raw);
      const PackProbe gated = gate(raw);
      if (gated.success) {
        lo = mid;
        winning = gated;
      } else {
        hi = mid - 1;
      }
    };
    while (lo < hi) {
      if (spec_levels_ < 2 || hi - lo < 2) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        materialize(mid);
        const auto t0 = Clock::now();
        const PackProbe raw = probe_at(mid, probe_scratch_);
        stats_.probe_seconds += seconds_since(t0);
        consume(raw, mid);
        continue;
      }
      // Frontier of every state reachable within spec_levels_ decisions.
      std::vector<std::size_t> mids;
      std::vector<std::pair<std::size_t, std::size_t>> frontier{{lo, hi}};
      for (std::size_t level = 0; level < spec_levels_ && !frontier.empty(); ++level) {
        std::vector<std::pair<std::size_t, std::size_t>> next;
        for (const auto& [a, b] : frontier) {
          if (a >= b) continue;
          const std::size_t mid = a + (b - a + 1) / 2;
          mids.push_back(mid);
          next.emplace_back(mid, b);      // if the probe at mid succeeds
          next.emplace_back(a, mid - 1);  // if it fails
        }
        frontier = std::move(next);
      }
      std::sort(mids.begin(), mids.end());
      mids.erase(std::unique(mids.begin(), mids.end()), mids.end());
      // Merged units are fold extensions — serialize them before the batch
      // so the parallel probes perform read-only lookups.
      for (const std::size_t mid : mids) materialize(mid);
      if (!workers_) workers_ = std::make_unique<ThreadPool>(threads_);
      if (spec_scratch_.size() < workers_->size()) spec_scratch_.resize(workers_->size());
      std::vector<PackProbe> raw(mids.size());
      const auto t0 = Clock::now();
      {
        GREENPS_SPAN_TAGGED("cram.spec_batch", mids.size());
        workers_->parallel_for_indexed(mids.size(), [&](std::size_t i, std::size_t slot) {
          raw[i] = probe_at(mids[i], spec_scratch_[slot]);
        });
      }
      stats_.probe_seconds += seconds_since(t0);
      // Replay the decision path out of the batch.
      std::size_t used = 0;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        const auto it = std::lower_bound(mids.begin(), mids.end(), mid);
        if (it == mids.end() || *it != mid) break;  // beyond the batched levels
        ++used;
        consume(raw[static_cast<std::size_t>(it - mids.begin())], mid);
      }
      stats_.speculative_probes += mids.size() - used;
    }
    return lo;
  }

  // Register a brand-new gif holding `unit` (profile may equal an existing
  // gif's, in which case the unit joins that gif). Returns the gif id the
  // unit ended up in.
  std::uint64_t commit_new_unit(SubUnit unit) {
    if (opts_.poset_pruning) {
      const std::uint64_t id = next_id_++;
      const auto ins = poset_.insert(unit.profile, id);
      if (!ins.inserted) {
        const std::uint64_t existing = poset_.payload(ins.node);
        Gif& g = gif(existing);
        g.units.push_back(std::move(unit));
        g.sort_units();
        dirty_.insert(existing);
        return existing;
      }
      Gif g;
      g.id = id;
      g.profile = unit.profile;
      (void)g.profile.cardinality();  // warm before sharing across threads
      g.units.push_back(std::move(unit));
      gifs_.emplace(id, std::move(g));
      node_of_[id] = ins.node;
      dirty_.insert(id);
      return id;
    }
    // No poset: look for an equal gif by scan (grouping may be off too, in
    // which case every unit is its own gif and we still merge equal bits to
    // keep the pool small).
    for (auto& [id, g] : gifs_) {
      if (opts_.gif_grouping && SubscriptionProfile::same_bits(g.profile, unit.profile)) {
        g.units.push_back(std::move(unit));
        g.sort_units();
        dirty_.insert(id);
        return id;
      }
    }
    const std::uint64_t id = next_id_++;
    Gif g;
    g.id = id;
    g.profile = unit.profile;
    (void)g.profile.cardinality();  // warm before sharing across threads
    g.units.push_back(std::move(unit));
    gifs_.emplace(id, std::move(g));
    dirty_.insert(id);
    return id;
  }

  void remove_gif(std::uint64_t id) {
    if (opts_.poset_pruning) {
      const auto it = node_of_.find(id);
      if (it != node_of_.end()) {
        poset_.remove(it->second);
        node_of_.erase(it);
      }
    }
    gifs_.erase(id);
    best_.erase(id);
    dirty_.erase(id);
    // Anyone whose cached partner was this gif must re-search.
    for (const auto& [other, cand] : best_) {
      if (cand.partner == id) dirty_.insert(other);
    }
  }

  // ---- candidate search ----

  void refresh_dirty() {
    if (dirty_.empty()) return;
    std::vector<std::uint64_t> ids;
    ids.reserve(dirty_.size());
    for (const std::uint64_t id : dirty_) {
      if (gifs_.contains(id)) ids.push_back(id);
    }
    dirty_.clear();
    std::sort(ids.begin(), ids.end());

    std::vector<SearchOutcome> outcomes(ids.size());
    if (threads_ > 1 && ids.size() > 1) {
      if (!workers_) workers_ = std::make_unique<ThreadPool>(threads_);
      workers_->parallel_for(ids.size(),
                             [&](std::size_t i) { outcomes[i] = find_best_partner(ids[i]); });
    } else {
      for (std::size_t i = 0; i < ids.size(); ++i) outcomes[i] = find_best_partner(ids[i]);
    }

    // Post-join merge in ascending-id order: first every search's own
    // result, then the symmetric improvements (which only ever raise a
    // cached closeness). Deterministic for any thread count.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      stats_.closeness_computations += outcomes[i].closeness_computations;
      if (outcomes[i].best) {
        best_[ids[i]] = *outcomes[i].best;
      } else {
        best_.erase(ids[i]);
      }
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (const auto& [other, c] : outcomes[i].improvements) {
        const auto it = best_.find(other);
        if (it != best_.end() && c > it->second.closeness) {
          it->second = Candidate{ids[i], c};
        }
      }
    }
  }

  std::optional<std::pair<std::uint64_t, Candidate>> pick_global_best() const {
    std::optional<std::pair<std::uint64_t, Candidate>> best;
    for (const auto& [id, cand] : best_) {
      if (!best || cand.closeness > best->second.closeness ||
          (cand.closeness == best->second.closeness && id < best->first)) {
        best = {id, cand};
      }
    }
    return best;
  }

  // Pure read of the run state (gifs_, poset_, blacklist_, best_ are all
  // snapshots during a refresh) — runs concurrently across dirty GIFs.
  SearchOutcome find_best_partner(std::uint64_t id) const {
    const auto git = gifs_.find(id);
    assert(git != gifs_.end());
    const Gif& g = git->second;
    SearchOutcome out;
    auto close = [&](const SubscriptionProfile& a, const SubscriptionProfile& b) {
      ++out.closeness_computations;
      return closeness(opts_.metric, a, b);
    };
    auto consider = [&](std::uint64_t other, double c) {
      if (c <= 0) return;
      if (blacklisted(id, other)) return;
      if (!out.best || c > out.best->closeness ||
          (c == out.best->closeness && other < out.best->partner)) {
        out.best = Candidate{other, c};
      }
      // Symmetric improvement propagation: a freshly computed closeness may
      // beat `other`'s cached candidate. Recorded here, applied post-join.
      if (other != id) {
        const auto it = best_.find(other);
        if (it != best_.end() && c > it->second.closeness) {
          out.improvements.emplace_back(other, c);
        }
      }
    };

    // Self pair: a GIF with two or more units can cluster with itself.
    if (g.units.size() >= 2) consider(id, close(g.profile, g.profile));

    if (!opts_.poset_pruning) {
      for (const auto& [other, og] : gifs_) {
        if (other == id) continue;
        consider(other, close(g.profile, og.profile));
      }
      return out;
    }

    // Poset-guided breadth-first search (optimization 2): prune subtrees
    // with empty relation (closeness 0 under INTERSECT/IOS/IOU) and stop
    // descending once the closeness value starts to decrease. XOR admits
    // neither prune, so it degenerates to a full walk.
    const bool prunes = metric_prunes_empty(opts_.metric);
    struct Item {
      ProfilePoset::NodeId node;
      double parent_c;
    };
    std::vector<Item> queue;
    std::unordered_set<ProfilePoset::NodeId> seen;
    for (const auto c : poset_.children(ProfilePoset::kRoot)) {
      queue.push_back({c, -1.0});
      seen.insert(c);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Item item = queue[head];
      const std::uint64_t other = poset_.payload(item.node);
      const auto oit = gifs_.find(other);
      if (oit == gifs_.end()) continue;
      const double c = close(g.profile, oit->second.profile);
      if (other != id) consider(other, c);
      bool descend = true;
      if (prunes) {
        if (c == 0.0 && other != id) descend = false;          // empty relation
        if (descend && c < item.parent_c) descend = false;     // started decreasing
      }
      if (descend) {
        for (const auto ch : poset_.children(item.node)) {
          if (seen.insert(ch).second) queue.push_back({ch, c});
        }
      }
    }
    return out;
  }

  // ---- clustering actions ----

  // Try clustering within one GIF (equal relation, Section IV-C.1): find by
  // binary search the largest k such that merging the k lightest units
  // still allocates. Feasibility is probed through overlays; the GIF is
  // mutated only once, on commit.
  void try_self_cluster(std::uint64_t gid) {
    Gif& g = gif(gid);
    const std::size_t n = g.units.size();
    assert(n >= 2);
    ensure_base();
    // merged(k) = the k lightest units folded left to right — cached as
    // fold prefixes: upto(k − 1) is units[0] clustered with units[1..k).
    PrefixFold fold(g.units[0], g.units.data() + 1, table_);
    auto materialize = [&](std::size_t k) { (void)fold.upto(k - 1); };
    auto probe_at = [&](std::size_t k, OverlayFirstFit::Scratch& scratch) {
      return packer_.probe_replacement({{g.units.data(), g.units.data() + k}},
                                       &fold.upto(k - 1), table_, scratch);
    };
    materialize(2);
    PackProbe winning = decision_probe(2, probe_at);  // doubles as the feasibility gate
    if (!winning.success) {
      ++stats_.clusterings_rejected;
      add_blacklist(gid, gid);
      return;
    }
    const std::size_t lo = search_max(2, n, winning, materialize, probe_at);
    // Commit k = lo.
    SubUnit merged = fold.upto(lo - 1);
    commit_base({{g.units.data(), g.units.data() + lo}}, merged, winning);
    g.units.erase(g.units.begin(), g.units.begin() + static_cast<std::ptrdiff_t>(lo));
    g.units.push_back(std::move(merged));
    g.sort_units();
    repoint_base(gid);
    best_brokers_ = winning.brokers_used;
    ++stats_.clusterings_applied;
    dirty_.insert(gid);
    if (g.units.size() < 2) add_blacklist(gid, gid);
  }

  // Dispatch a cross-GIF pair by its bit-vector relation.
  void try_pair(std::uint64_t a, std::uint64_t b, double pair_closeness) {
    const Relation rel = SubscriptionProfile::relation(gif(a).profile, gif(b).profile);
    switch (rel) {
      case Relation::kEmpty:
        // Only reachable under XOR (which clusters disjoint GIFs, the
        // pathology Section IV-C.2 describes) — treat as a plain pairwise
        // merge.
      case Relation::kEqual:
      case Relation::kIntersect: {
        if (opts_.one_to_many && rel == Relation::kIntersect) {
          if (try_one_to_many(a, b, pair_closeness) ||
              try_one_to_many(b, a, pair_closeness)) {
            return;
          }
        }
        try_pairwise_merge(a, b);
        return;
      }
      case Relation::kSuperset:
        try_cover_cluster(a, b);
        return;
      case Relation::kSubset:
        try_cover_cluster(b, a);
        return;
    }
  }

  // Merge the lightest unit of each GIF into a new cluster unit.
  void try_pairwise_merge(std::uint64_t a, std::uint64_t b) {
    Gif& ga = gif(a);
    Gif& gb = gif(b);
    SubUnit merged = cluster_units(ga.units.front(), gb.units.front(), table_);
    const std::vector<UnitRange> removed{
        {ga.units.data(), ga.units.data() + 1}, {gb.units.data(), gb.units.data() + 1}};
    const PackProbe probe = probe_replacement(removed, merged);
    if (!probe.success) {
      ++stats_.clusterings_rejected;
      add_blacklist(a, b);
      return;
    }
    commit_base(removed, merged, probe);
    ga.units.erase(ga.units.begin());
    gb.units.erase(gb.units.begin());
    best_brokers_ = probe.brokers_used;
    ++stats_.clusterings_applied;
    if (ga.units.empty()) {
      remove_gif(a);
    } else {
      dirty_.insert(a);
    }
    if (gb.units.empty()) {
      remove_gif(b);
    } else {
      dirty_.insert(b);
    }
    const std::uint64_t home = commit_new_unit(std::move(merged));
    repoint_base(a);
    repoint_base(b);
    repoint_base(home);
  }

  // Covering relation: cluster the lightest unit of the covering GIF with
  // as many (binary search) lightest units of the covered GIF as possible.
  void try_cover_cluster(std::uint64_t cover_id, std::uint64_t covered_id) {
    Gif& cover = gif(cover_id);
    Gif& covered = gif(covered_id);
    const std::size_t n = covered.units.size();
    ensure_base();
    // merged(m) = cover's lightest folded with covered's m lightest; the
    // profile never changes (covered ⊆ cover), only the unit load does.
    PrefixFold fold(cover.units.front(), covered.units.data(), table_);
    auto materialize = [&](std::size_t m) { (void)fold.upto(m); };
    auto probe_at = [&](std::size_t m, OverlayFirstFit::Scratch& scratch) {
      return packer_.probe_replacement({{cover.units.data(), cover.units.data() + 1},
                                        {covered.units.data(), covered.units.data() + m}},
                                       &fold.upto(m), table_, scratch);
    };
    materialize(1);
    PackProbe winning = decision_probe(1, probe_at);  // doubles as the feasibility gate
    if (!winning.success) {
      ++stats_.clusterings_rejected;
      add_blacklist(cover_id, covered_id);
      return;
    }
    const std::size_t lo = search_max(1, n, winning, materialize, probe_at);
    SubUnit merged = fold.upto(lo);
    commit_base({{cover.units.data(), cover.units.data() + 1},
                 {covered.units.data(), covered.units.data() + lo}},
                merged, winning);
    cover.units.erase(cover.units.begin());
    covered.units.erase(covered.units.begin(),
                        covered.units.begin() + static_cast<std::ptrdiff_t>(lo));
    cover.units.push_back(std::move(merged));
    cover.sort_units();
    best_brokers_ = winning.brokers_used;
    ++stats_.clusterings_applied;
    dirty_.insert(cover_id);
    if (covered.units.empty()) {
      remove_gif(covered_id);
    } else {
      dirty_.insert(covered_id);
    }
    repoint_base(cover_id);
    repoint_base(covered_id);
  }

  // Optimization 3 (Section IV-C.3): before clustering an intersect pair,
  // try clustering `parent` with a Covered GIF Set chosen by greedy set
  // cover. Valid only if the CGS closeness beats the pair's and the result
  // allocates. Returns true if applied.
  bool try_one_to_many(std::uint64_t parent_id, std::uint64_t other_id,
                       double pair_closeness) {
    Gif& parent = gif(parent_id);
    // Covered GIFs: poset descendants, or a scan when the poset is off.
    std::vector<std::uint64_t> covered;
    if (opts_.poset_pruning) {
      const auto nit = node_of_.find(parent_id);
      if (nit == node_of_.end()) return false;
      for (const auto d : poset_.descendants(nit->second)) {
        const std::uint64_t pid = poset_.payload(d);
        if (gifs_.contains(pid)) covered.push_back(pid);
      }
    } else {
      for (const auto& [id, g] : gifs_) {
        if (id == parent_id) continue;
        if (SubscriptionProfile::covers(parent.profile, g.profile) &&
            !SubscriptionProfile::same_bits(parent.profile, g.profile)) {
          covered.push_back(id);
        }
      }
    }
    if (covered.empty()) return false;

    // Load budget: the CGS-parent cluster must not exceed the load of the
    // original candidate pair.
    const Bandwidth budget =
        parent.units.front().out_bw + gif(other_id).units.front().out_bw;
    Bandwidth spent = parent.units.front().out_bw;

    // Greedy set cover over the covered GIFs: repeatedly take the GIF whose
    // bits add the most coverage not already in the CGS.
    SubscriptionProfile cgs_profile;
    std::vector<std::uint64_t> chosen;
    std::unordered_set<std::uint64_t> remaining(covered.begin(), covered.end());
    while (!remaining.empty()) {
      std::uint64_t best_id = 0;
      std::size_t best_gain = 0;
      for (const std::uint64_t cid : remaining) {
        const auto& cp = gif(cid).profile;
        const std::size_t gain =
            cp.cardinality() - SubscriptionProfile::intersect_count(cgs_profile, cp);
        if (gain > best_gain || (gain == best_gain && best_gain > 0 && cid < best_id)) {
          best_gain = gain;
          best_id = cid;
        }
      }
      if (best_gain == 0) break;
      const Bandwidth add_bw = gif(best_id).units.front().out_bw;
      if (spent + add_bw > budget) break;
      spent += add_bw;
      chosen.push_back(best_id);
      cgs_profile.merge(gif(best_id).profile);
      remaining.erase(best_id);
    }
    if (chosen.empty()) return false;
    if (closeness(opts_.metric, parent.profile, cgs_profile) <= pair_closeness) {
      ++stats_.closeness_computations;
      return false;
    }
    ++stats_.closeness_computations;

    // Cluster parent.lightest with the lightest unit of every chosen GIF,
    // probed through an overlay — no GIF is touched unless the probe
    // succeeds, so the failure path has nothing to restore. The merged
    // profile equals the parent's (all chosen are covered), so the unit
    // stays in the parent GIF.
    SubUnit merged = parent.units.front();
    std::vector<UnitRange> removed;
    removed.reserve(chosen.size() + 1);
    removed.push_back({parent.units.data(), parent.units.data() + 1});
    for (const std::uint64_t cid : chosen) {
      Gif& cg = gif(cid);
      merged = cluster_units(merged, cg.units.front(), table_);
      removed.push_back({cg.units.data(), cg.units.data() + 1});
    }

    const PackProbe probe = probe_replacement(removed, merged);
    if (!probe.success) {
      return false;  // fall back to the pairwise merge (no blacklist)
    }
    commit_base(removed, merged, probe);
    parent.units.erase(parent.units.begin());
    for (const std::uint64_t cid : chosen) {
      Gif& cg = gif(cid);
      cg.units.erase(cg.units.begin());
    }
    parent.units.push_back(std::move(merged));
    parent.sort_units();
    best_brokers_ = probe.brokers_used;
    ++stats_.clusterings_applied;
    ++stats_.one_to_many_applied;
    dirty_.insert(parent_id);
    for (const std::uint64_t cid : chosen) {
      if (gif(cid).units.empty()) {
        remove_gif(cid);
      } else {
        dirty_.insert(cid);
      }
    }
    repoint_base(parent_id);
    for (const std::uint64_t cid : chosen) repoint_base(cid);
    return true;
  }

  std::vector<AllocBroker> pool_;
  const PublisherTable& table_;
  CramOptions opts_;
  CramStats stats_;
  std::unordered_map<std::uint64_t, Gif> gifs_;
  std::uint64_t next_id_ = 0;
  ProfilePoset poset_;
  std::unordered_map<std::uint64_t, ProfilePoset::NodeId> node_of_;
  std::unordered_set<GifPairKey, GifPairKeyHash> blacklist_;
  std::unordered_map<std::uint64_t, Candidate> best_;
  std::unordered_set<std::uint64_t> dirty_;
  std::size_t best_brokers_ = 0;
  // Overlay allocation probe (see "allocation probes" above). Declared
  // after pool_ — the packer copies it before the ctor body sorts it (the
  // packer capacity-sorts its own copy).
  OverlayFirstFit packer_;
  OverlayFirstFit::Scratch probe_scratch_;
  std::vector<OverlayFirstFit::Scratch> spec_scratch_;  // one per worker slot
  bool base_valid_ = false;
  // Worker pool (pair search + speculative k-search), created on first use.
  std::size_t threads_ = 1;
  std::size_t spec_levels_ = 0;  // k-search speculation depth; 0 = sequential
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace greenps::cram_detail
