// Differential suite for the incremental allocation probe.
//
// CheckpointedFirstFit::probe_replacement promises bit-identical results to
// a from-scratch first-fit packing of the overlay, for every checkpoint
// stride. These tests hold it to that promise: randomized overlays (removed
// ranges + a spliced-in unit) are probed through checkpoint resume and
// compared — outcome, broker count, work accounting AND final broker states
// — against the first_fit_probe oracle, across strides {none, 1, 3, 8,
// auto}. Directed cases cover the edges: first/last unit removed, the whole
// base removed, empty overlays, adds that sort first/last, multi-round
// commit-with-hint rebuilds and zero-pack adoption.
#include "alloc/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <vector>

#include "alloc/bin_packing.hpp"
#include "alloc_test_util.hpp"
#include "common/rng.hpp"

namespace greenps {
namespace {

using testutil::range_profile;

constexpr std::size_t kAuto = 0;
constexpr std::size_t kNone = CheckpointedFirstFit::kNoCheckpoints;
const std::vector<std::size_t> kStrides = {kNone, 1, 3, 8, kAuto};

PublisherTable three_publishers() {
  PublisherTable t;
  t[AdvId{0}] = PublisherProfile{AdvId{0}, 100.0, 100.0, 100000};
  t[AdvId{1}] = PublisherProfile{AdvId{1}, 60.0, 80.0, 100000};
  t[AdvId{2}] = PublisherProfile{AdvId{2}, 25.0, 40.0, 100000};
  return t;
}

// Stable unit storage: probes hold pointers into it and UnitRange is a raw
// contiguous span, so the vector is pre-reserved and must never reallocate
// while a packer is alive.
struct Workload {
  PublisherTable table = three_publishers();
  std::vector<SubUnit> storage;
  std::vector<AllocBroker> pool;

  Workload() { storage.reserve(64); }

  const SubUnit* add_unit(std::uint64_t id, MessageSeq from, MessageSeq to, AdvId adv) {
    assert(storage.size() < storage.capacity());
    storage.push_back(
        make_subscription_unit(SubId{id}, range_profile(from, to, adv), table));
    return &storage.back();
  }
};

Workload random_workload(Rng& rng) {
  Workload w;
  const auto brokers = static_cast<std::size_t>(rng.uniform_int(1, 6));
  for (std::size_t i = 0; i < brokers; ++i) {
    w.pool.push_back(AllocBroker{BrokerId{i}, rng.uniform_real(30.0, 200.0),
                                 MatchingDelayFunction{20e-6, 0.5e-6}});
  }
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 40));
  for (std::size_t i = 0; i < n; ++i) {
    const auto adv = AdvId{static_cast<std::uint64_t>(rng.uniform_int(0, 2))};
    const auto from = static_cast<MessageSeq>(rng.uniform_int(0, 60));
    const auto len = static_cast<MessageSeq>(rng.uniform_int(1, 35));
    w.add_unit(i, from, from + len, adv);
  }
  return w;
}

std::vector<const SubUnit*> all_ptrs(const Workload& w) {
  std::vector<const SubUnit*> out;
  for (const SubUnit& u : w.storage) out.push_back(&u);
  return out;
}

// The overlay as the oracle sees it: base minus removed plus added, in the
// exact first-fit order (sorted by unit_order_less).
std::vector<const SubUnit*> overlay_ptrs(const std::vector<const SubUnit*>& base,
                                         const std::vector<UnitRange>& removed,
                                         const SubUnit* added) {
  std::vector<const SubUnit*> out;
  for (const SubUnit* u : base) {
    bool gone = false;
    for (const UnitRange& r : removed) gone = gone || (u >= r.first && u < r.last);
    if (!gone) out.push_back(u);
  }
  if (added != nullptr) out.push_back(added);
  std::sort(out.begin(), out.end(),
            [](const SubUnit* a, const SubUnit* b) { return unit_order_less(*a, *b); });
  return out;
}

// Exact equality of final broker states — the strongest bit-identity check
// the probe exposes (floats compared with ==, unions entry by entry).
void expect_same_loads(const std::vector<BrokerLoad>& a, const std::vector<BrokerLoad>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].in_rate(), b[i].in_rate());
    EXPECT_EQ(a[i].used_bw(), b[i].used_bw());
    EXPECT_EQ(a[i].filter_count(), b[i].filter_count());
    const auto& ea = a[i].union_view().entries();
    const auto& eb = b[i].union_view().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t j = 0; j < ea.size(); ++j) {
      EXPECT_EQ(ea[j].adv, eb[j].adv);
      EXPECT_TRUE(ea[j].bits == eb[j].bits);
    }
  }
}

// Oracle: pack the overlay from scratch and keep the final loads.
PackProbe oracle_probe(const Workload& w, const std::vector<const SubUnit*>& overlay,
                       std::vector<BrokerLoad>* loads_out) {
  std::vector<AllocBroker> pool = w.pool;
  sort_by_capacity_desc(pool);
  std::vector<BrokerLoad> loads;
  for (const AllocBroker& b : pool) loads.emplace_back(b, /*keep_units=*/false);
  PackProbe probe;
  for (const SubUnit* u : overlay) {
    probe.units_packed += 1;
    bool placed = false;
    for (BrokerLoad& load : loads) {
      if (load.try_add(*u, w.table)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      *loads_out = std::move(loads);
      return probe;
    }
  }
  for (const BrokerLoad& load : loads) {
    if (!load.empty()) probe.brokers_used += 1;
  }
  probe.success = true;
  *loads_out = std::move(loads);
  return probe;
}

// One overlay, checked against the oracle for one packer.
void check_overlay(const Workload& w, const CheckpointedFirstFit& packer,
                   const std::vector<UnitRange>& removed, const SubUnit* added) {
  std::vector<BrokerLoad> oracle_loads;
  const auto overlay = overlay_ptrs(packer.units(), removed, added);
  const PackProbe want = oracle_probe(w, overlay, &oracle_loads);

  CheckpointedFirstFit::Scratch scratch;
  const PackProbe got = packer.probe_replacement(removed, added, w.table, scratch);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.brokers_used, want.brokers_used);
  // Work conservation: resumed + walked covers exactly what the oracle
  // walked, wherever the checkpoints happened to fall.
  EXPECT_EQ(got.units_packed + got.units_skipped, want.units_packed);
  expect_same_loads(scratch.loads, oracle_loads);
}

std::vector<UnitRange> random_removed(const Workload& w, Rng& rng) {
  std::vector<UnitRange> removed;
  const std::size_t n = w.storage.size();
  const auto ranges = static_cast<std::size_t>(rng.uniform_int(0, 3));
  std::size_t pos = 0;
  for (std::size_t r = 0; r < ranges && pos < n; ++r) {
    const auto first = pos + static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<std::int64_t>(n - pos) - 1));
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n - first)));
    removed.push_back({&w.storage[first], &w.storage[first] + len});
    pos = first + len;
  }
  return removed;
}

TEST(ProbeResume, RandomizedDifferentialAgainstFromScratchFirstFit) {
  std::size_t cases = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 7919 + 1);
    Workload w = random_workload(rng);
    for (const std::size_t stride : kStrides) {
      CheckpointedFirstFit packer(w.pool, stride);
      packer.rebuild(all_ptrs(w), w.table);
      for (int probe = 0; probe < 4; ++probe) {
        const std::vector<UnitRange> removed = random_removed(w, rng);
        const SubUnit* added = nullptr;
        SubUnit merged;
        if (!removed.empty() && rng.chance(0.7)) {
          merged = cluster_units(*removed.front().first,
                                 *(removed.back().last - 1), w.table);
          added = &merged;
        }
        check_overlay(w, packer, removed, added);
        ++cases;
      }
    }
  }
  // The suite's advertised depth: at least 1,000 randomized differential
  // comparisons (60 seeds x 5 strides x 4 overlays = 1,200).
  EXPECT_GE(cases, 1000u);
}

TEST(ProbeResume, RemovedRangeEdgeCases) {
  Rng rng(42);
  for (const std::size_t stride : kStrides) {
    Workload w = random_workload(rng);
    CheckpointedFirstFit packer(w.pool, stride);
    packer.rebuild(all_ptrs(w), w.table);
    const auto& sorted = packer.units();

    // First and last unit in PACK order (not storage order).
    const SubUnit* first_packed = sorted.front();
    const SubUnit* last_packed = sorted.back();
    check_overlay(w, packer, {{first_packed, first_packed + 1}}, nullptr);
    check_overlay(w, packer, {{last_packed, last_packed + 1}}, nullptr);

    // The whole base removed: empty overlay, trivially feasible.
    const UnitRange everything{&w.storage.front(), &w.storage.back() + 1};
    check_overlay(w, packer, {everything}, nullptr);
    CheckpointedFirstFit::Scratch scratch;
    const PackProbe empty = packer.probe_replacement({everything}, nullptr, w.table, scratch);
    EXPECT_TRUE(empty.success);
    EXPECT_EQ(empty.brokers_used, 0u);

    // Whole base replaced by one unit.
    SubUnit merged = cluster_units(w.storage.front(), w.storage.back(), w.table);
    check_overlay(w, packer, {everything}, &merged);

    // An add that sorts before everything (heaviest) and one that sorts
    // after everything (lightest), with nothing removed.
    SubUnit heavy = w.storage.front();
    for (const SubUnit* u : sorted) {
      if (heavy.out_bw <= u->out_bw) heavy = cluster_units(heavy, *u, w.table);
    }
    check_overlay(w, packer, {}, &heavy);
    const SubUnit* light = w.add_unit(900, 0, 1, AdvId{2});
    check_overlay(w, packer, {}, light);
  }
}

TEST(ProbeResume, ProbeIsReusableAndConstAcrossRepeats) {
  Rng rng(7);
  Workload w = random_workload(rng);
  CheckpointedFirstFit packer(w.pool, 3);
  packer.rebuild(all_ptrs(w), w.table);
  const SubUnit* victim = packer.units()[packer.units().size() / 2];
  CheckpointedFirstFit::Scratch scratch;
  const PackProbe once = packer.probe_replacement({{victim, victim + 1}}, nullptr, w.table,
                                                  scratch);
  for (int i = 0; i < 3; ++i) {
    const PackProbe again = packer.probe_replacement({{victim, victim + 1}}, nullptr,
                                                     w.table, scratch);
    EXPECT_EQ(again.success, once.success);
    EXPECT_EQ(again.brokers_used, once.brokers_used);
    EXPECT_EQ(again.units_packed, once.units_packed);
    EXPECT_EQ(again.units_skipped, once.units_skipped);
  }
}

// Multi-round: commit random overlays, resuming each rebuild from the
// divergence position, and keep comparing against a packer rebuilt from
// scratch every round. Exercises checkpoint reuse across generations.
TEST(ProbeResume, CommitWithResumeHintMatchesFreshRebuild) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 100);
    Workload w = random_workload(rng);
    CheckpointedFirstFit resumed(w.pool, 2);
    CheckpointedFirstFit fresh(w.pool, kNone);
    std::vector<const SubUnit*> live = all_ptrs(w);
    resumed.rebuild(live, w.table);
    fresh.rebuild(live, w.table);

    for (int round = 0; round < 5 && live.size() >= 2; ++round) {
      // Remove two units (as two singleton ranges), add their cluster.
      const std::size_t ia = rng.index(live.size());
      std::size_t ib = rng.index(live.size());
      if (ib == ia) ib = (ib + 1) % live.size();
      const SubUnit *ua = live[ia], *ub = live[ib];
      w.storage.push_back(cluster_units(*ua, *ub, w.table));
      const SubUnit* merged = &w.storage.back();
      const std::vector<UnitRange> removed{{ua, ua + 1}, {ub, ub + 1}};

      check_overlay(w, resumed, removed, merged);
      const std::size_t hint = resumed.divergence_position(removed, merged);

      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const SubUnit* u) { return u == ua || u == ub; }),
                 live.end());
      live.push_back(merged);
      const PackProbe& a = resumed.rebuild(live, w.table, hint);
      const PackProbe& b = fresh.rebuild(live, w.table);
      EXPECT_EQ(a.success, b.success);
      EXPECT_EQ(a.brokers_used, b.brokers_used);
      // The resumed rebuild walks only what its checkpoints cannot cover.
      EXPECT_EQ(a.units_packed + a.units_skipped, b.units_packed);
      // And probes on the two bases agree from here on.
      if (!live.empty()) {
        const SubUnit* victim = resumed.units().front();
        CheckpointedFirstFit::Scratch sa, sb;
        const PackProbe pa =
            resumed.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sa);
        const PackProbe pb =
            fresh.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sb);
        EXPECT_EQ(pa.success, pb.success);
        EXPECT_EQ(pa.brokers_used, pb.brokers_used);
        expect_same_loads(sa.loads, sb.loads);
      }
    }
  }
}

// Adoption: installing a committed overlay's winning probe as the new base
// without packing must leave the packer indistinguishable (to probes) from
// one that re-packed the same sequence.
TEST(ProbeResume, AdoptedBaseMatchesRebuiltBase) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 500);
    Workload w = random_workload(rng);
    CheckpointedFirstFit adopted(w.pool, 2);
    CheckpointedFirstFit rebuilt(w.pool, 2);
    std::vector<const SubUnit*> live = all_ptrs(w);
    adopted.rebuild(live, w.table);
    rebuilt.rebuild(live, w.table);

    for (int round = 0; round < 4 && live.size() >= 2; ++round) {
      const std::size_t ia = rng.index(live.size());
      const SubUnit* ua = live[ia];
      std::size_t ib = rng.index(live.size());
      if (ib == ia) ib = (ib + 1) % live.size();
      const SubUnit* ub = live[ib];
      w.storage.push_back(cluster_units(*ua, *ub, w.table));
      const SubUnit* merged = &w.storage.back();
      const std::vector<UnitRange> removed{{ua, ua + 1}, {ub, ub + 1}};

      CheckpointedFirstFit::Scratch scratch;
      const PackProbe winning =
          adopted.probe_replacement(removed, merged, w.table, scratch);
      if (!winning.success) break;  // only successful overlays are ever adopted
      const std::size_t hint = adopted.divergence_position(removed, merged);

      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const SubUnit* u) { return u == ua || u == ub; }),
                 live.end());
      live.push_back(merged);
      adopted.adopt(live, hint, winning);
      rebuilt.rebuild(live, w.table);
      EXPECT_EQ(adopted.base().success, rebuilt.base().success);
      EXPECT_EQ(adopted.base().brokers_used, rebuilt.base().brokers_used);
      ASSERT_EQ(adopted.units().size(), rebuilt.units().size());
      for (std::size_t i = 0; i < adopted.units().size(); ++i) {
        EXPECT_EQ(adopted.units()[i], rebuilt.units()[i]);
      }

      if (live.empty()) break;
      const SubUnit* victim = adopted.units().front();
      CheckpointedFirstFit::Scratch sa, sb;
      const PackProbe pa =
          adopted.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sa);
      const PackProbe pb =
          rebuilt.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sb);
      EXPECT_EQ(pa.success, pb.success);
      EXPECT_EQ(pa.brokers_used, pb.brokers_used);
      EXPECT_EQ(pa.units_packed + pa.units_skipped, pb.units_packed + pb.units_skipped);
      expect_same_loads(sa.loads, sb.loads);
    }
  }
}

// try_add is the fused fits+add: a rejected unit must leave the load
// untouched bit for bit, and an accepted one must cost a single union walk
// on the provably-fitting fast path.
TEST(ProbeResume, TryAddRejectionLeavesLoadUntouched) {
  const PublisherTable table = three_publishers();
  const AllocBroker tiny{BrokerId{0}, 10.0, MatchingDelayFunction{20e-6, 0.5e-6}};
  BrokerLoad load(tiny, /*keep_units=*/false);
  const SubUnit small = make_subscription_unit(SubId{1}, range_profile(0, 5, AdvId{0}), table);
  ASSERT_TRUE(load.try_add(small, table));
  const MsgRate in_before = load.in_rate();
  const Bandwidth bw_before = load.used_bw();
  const std::size_t filters_before = load.filter_count();
  const SubUnit huge =
      make_subscription_unit(SubId{2}, range_profile(0, 90, AdvId{1}), table);
  EXPECT_FALSE(load.try_add(huge, table));
  EXPECT_EQ(load.in_rate(), in_before);
  EXPECT_EQ(load.used_bw(), bw_before);
  EXPECT_EQ(load.filter_count(), filters_before);
}

TEST(ProbeResume, FastPathAcceptCostsOneWalk) {
  const PublisherTable table = three_publishers();
  const AllocBroker big{BrokerId{0}, 1000.0, MatchingDelayFunction{20e-6, 0.5e-6}};
  BrokerLoad load(big, /*keep_units=*/false);
  const SubUnit u = make_subscription_unit(SubId{1}, range_profile(0, 10, AdvId{0}), table);
  UnionProfile::reset_probe_walks();
  ASSERT_TRUE(load.try_add(u, table));
  // An empty 1000 kB/s broker trivially satisfies the rate bound, so the
  // decision is walk-free and the fused merge_with_rate is the only walk.
  EXPECT_EQ(UnionProfile::probe_walks(), 1u);
}

}  // namespace
}  // namespace greenps
