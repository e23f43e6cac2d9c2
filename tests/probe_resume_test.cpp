// Differential suite for the overlay allocation probe and the lazy dry-run
// broker load under it.
//
// OverlayFirstFit::probe_replacement promises bit-identical results to a
// from-scratch first-fit packing of the overlay. These tests hold it to
// that promise: randomized overlays (removed ranges + a spliced-in unit) are
// probed and compared — outcome, broker count, work accounting AND final
// broker states — against the first_fit_probe oracle and an eager packing.
// Directed cases cover the edges: first/last unit removed, the whole base
// removed, empty overlays and adds that sort first/last. Commits are checked
// too: a spliced, repointed base must equal a from-scratch sorted rebuild
// pointer for pointer. Finally the lazy dry-run BrokerLoad is run step by
// step against an eager one.
#include "alloc/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <vector>

#include "alloc/bin_packing.hpp"
#include "alloc/gif.hpp"
#include "alloc_test_util.hpp"
#include "common/rng.hpp"

namespace greenps {
namespace {

using testutil::range_profile;

PublisherTable three_publishers() {
  PublisherTable t;
  t[AdvId{0}] = PublisherProfile{AdvId{0}, 100.0, 100.0, 100000};
  t[AdvId{1}] = PublisherProfile{AdvId{1}, 60.0, 80.0, 100000};
  t[AdvId{2}] = PublisherProfile{AdvId{2}, 25.0, 40.0, 100000};
  return t;
}

SubUnit random_unit(std::uint64_t id, Rng& rng, const PublisherTable& table) {
  const auto adv = AdvId{static_cast<std::uint64_t>(rng.uniform_int(0, 2))};
  const auto from = static_cast<MessageSeq>(rng.uniform_int(0, 60));
  const auto len = static_cast<MessageSeq>(rng.uniform_int(1, 35));
  return make_subscription_unit(SubId{id}, range_profile(from, from + len, adv), table);
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

std::vector<AllocBroker> random_pool(Rng& rng) {
  std::vector<AllocBroker> pool;
  const auto brokers = static_cast<std::size_t>(rng.uniform_int(1, 6));
  for (std::size_t i = 0; i < brokers; ++i) {
    pool.push_back(AllocBroker{BrokerId{i}, rng.uniform_real(30.0, 200.0),
                               MatchingDelayFunction{20e-6, 0.5e-6}});
  }
  return pool;
}

Workload random_workload(Rng& rng) {
  Workload w;
  w.pool = random_pool(rng);
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 40));
  for (std::size_t i = 0; i < n; ++i) w.storage.push_back(random_unit(i, rng, w.table));
  return w;
}

std::vector<const SubUnit*> all_ptrs(const Workload& w) {
  std::vector<const SubUnit*> out;
  for (const SubUnit& u : w.storage) out.push_back(&u);
  return out;
}

std::vector<const SubUnit*> base_ptrs(const OverlayFirstFit& packer) {
  std::vector<const SubUnit*> out;
  for (const OverlayFirstFit::Slot& s : packer.slots()) out.push_back(s.unit);
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
  sort_units_by_bandwidth_desc(out);
  return out;
}

// Exact equality of final broker states — the strongest bit-identity check
// the probe exposes (floats compared with ==, unions entry by entry). Both
// sides must be settled.
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

void settle_all(std::vector<BrokerLoad>& loads, const PublisherTable& table) {
  for (BrokerLoad& load : loads) load.settle(table);
}

// Oracle: pack the overlay from scratch into EAGER loads and keep them.
PackProbe oracle_probe(const Workload& w, const std::vector<const SubUnit*>& overlay,
                       std::vector<BrokerLoad>* loads_out) {
  std::vector<AllocBroker> pool = w.pool;
  sort_by_capacity_desc(pool);
  std::vector<BrokerLoad> loads;
  for (const AllocBroker& b : pool) loads.emplace_back(b, /*keep_units=*/true);
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

// One overlay, checked against the oracles for one packer.
void check_overlay(const Workload& w, const OverlayFirstFit& packer,
                   const std::vector<UnitRange>& removed, const SubUnit* added) {
  std::vector<BrokerLoad> oracle_loads;
  const auto overlay = overlay_ptrs(base_ptrs(packer), removed, added);
  const PackProbe want = oracle_probe(w, overlay, &oracle_loads);
  std::vector<AllocBroker> pool = w.pool;
  sort_by_capacity_desc(pool);
  const PackProbe dry = first_fit_probe(pool, overlay, w.table);
  EXPECT_EQ(dry.success, want.success);
  EXPECT_EQ(dry.brokers_used, want.brokers_used);
  EXPECT_EQ(dry.units_packed, want.units_packed);

  OverlayFirstFit::Scratch scratch;
  const PackProbe got = packer.probe_replacement(removed, added, w.table, scratch);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.brokers_used, want.brokers_used);
  EXPECT_EQ(got.units_packed, want.units_packed);
  settle_all(scratch.loads, w.table);
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
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed * 7919 + 1);
    Workload w = random_workload(rng);
    OverlayFirstFit packer(w.pool);
    packer.rebuild(all_ptrs(w), w.table);
    for (int probe = 0; probe < 4; ++probe) {
      const std::vector<UnitRange> removed = random_removed(w, rng);
      const SubUnit* added = nullptr;
      SubUnit merged;
      if (!removed.empty() && rng.chance(0.7)) {
        merged = cluster_units(*removed.front().first, *(removed.back().last - 1), w.table);
        added = &merged;
      }
      check_overlay(w, packer, removed, added);
      ++cases;
    }
  }
  // The suite's advertised depth: at least 1,000 randomized differential
  // comparisons (250 seeds x 4 overlays).
  EXPECT_GE(cases, 1000u);
}

TEST(ProbeResume, RemovedRangeEdgeCases) {
  Rng rng(42);
  for (int round = 0; round < 5; ++round) {
    Workload w = random_workload(rng);
    OverlayFirstFit packer(w.pool);
    packer.rebuild(all_ptrs(w), w.table);
    const auto sorted = base_ptrs(packer);

    // First and last unit in PACK order (not storage order).
    const SubUnit* first_packed = sorted.front();
    const SubUnit* last_packed = sorted.back();
    check_overlay(w, packer, {{first_packed, first_packed + 1}}, nullptr);
    check_overlay(w, packer, {{last_packed, last_packed + 1}}, nullptr);

    // The whole base removed: empty overlay, trivially feasible.
    const UnitRange everything{&w.storage.front(), &w.storage.back() + 1};
    check_overlay(w, packer, {everything}, nullptr);
    OverlayFirstFit::Scratch scratch;
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

// Scratch loads are reset in place between probes; a reused scratch must
// give the same answer and the same final states every time.
TEST(ProbeResume, ProbeIsReusableAndConstAcrossRepeats) {
  Rng rng(7);
  Workload w = random_workload(rng);
  OverlayFirstFit packer(w.pool);
  packer.rebuild(all_ptrs(w), w.table);
  const SubUnit* victim = packer.slots()[packer.slots().size() / 2].unit;
  OverlayFirstFit::Scratch scratch;
  const PackProbe once = packer.probe_replacement({{victim, victim + 1}}, nullptr, w.table,
                                                  scratch);
  settle_all(scratch.loads, w.table);
  const std::vector<BrokerLoad> first_states = scratch.loads;
  for (int i = 0; i < 3; ++i) {
    // A different overlay in between leaves stale state to reset.
    (void)packer.probe_replacement({}, nullptr, w.table, scratch);
    const PackProbe again = packer.probe_replacement({{victim, victim + 1}}, nullptr,
                                                     w.table, scratch);
    EXPECT_EQ(again.success, once.success);
    EXPECT_EQ(again.brokers_used, once.brokers_used);
    EXPECT_EQ(again.units_packed, once.units_packed);
    settle_all(scratch.loads, w.table);
    expect_same_loads(scratch.loads, first_states);
  }
}

// CRAM's commit discipline on GIF-like storage: each commit splices the
// base (removed prefixes out, merged unit in), then the unit vectors are
// mutated the way CramRun mutates GIFs — erase, push_back, sort_units,
// which move units in memory — and every mutated vector is repointed. The
// spliced base must equal a from-scratch sorted rebuild pointer for
// pointer, and the adopted result must equal the rebuild's packing.
TEST(ProbeResume, SplicedBaseMatchesFreshSortedRebuild) {
  std::size_t commits = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed + 100);
    const PublisherTable table = three_publishers();
    std::vector<Gif> gifs(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    std::uint64_t next_id = 0;
    for (Gif& g : gifs) {
      const auto n = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < n; ++i) g.units.push_back(random_unit(next_id++, rng, table));
      g.sort_units();
    }
    auto live = [&] {
      std::vector<const SubUnit*> out;
      for (const Gif& g : gifs) {
        for (const SubUnit& u : g.units) out.push_back(&u);
      }
      return out;
    };
    const std::vector<AllocBroker> pool = random_pool(rng);
    OverlayFirstFit spliced(pool);
    spliced.rebuild(live(), table);

    for (int round = 0; round < 12; ++round) {
      // Remove a random prefix (the lightest units, as CRAM's clustering
      // rules pick them) from one to three GIFs, and fold them into one.
      std::vector<std::size_t> touched;
      for (std::size_t gi = 0; gi < gifs.size(); ++gi) {
        if (!gifs[gi].units.empty() && (touched.empty() || rng.chance(0.3))) touched.push_back(gi);
        if (touched.size() == 3) break;
      }
      if (touched.empty()) break;
      std::vector<UnitRange> removed;
      std::vector<std::size_t> take;
      for (const std::size_t gi : touched) {
        const auto n = static_cast<std::int64_t>(gifs[gi].units.size());
        take.push_back(static_cast<std::size_t>(rng.uniform_int(1, n)));
        removed.push_back({gifs[gi].units.data(), gifs[gi].units.data() + take.back()});
      }
      SubUnit merged;
      bool have = false;
      for (const UnitRange& r : removed) {
        for (const SubUnit* u = r.first; u != r.last; ++u) {
          merged = have ? cluster_units(merged, *u, table) : *u;
          have = true;
        }
      }
      OverlayFirstFit::Scratch scratch;
      const PackProbe winning = spliced.probe_replacement(removed, &merged, table, scratch);
      spliced.splice(removed, merged, winning);

      for (std::size_t i = 0; i < touched.size(); ++i) {
        auto& units = gifs[touched[i]].units;
        units.erase(units.begin(), units.begin() + static_cast<std::ptrdiff_t>(take[i]));
      }
      const std::size_t home = rng.index(gifs.size());
      gifs[home].units.push_back(std::move(merged));
      gifs[home].sort_units();
      for (const std::size_t gi : touched) spliced.repoint(gifs[gi].units);
      spliced.repoint(gifs[home].units);
      ++commits;

      OverlayFirstFit fresh(pool);
      const PackProbe& rebuilt = fresh.rebuild(live(), table);
      ASSERT_EQ(spliced.slots().size(), fresh.slots().size());
      for (std::size_t i = 0; i < fresh.slots().size(); ++i) {
        EXPECT_EQ(spliced.slots()[i].unit, fresh.slots()[i].unit) << "slot " << i;
        EXPECT_EQ(spliced.slots()[i].out_bw, fresh.slots()[i].out_bw);
        EXPECT_EQ(spliced.slots()[i].tiebreak, fresh.slots()[i].tiebreak);
      }
      EXPECT_EQ(spliced.base().success, rebuilt.success);
      if (rebuilt.success) {
        EXPECT_EQ(spliced.base().brokers_used, rebuilt.brokers_used);
      }
      // Adopted work was accounted by the winning probe, not again here.
      EXPECT_EQ(spliced.base().units_packed, 0u);
    }
  }
  EXPECT_GE(commits, 300u);
}

// Adoption: splicing a committed overlay and adopting its winning probe
// must leave the packer indistinguishable (to probes) from one that
// re-sorted and re-packed the same sequence.
TEST(ProbeResume, AdoptedBaseMatchesRebuiltBase) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 500);
    Workload w = random_workload(rng);
    OverlayFirstFit adopted(w.pool);
    std::vector<const SubUnit*> live = all_ptrs(w);
    adopted.rebuild(live, w.table);

    for (int round = 0; round < 4 && live.size() >= 2; ++round) {
      const std::size_t ia = rng.index(live.size());
      const SubUnit* ua = live[ia];
      std::size_t ib = rng.index(live.size());
      if (ib == ia) ib = (ib + 1) % live.size();
      const SubUnit* ub = live[ib];
      w.storage.push_back(cluster_units(*ua, *ub, w.table));
      const SubUnit* merged = &w.storage.back();
      const std::vector<UnitRange> removed{{ua, ua + 1}, {ub, ub + 1}};

      OverlayFirstFit::Scratch scratch;
      const PackProbe winning = adopted.probe_replacement(removed, merged, w.table, scratch);
      if (!winning.success) break;  // only successful overlays are ever adopted
      adopted.splice(removed, *merged, winning);

      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const SubUnit* u) { return u == ua || u == ub; }),
                 live.end());
      live.push_back(merged);
      OverlayFirstFit rebuilt(w.pool);
      rebuilt.rebuild(live, w.table);
      EXPECT_EQ(adopted.base().success, rebuilt.base().success);
      EXPECT_EQ(adopted.base().brokers_used, rebuilt.base().brokers_used);
      EXPECT_EQ(base_ptrs(adopted), base_ptrs(rebuilt));

      if (live.empty()) break;
      const SubUnit* victim = adopted.slots().front().unit;
      OverlayFirstFit::Scratch sa, sb;
      const PackProbe pa =
          adopted.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sa);
      const PackProbe pb =
          rebuilt.probe_replacement({{victim, victim + 1}}, nullptr, w.table, sb);
      EXPECT_EQ(pa.success, pb.success);
      EXPECT_EQ(pa.brokers_used, pb.brokers_used);
      EXPECT_EQ(pa.units_packed, pb.units_packed);
      settle_all(sa.loads, w.table);
      settle_all(sb.loads, w.table);
      expect_same_loads(sa.loads, sb.loads);
    }
  }
}

// try_add is the fused fits+add: a rejected unit must leave the load
// untouched bit for bit (apart from settling its deferred accepts).
TEST(ProbeResume, TryAddRejectionLeavesLoadUntouched) {
  const PublisherTable table = three_publishers();
  const AllocBroker tiny{BrokerId{0}, 10.0, MatchingDelayFunction{20e-6, 0.5e-6}};
  for (const bool keep_units : {false, true}) {
    BrokerLoad load(tiny, keep_units);
    const SubUnit small =
        make_subscription_unit(SubId{1}, range_profile(0, 5, AdvId{0}), table);
    ASSERT_TRUE(load.try_add(small, table));
    const MsgRate bound_before = load.in_rate_bound();
    const Bandwidth bw_before = load.used_bw();
    const std::size_t filters_before = load.filter_count();
    const SubUnit huge =
        make_subscription_unit(SubId{2}, range_profile(0, 90, AdvId{1}), table);
    EXPECT_FALSE(load.try_add(huge, table));
    EXPECT_EQ(load.in_rate_bound(), bound_before);
    EXPECT_EQ(load.used_bw(), bw_before);
    EXPECT_EQ(load.filter_count(), filters_before);
    load.settle(table);
    EXPECT_EQ(load.in_rate(), small.in_rate);
  }
}

// A dry-run accept the rate bound decides walks no union; settle() then
// walks once per deferred unit. Eager loads keep the single fused walk.
TEST(ProbeResume, LazyAcceptWalksOnlyOnSettle) {
  const PublisherTable table = three_publishers();
  const AllocBroker big{BrokerId{0}, 1000.0, MatchingDelayFunction{20e-6, 0.5e-6}};
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 3; ++i) {
    units.push_back(make_subscription_unit(
        SubId{i}, range_profile(i * 10, i * 10 + 10, AdvId{0}), table));
  }
  BrokerLoad lazy(big, /*keep_units=*/false);
  UnionProfile::reset_probe_walks();
  for (const SubUnit& u : units) ASSERT_TRUE(lazy.try_add(u, table));
  // An empty 1000 kB/s broker trivially satisfies the rate bound.
  EXPECT_EQ(UnionProfile::probe_walks(), 0u);
  EXPECT_FALSE(lazy.settled());
  lazy.settle(table);
  EXPECT_EQ(UnionProfile::probe_walks(), units.size());
  EXPECT_TRUE(lazy.settled());
  lazy.settle(table);  // nothing pending: no walk
  EXPECT_EQ(UnionProfile::probe_walks(), units.size());

  BrokerLoad eager(big, /*keep_units=*/true);
  UnionProfile::reset_probe_walks();
  ASSERT_TRUE(eager.try_add(units[0], table));
  EXPECT_EQ(UnionProfile::probe_walks(), 1u);
}

// The lazy dry-run load against an eager one on randomized unit sequences.
// Thresholds are drawn so the matching-rate test binds: heavily overlapping
// units push the summed bound past the threshold while the exact union rate
// (at most 185 msg/s over three publishers) stays below it, so bound-decided
// accepts, settles followed by accepts and rejects right after long pending
// runs all occur. Both loads must decide identically at every step, the
// bound must cover the exact rate throughout, and settling must reproduce
// the eager rate and union bits exactly.
TEST(ProbeResume, LazyLoadMatchesEagerLoadStepByStep) {
  const PublisherTable table = three_publishers();
  std::size_t bound_accepts = 0;
  std::size_t settled_accepts = 0;
  std::size_t rejects_after_long_run = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 31 + 3);
    const double t1 = rng.uniform_real(30.0, 400.0);    // threshold at 1 filter
    const double half = rng.uniform_real(8.0, 80.0);    // filters to halve it
    const double bw = rng.chance(0.2) ? rng.uniform_real(200.0, 2000.0) : 1e12;
    const AllocBroker b{BrokerId{0}, bw, MatchingDelayFunction{1.0 / t1, 1.0 / (t1 * half)}};
    std::vector<SubUnit> units;
    const auto n = static_cast<std::size_t>(rng.uniform_int(20, 120));
    units.reserve(n);
    for (std::size_t i = 0; i < n; ++i) units.push_back(random_unit(i, rng, table));

    BrokerLoad lazy(b, /*keep_units=*/false);
    BrokerLoad eager(b, /*keep_units=*/true);
    std::size_t run = 0;  // bound-decided accepts since the load was settled
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t walks_before = UnionProfile::probe_walks();
      const bool was_settled = lazy.settled();
      const bool got = lazy.try_add(units[i], table);
      const bool walked = UnionProfile::probe_walks() != walks_before;
      const bool want = eager.try_add(units[i], table);
      ASSERT_EQ(got, want) << "seed " << seed << " step " << i;
      EXPECT_GE(lazy.in_rate_bound(), eager.in_rate()) << "seed " << seed << " step " << i;
      EXPECT_EQ(lazy.used_bw(), eager.used_bw());
      EXPECT_EQ(lazy.filter_count(), eager.filter_count());
      if (got && !walked) {
        ++bound_accepts;
        ++run;
      } else if (got) {
        ++settled_accepts;
        run = 0;
      } else {
        if (!was_settled && lazy.settled() && run >= 5) ++rejects_after_long_run;
        if (lazy.settled()) run = 0;
        if (rng.chance(0.5)) {
          // Start over on an empty broker: clear() must reuse the load.
          lazy.clear();
          eager.clear();
          run = 0;
        }
      }
      if (rng.chance(0.1)) {
        lazy.settle(table);
        run = 0;
        ASSERT_EQ(lazy.in_rate(), eager.in_rate()) << "seed " << seed << " step " << i;
        EXPECT_EQ(lazy.in_rate_bound(), lazy.in_rate());  // the bound is reset tight
      }
    }
    lazy.settle(table);
    EXPECT_EQ(lazy.in_rate(), eager.in_rate()) << "seed " << seed;
    EXPECT_EQ(lazy.in_rate_bound(), lazy.in_rate());
    const auto& el = lazy.union_view().entries();
    const auto& ee = eager.union_view().entries();
    ASSERT_EQ(el.size(), ee.size());
    for (std::size_t j = 0; j < el.size(); ++j) {
      EXPECT_EQ(el[j].adv, ee[j].adv);
      EXPECT_TRUE(el[j].bits == ee[j].bits);
    }
  }
  // The randomized regime must actually exercise every path.
  EXPECT_GT(bound_accepts, 1000u);
  EXPECT_GT(settled_accepts, 100u);
  EXPECT_GT(rejects_after_long_run, 20u);
}

}  // namespace
}  // namespace greenps
