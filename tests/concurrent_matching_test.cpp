// Concurrency suite for the epoch-guarded broker core: epoch reclamation
// (grace periods, torture), the lock-free published-snapshot match path
// against a single-threaded oracle under concurrent registration churn, and
// the concurrent interner. Every test asserts *exact* equality — the
// concurrent machinery must be invisible to observable behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/routing_tables.hpp"
#include "common/epoch.hpp"
#include "common/rng.hpp"
#include "language/interner.hpp"
#include "language/parser.hpp"

namespace greenps {
namespace {

using MatchResult = SubscriptionRoutingTable::MatchResult;

bool results_equal(const MatchResult& a, const MatchResult& b) {
  return a.forward_to == b.forward_to && a.deliver == b.deliver;
}

// --- epoch-based reclamation --------------------------------------------

struct Tracked {
  explicit Tracked(std::atomic<int>& live, std::uint64_t v) : alive(live), value(v) {
    alive.fetch_add(1, std::memory_order_relaxed);
  }
  ~Tracked() { alive.fetch_sub(1, std::memory_order_relaxed); }
  std::atomic<int>& alive;
  std::uint64_t value;
};

// A held guard keeps a retired snapshot alive; releasing it makes the next
// reclaim free it.
TEST(EpochReclaim, GuardDefersReclamationUntilReaderLeaves) {
  auto& domain = EpochDomain::global();
  std::atomic<int> live{0};
  EpochPtr<Tracked> ptr;
  ptr.publish(new Tracked(live, 1));

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::uint64_t seen = 0;
  std::thread reader([&] {
    EpochGuard guard;
    const Tracked* t = ptr.load();
    ASSERT_NE(t, nullptr);
    seen = t->value;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
    // Still inside the guard: the snapshot must not have been freed.
    EXPECT_EQ(t->value, 1u);
  });
  while (!pinned.load()) std::this_thread::yield();

  ptr.publish(new Tracked(live, 2));  // retires v1 while the reader is pinned
  domain.try_reclaim();
  EXPECT_EQ(live.load(), 2) << "v1 reclaimed under a live reader pin";

  release.store(true);
  reader.join();
  domain.try_reclaim();
  EXPECT_EQ(live.load(), 1) << "v1 not reclaimed after the reader left";
  EXPECT_EQ(seen, 1u);
}

// Torture: a writer races through ~1000 versions while readers load
// continuously. No reader may ever observe a freed snapshot (ASan/TSan
// enforce that); after quiescence everything but the final version is
// reclaimed.
TEST(EpochReclaim, TortureManyVersionsConcurrentReaders) {
  auto& domain = EpochDomain::global();
  std::atomic<int> live{0};
  std::atomic<bool> stop{false};
  {
    EpochPtr<Tracked> ptr;
    ptr.publish(new Tracked(live, 0));

    std::vector<std::thread> readers;
    std::atomic<std::uint64_t> loads{0};
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          EpochGuard guard;
          const Tracked* t = ptr.load();
          ASSERT_NE(t, nullptr);
          // Versions are published in increasing order; a reader must never
          // travel back in time.
          EXPECT_GE(t->value, last);
          last = t->value;
          loads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    for (std::uint64_t v = 1; v <= 1000; ++v) {
      ptr.publish(new Tracked(live, v));
      // Single-core schedulers would otherwise run the writer to completion
      // before any reader gets a slice.
      if (v % 16 == 0) std::this_thread::yield();
    }
    // The final version stays published; readers always make progress, so
    // insist on a floor of loads before stopping them.
    while (loads.load(std::memory_order_relaxed) < 100) {
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();
    EXPECT_GT(loads.load(), 0u);
    // All readers quiesced: everything except the current version drains.
    domain.try_reclaim();
    EXPECT_EQ(live.load(), 1);
  }
  // EpochPtr's destructor retires the final version.
  domain.try_reclaim();
  EXPECT_EQ(live.load(), 0);
}

// Nested guards reuse the outer pin (the interner inside a routing match);
// the inner guard's destruction must not release the outer protection.
TEST(EpochReclaim, NestedGuardsShareOnePin) {
  auto& domain = EpochDomain::global();
  std::atomic<int> live{0};
  EpochPtr<Tracked> ptr;
  ptr.publish(new Tracked(live, 7));
  {
    EpochGuard outer;
    const Tracked* t = ptr.load();
    { EpochGuard inner; }  // no-op: must not unpin the thread
    ptr.publish(new Tracked(live, 8));
    domain.try_reclaim();
    EXPECT_EQ(t->value, 7u) << "outer pin lost when the inner guard closed";
    EXPECT_EQ(live.load(), 2);
  }
  domain.try_reclaim();
  EXPECT_EQ(live.load(), 1);
}

// --- concurrent match vs single-threaded oracle -------------------------

Filter symbol_filter(const std::string& symbol) {
  return parse_filter("[class,=,'STOCK'],[symbol,=,'" + symbol + "']");
}

std::vector<Publication> probe_publications() {
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  std::vector<Publication> pubs;
  for (const char* s : symbols) {
    Publication p;
    p.set_attr("class", Value(std::string("STOCK")));
    p.set_attr("symbol", Value(std::string(s)));
    p.set_attr("volume", Value(std::int64_t{500000}));
    pubs.push_back(std::move(p));
  }
  return pubs;
}

// Readers hammer match_into() while the owner churns registrations and
// re-publishes. Every reader result is compared — exactly — against what a
// single-threaded oracle table produced for the same snapshot version.
TEST(ConcurrentMatching, PublishedMatchAgreesWithOracleUnderChurn) {
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  for (const std::uint64_t seed : {11u, 29u, 71u}) {
    SubscriptionRoutingTable table;
    SubscriptionRoutingTable oracle;  // mutated in lockstep, used only by owner
    const std::vector<Publication> pubs = probe_publications();

    // oracle_results[version][pub index], filled by the owner right after
    // each publish; readers never touch it, the main thread reads it after
    // both sides joined.
    std::map<std::uint64_t, std::vector<MatchResult>> oracle_results;

    struct Observation {
      std::uint64_t version;
      std::size_t pub;
      MatchResult result;
    };
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> observations{0};
    const int kReaders = 3;
    std::vector<std::vector<Observation>> observed(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(r));
        MatchScratch scratch;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t pi = rng.index(pubs.size());
          Observation obs;
          obs.pub = pi;
          obs.version = table.match_into(pubs[pi], nullptr, obs.result, scratch);
          if (obs.version != 0) {
            observed[r].push_back(std::move(obs));
            observations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // Owner: 200 mutate/publish steps. Each step inserts or removes a
    // subscription in both tables, publishes, and records the oracle's
    // single-threaded answer for every probe under that version.
    Rng rng(seed);
    std::uint64_t next_sub = 0;
    std::vector<SubId> installed;
    for (int step = 0; step < 200; ++step) {
      if (!installed.empty() && rng.chance(0.3)) {
        const std::size_t k = rng.index(installed.size());
        table.remove(installed[k]);
        oracle.remove(installed[k]);
        installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const SubId id{next_sub++};
        const Filter f = symbol_filter(symbols[rng.index(4)]);
        const Hop hop = rng.chance(0.5) ? Hop::to_broker(BrokerId{rng.index(8)})
                                        : Hop::to_client(ClientId{id.value()});
        table.insert(id, f, hop);
        oracle.insert(id, f, hop);
        installed.push_back(id);
      }
      table.publish();
      oracle.publish();
      const std::uint64_t v = table.published_version();
      std::vector<MatchResult> expected(pubs.size());
      for (std::size_t pi = 0; pi < pubs.size(); ++pi) {
        expected[pi] = oracle.match(pubs[pi]);
      }
      oracle_results.emplace(v, std::move(expected));
      // On a single core the owner would otherwise finish every step before
      // a reader ever runs; yield so readers interleave with the churn.
      std::this_thread::yield();
    }
    // The final snapshot stays published, so readers are guaranteed to make
    // progress; collect a floor of observations before stopping them.
    while (observations.load(std::memory_order_relaxed) < 200) {
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();

    std::size_t checked = 0;
    for (const auto& per_reader : observed) {
      for (const Observation& obs : per_reader) {
        const auto it = oracle_results.find(obs.version);
        ASSERT_NE(it, oracle_results.end()) << "unknown snapshot version " << obs.version;
        EXPECT_TRUE(results_equal(obs.result, it->second[obs.pub]))
            << "seed " << seed << " version " << obs.version << " pub " << obs.pub;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u) << "readers never observed a published snapshot";
  }
}

// The published snapshot must return exactly the brute-force
// Filter::matches decision for the same table state, under all four
// combinations of the process-wide fast-path toggles.
TEST(ConcurrentMatching, SnapshotAgreesWithOracleAcrossToggles) {
  struct ToggleGuard {
    bool index = MatchingEngine::index_enabled();
    bool pruning = SubscriptionRoutingTable::adv_pruning_enabled();
    ~ToggleGuard() {
      MatchingEngine::set_index_enabled(index);
      SubscriptionRoutingTable::set_adv_pruning_enabled(pruning);
    }
  } restore;

  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  for (const bool index_on : {true, false}) {
    for (const bool pruning_on : {true, false}) {
      MatchingEngine::set_index_enabled(index_on);
      SubscriptionRoutingTable::set_adv_pruning_enabled(pruning_on);

      SubscriptionRoutingTable table;
      std::vector<Filter> filters;
      Rng rng(42);
      for (std::uint64_t i = 0; i < 64; ++i) {
        std::string f = "[symbol,=,'" + std::string(symbols[rng.index(4)]) + "']";
        if (rng.chance(0.4)) f += ",[volume,>,400000]";
        filters.push_back(parse_filter(f));
        table.insert(SubId{i}, filters.back(), Hop::to_client(ClientId{i}));
      }
      table.register_advertisement(AdvId{0}, symbol_filter("AAA"));
      table.publish();

      MatchScratch scratch;
      for (Publication pub : probe_publications()) {
        pub.set_header(AdvId{0}, 1);  // conforming only for AAA
        MatchResult expected;
        for (std::uint64_t i = 0; i < filters.size(); ++i) {
          if (filters[i].matches(pub)) expected.deliver.emplace_back(SubId{i}, ClientId{i});
        }
        MatchResult got;
        ASSERT_NE(table.match_into(pub, nullptr, got, scratch), 0u);
        EXPECT_TRUE(results_equal(got, expected))
            << "index=" << index_on << " pruning=" << pruning_on;
      }
    }
  }
}

// --- concurrent interner ------------------------------------------------

// Threads intern overlapping string sets concurrently; ids must be
// consistent (same spelling -> same id everywhere) and every id must
// round-trip through spelling().
TEST(InternerTorture, ConcurrentInterningIsConsistent) {
  Interner interner;
  const int kThreads = 4;
  const int kStrings = 200;
  std::vector<std::vector<InternId>> ids(kThreads, std::vector<InternId>(kStrings));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the shared set in a different order, so first
      // sight races on most strings.
      for (int k = 0; k < kStrings; ++k) {
        const int s = (k * 7 + t * 31) % kStrings;
        ids[t][static_cast<std::size_t>(s)] = interner.intern("attr_" + std::to_string(s));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kStrings));
  for (int s = 0; s < kStrings; ++s) {
    const InternId id = ids[0][static_cast<std::size_t>(s)];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][static_cast<std::size_t>(s)], id) << "string " << s;
    }
    EXPECT_EQ(interner.spelling(id), "attr_" + std::to_string(s));
    EXPECT_EQ(interner.find("attr_" + std::to_string(s)), id);
  }
  EXPECT_EQ(interner.find("never_interned"), kNoIntern);
}

}  // namespace
}  // namespace greenps
