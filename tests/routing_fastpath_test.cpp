// The publication-routing fast path: compiled filters, the typed matching
// indexes, and advertisement-scoped candidate pruning must all be invisible
// to observable behavior. These tests pit each layer against a naive oracle
// on randomized inputs and assert the end-to-end simulation is bit-identical
// with the fast path disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/routing_tables.hpp"
#include "common/rng.hpp"
#include "matching/compiled_filter.hpp"
#include "matching/matching_engine.hpp"
#include "matching/relations.hpp"
#include "match_test_util.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"

namespace greenps {
namespace {

// Restore the process-wide fast-path toggles even if a test fails.
struct ToggleGuard {
  bool index = MatchingEngine::index_enabled();
  bool pruning = SubscriptionRoutingTable::adv_pruning_enabled();
  ~ToggleGuard() {
    MatchingEngine::set_index_enabled(index);
    SubscriptionRoutingTable::set_adv_pruning_enabled(pruning);
  }
};

const char* const kAttrs[] = {"class", "symbol", "low", "volume", "flag", "note"};
const char* const kStrings[] = {"STOCK", "YHOO", "GOOG", "IBM", "abc", ""};

Value random_value(Rng& rng) {
  switch (rng.index(6)) {
    case 0: return Value(rng.uniform_int(-3, 3));
    case 1: return Value(rng.uniform_real(-2.0, 2.0));
    case 2: return Value(rng.chance(0.5) ? 0.0 : -0.0);  // canonical-zero edge
    case 3: return Value(std::string(kStrings[rng.index(6)]));
    case 4: return Value(rng.chance(0.5));
    default: return Value(static_cast<double>(rng.uniform_int(-3, 3)));  // int/real alias
  }
}

Filter random_filter(Rng& rng) {
  static const Op kOps[] = {Op::kEq,     Op::kNeq,    Op::kLt,       Op::kLe,     Op::kGt,
                            Op::kGe,     Op::kPrefix, Op::kSuffix,   Op::kContains,
                            Op::kPresent};
  Filter f;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    Predicate p;
    p.attribute = kAttrs[rng.index(6)];
    p.op = kOps[rng.index(10)];
    p.value = random_value(rng);
    f.add(std::move(p));
  }
  return f;
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const std::size_t n = 1 + rng.index(6);
  for (std::size_t i = 0; i < n; ++i) {
    pub.set_attr(kAttrs[rng.index(6)], random_value(rng));
  }
  return pub;
}

// 1,500 randomized cases: the compiled form must agree with Filter::matches
// exactly, including mixed-kind comparisons, canonical zeros and the slow
// string/negation operators.
TEST(CompiledFilter, AgreesWithFilterMatchesOnRandomInputs) {
  Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const Filter f = random_filter(rng);
    const CompiledFilter cf(f);
    const Publication pub = random_publication(rng);
    EXPECT_EQ(cf.matches(pub), f.matches(pub))
        << "case " << i << ": " << f.to_string() << " vs " << pub.to_string();
  }
}

// Differential test of the typed-index engine against a scan-all oracle on
// 1,200 random publications over 300 random filters, with removals mixed in.
TEST(MatchingEngineProperty, TypedIndexAgreesWithScanAllOracle) {
  ToggleGuard guard;
  Rng rng(2025);
  MatchingEngine eng;
  std::vector<std::pair<MatchingEngine::Handle, Filter>> oracle;
  for (MatchingEngine::Handle h = 1; h <= 300; ++h) {
    const Filter f = random_filter(rng);
    eng.insert(h, f);
    oracle.emplace_back(h, f);
  }
  // Remove a random slice so index maintenance is exercised too.
  for (int i = 0; i < 50; ++i) {
    const auto k = rng.index(oracle.size());
    eng.remove(oracle[k].first);
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(k));
  }

  for (int round = 0; round < 1200; ++round) {
    const Publication pub = random_publication(rng);
    std::vector<MatchingEngine::Handle> expected;
    for (const auto& [h, f] : oracle) {
      if (f.matches(pub)) expected.push_back(h);
    }

    MatchingEngine::set_index_enabled(true);
    EXPECT_EQ(testutil::snapshot_match(eng, pub), expected) << "round " << round << ": " << pub.to_string();

    MatchingEngine::set_index_enabled(false);
    EXPECT_EQ(testutil::snapshot_match(eng, pub), expected) << "round " << round << " (index disabled)";
  }
}

Filter symbol_filter(const std::string& symbol) {
  Filter f;
  f.add(Predicate{"class", Op::kEq, Value(std::string("STOCK"))});
  f.add(Predicate{"symbol", Op::kEq, Value(symbol)});
  return f;
}

// Advertisement-scoped pruning must return exactly the unpruned decision for
// every publication — conforming, non-conforming, and unknown-advertisement.
TEST(SubscriptionRoutingTable, AdvScopedPruningMatchesUnprunedDecision) {
  ToggleGuard guard;
  Rng rng(11);
  const std::string symbols[] = {"YHOO", "GOOG", "IBM"};

  SubscriptionRoutingTable srt;
  // Advertisements registered first (as install_routing does), then
  // subscriptions stream in and scopes update incrementally.
  for (std::size_t i = 0; i < 3; ++i) {
    srt.register_advertisement(AdvId{i + 1}, symbol_filter(symbols[i]));
  }
  std::uint64_t next = 1;
  for (int i = 0; i < 150; ++i) {
    Filter f = symbol_filter(symbols[rng.index(3)]);
    if (rng.chance(0.5)) {
      f.add(Predicate{"low", rng.chance(0.5) ? Op::kGt : Op::kLe,
                      Value(rng.uniform_real(-2.0, 2.0))});
    }
    const Hop hop = rng.chance(0.5) ? Hop::to_client(ClientId{next})
                                    : Hop::to_broker(BrokerId{rng.index(5)});
    srt.insert(SubId{next}, f, hop);
    ++next;
  }
  // A few free-form subscriptions that intersect no advertisement cleanly.
  for (int i = 0; i < 20; ++i) {
    srt.insert(SubId{next}, random_filter(rng), Hop::to_client(ClientId{next}));
    ++next;
  }
  srt.publish();

  for (int round = 0; round < 400; ++round) {
    Publication pub;
    const std::size_t sym = rng.index(3);
    if (rng.chance(0.8)) {
      pub.set_attr("class", Value(std::string("STOCK")));
      pub.set_attr("symbol", Value(std::string(symbols[sym])));
      pub.set_attr("low", Value(rng.uniform_real(-2.0, 2.0)));
    } else {
      pub = random_publication(rng);  // usually non-conforming
    }
    // Known advertisement, unknown advertisement, or no header at all.
    if (rng.chance(0.8)) {
      pub.set_header(AdvId{sym + 1}, 1);
    } else if (rng.chance(0.5)) {
      pub.set_header(AdvId{99}, 1);
    }
    const BrokerId excl{1};
    const BrokerId* exclude = rng.chance(0.5) ? &excl : nullptr;

    SubscriptionRoutingTable::set_adv_pruning_enabled(true);
    const auto pruned = srt.match(pub, exclude);
    SubscriptionRoutingTable::set_adv_pruning_enabled(false);
    const auto full = srt.match(pub, exclude);
    EXPECT_EQ(pruned.forward_to, full.forward_to) << "round " << round;
    EXPECT_EQ(pruned.deliver, full.deliver) << "round " << round;
  }
}

// The pruned fast path must evaluate strictly fewer candidates than a
// brute-force scan, and the walk counter must account for both.
TEST(SubscriptionRoutingTable, PruningReducesMatchWalks) {
  ToggleGuard guard;
  SubscriptionRoutingTable srt;
  srt.register_advertisement(AdvId{1}, symbol_filter("YHOO"));
  const std::string symbols[] = {"YHOO", "GOOG", "IBM", "MSFT"};
  for (std::uint64_t i = 0; i < 200; ++i) {
    srt.insert(SubId{i + 1}, symbol_filter(symbols[i % 4]), Hop::to_client(ClientId{i + 1}));
  }
  Publication pub;
  pub.set_attr("class", Value(std::string("STOCK")));
  pub.set_attr("symbol", Value(std::string("YHOO")));
  pub.set_header(AdvId{1}, 1);
  srt.publish();

  SubscriptionRoutingTable::set_adv_pruning_enabled(true);
  MatchingEngine::reset_match_walks();
  const auto pruned = srt.match(pub);
  const std::size_t pruned_walks = MatchingEngine::match_walks();

  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  MatchingEngine::set_index_enabled(false);
  MatchingEngine::reset_match_walks();
  const auto brute = srt.match(pub);
  const std::size_t brute_walks = MatchingEngine::match_walks();

  EXPECT_EQ(pruned.deliver, brute.deliver);
  EXPECT_EQ(pruned.deliver.size(), 50u);
  EXPECT_EQ(pruned_walks, 50u);   // exactly the YHOO scope
  EXPECT_EQ(brute_walks, 200u);   // every live filter
}

// A YHOO quote filter matching publications with `low` below `bound`.
Filter low_below(double bound) {
  Filter f = symbol_filter("YHOO");
  f.add(Predicate{"low", Op::kLt, Value(bound)});
  return f;
}

Publication yhoo_quote(double low) {
  Publication pub;
  pub.set_attr("class", Value(std::string("STOCK")));
  pub.set_attr("symbol", Value(std::string("YHOO")));
  pub.set_attr("low", Value(low));
  pub.set_header(AdvId{1}, 1);
  return pub;
}

// The scoped path groups candidates by next hop: every local subscriber is
// matched, a neighbor's group stops at its first matching filter, and the
// arrival link's group is never walked. With the quote at low = 5, the
// filters low_below(9) match and low_below(1) do not.
TEST(SubscriptionRoutingTable, HopGroupsDecideEachNeighbourOnce) {
  ToggleGuard guard;
  SubscriptionRoutingTable::set_adv_pruning_enabled(true);
  MatchingEngine::set_index_enabled(true);
  using Result = SubscriptionRoutingTable::MatchResult;
  const auto walked = [](const SubscriptionRoutingTable& srt, const Publication& pub,
                         const BrokerId* exclude, Result& out) {
    MatchingEngine::reset_match_walks();
    out = srt.match(pub, exclude);
    return MatchingEngine::match_walks();
  };
  Filter adv = symbol_filter("YHOO");
  adv.add(Predicate{"low", Op::kGe, Value(0.0)});
  SubscriptionRoutingTable srt;
  srt.register_advertisement(AdvId{1}, adv);
  const Filter hit = low_below(9.0);
  const Filter miss = low_below(1.0);
  const auto client = [](std::uint64_t id) { return Hop::to_client(ClientId{id}); };
  const auto broker = [](std::uint64_t id) { return Hop::to_broker(BrokerId{id}); };
  // Locals 1 (hit), 2 (miss), 3 (hit).
  srt.insert(SubId{1}, hit, client(1));
  srt.insert(SubId{2}, miss, client(2));
  srt.insert(SubId{3}, hit, client(3));
  // Neighbor 10: decided only by its last filter.
  srt.insert(SubId{10}, miss, broker(10));
  srt.insert(SubId{11}, miss, broker(10));
  srt.insert(SubId{12}, hit, broker(10));
  // Neighbor 20: no match, so the whole group is walked.
  srt.insert(SubId{20}, miss, broker(20));
  srt.insert(SubId{21}, miss, broker(20));
  // Neighbor 30: decided by its first filter, unless it is the arrival link.
  srt.insert(SubId{30}, hit, broker(30));
  srt.insert(SubId{31}, hit, broker(30));
  // Neighbor 40: handles interleaved with the other hops'.
  srt.insert(SubId{5}, hit, broker(40));
  srt.insert(SubId{13}, hit, broker(40));
  // Outside the scope (another symbol): never a candidate.
  srt.insert(SubId{50}, symbol_filter("GOOG"), broker(20));
  srt.insert(SubId{51}, symbol_filter("GOOG"), client(51));
  srt.publish();

  const Publication pub = yhoo_quote(5.0);
  const BrokerId arrival{30};
  Result got;
  EXPECT_EQ(walked(srt, pub, nullptr, got), 3u + 3u + 2u + 1u + 1u);
  EXPECT_EQ(got.forward_to, (std::vector<BrokerId>{BrokerId{10}, BrokerId{30}, BrokerId{40}}));
  EXPECT_EQ(got.deliver, (std::vector<std::pair<SubId, ClientId>>{{SubId{1}, ClientId{1}},
                                                                   {SubId{3}, ClientId{3}}}));
  EXPECT_EQ(walked(srt, pub, &arrival, got), 3u + 3u + 2u + 0u + 1u);
  EXPECT_EQ(got.forward_to, (std::vector<BrokerId>{BrokerId{10}, BrokerId{40}}));

  // Flip hops across a publish: 12 (neighbor 10's only hit) becomes a local
  // subscriber, and local 1 moves to neighbor 20, where it is now the first
  // candidate. The old snapshot serves until publish() regroups.
  srt.insert(SubId{12}, hit, client(12));
  srt.insert(SubId{1}, hit, broker(20));
  EXPECT_EQ(walked(srt, pub, &arrival, got), 9u);
  EXPECT_EQ(got.forward_to, (std::vector<BrokerId>{BrokerId{10}, BrokerId{40}}));
  srt.publish();
  EXPECT_EQ(walked(srt, pub, &arrival, got), 3u + 2u + 1u + 0u + 1u);
  EXPECT_EQ(got.forward_to, (std::vector<BrokerId>{BrokerId{20}, BrokerId{40}}));
  EXPECT_EQ(got.deliver, (std::vector<std::pair<SubId, ClientId>>{{SubId{3}, ClientId{3}},
                                                                   {SubId{12}, ClientId{12}}}));
  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  Result full;
  (void)walked(srt, pub, &arrival, full);
  EXPECT_EQ(got.forward_to, full.forward_to);
  EXPECT_EQ(got.deliver, full.deliver);
  SubscriptionRoutingTable::set_adv_pruning_enabled(true);

  // A non-conforming quote (low < 0 breaks the advertisement) takes the
  // flat path, which matches every filter of every hop: the same decision
  // as with pruning off, and every hit neighbor but the arrival link.
  const Publication odd = yhoo_quote(-1.0);
  ASSERT_FALSE(adv.matches(odd));
  EXPECT_GT(walked(srt, odd, &arrival, got), 0u);
  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  (void)walked(srt, odd, &arrival, full);
  EXPECT_EQ(got.forward_to, full.forward_to);
  EXPECT_EQ(got.deliver, full.deliver);
  EXPECT_EQ(got.forward_to, (std::vector<BrokerId>{BrokerId{10}, BrokerId{20}, BrokerId{40}}));
  EXPECT_EQ(got.deliver.size(), 3u);  // locals 2, 3 and 12; 51 is GOOG
}

// ---- scope index ----------------------------------------------------------

// Equality values from a tiny domain so keys collide often: ints and doubles
// sharing a key, two strings, bools, and NaN.
Value eq_value(Rng& rng) {
  switch (rng.index(9)) {
    case 0:
    case 1: return Value(rng.uniform_int(0, 2));
    case 2:
    case 3: return Value(static_cast<double>(rng.uniform_int(0, 2)));
    case 4: return Value(std::numeric_limits<double>::quiet_NaN());
    case 5:
    case 6: return Value(std::string(rng.chance(0.5) ? "A" : "B"));
    default: return Value(rng.chance(0.5));
  }
}

const char* const kScopeAttrs[] = {"class", "symbol", "low"};

// Mostly equality predicates over three attributes; sometimes none at all,
// sometimes two on one attribute, sometimes a numeric range. `pin` adds a
// leading [class,=,...] so every filter of a mix constrains `class` (the
// index's narrowed path); without it the index falls back to a full scan.
Filter scope_mix_filter(Rng& rng, bool pin) {
  Filter f;
  if (pin) f.add(Predicate{"class", Op::kEq, eq_value(rng)});
  const std::size_t n = rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const char* attr = kScopeAttrs[rng.index(3)];
    if (rng.chance(0.75)) {
      f.add(Predicate{attr, Op::kEq, eq_value(rng)});
    } else {
      f.add(Predicate{attr, rng.chance(0.5) ? Op::kGe : Op::kLt,
                      Value(static_cast<double>(rng.uniform_int(0, 2)))});
    }
  }
  if (!f.empty() && rng.chance(0.15)) {
    // Second equality predicate on the attribute of the first.
    f.add(Predicate{f.predicates().front().attribute, Op::kEq, eq_value(rng)});
  }
  return f;
}

// Brute-force candidate test on the source filters (attribute strings, not
// interned ids): the scope index must reproduce exactly this relation.
bool oracle_eq_disjoint(const Filter& a, const Filter& b) {
  for (const Predicate& pa : a.predicates()) {
    if (pa.op != Op::kEq) continue;
    for (const Predicate& pb : b.predicates()) {
      if (pb.op == Op::kEq && pa.attribute == pb.attribute &&
          !(value_key(pa.value) == value_key(pb.value))) {
        return true;
      }
    }
  }
  return false;
}

// A publication satisfying the filter's equality and range predicates where
// it can (two different pinned values cannot both hold), plus noise.
Publication publication_near(Rng& rng, const Filter& f) {
  Publication pub;
  for (const Predicate& p : f.predicates()) {
    if (p.op == Op::kEq) {
      pub.set_attr(p.attribute, p.value);
    } else if (p.op == Op::kGe) {
      pub.set_attr(p.attribute, Value(p.value.as_double() + rng.uniform_real(0.0, 1.0)));
    } else if (p.op == Op::kLt) {
      pub.set_attr(p.attribute, Value(p.value.as_double() - rng.uniform_real(0.0, 1.0)));
    }
  }
  if (rng.chance(0.3)) pub.set_attr(kScopeAttrs[rng.index(3)], eq_value(rng));
  return pub;
}

// 1,200 random mixes of advertisements and subscriptions. Each scope's
// candidate set must equal a brute-force eq_disjoint scan over the live
// subscriptions: a conforming publication walks every local candidate and
// each non-excluded neighbor's candidates up to its first match, and every
// path returns the brute-force match set. Mixes cover
// filters without equality predicates, two equality predicates on one
// attribute, int/double key aliases and NaN, advertisements registered
// before and after their subscriptions (and re-registered), and remove
// followed by re-insert. Checked through the published snapshot.
TEST(SubscriptionRoutingTable, ScopeIndexMatchesBruteForceCandidateScan) {
  ToggleGuard guard;
  SubscriptionRoutingTable::set_adv_pruning_enabled(true);
  MatchingEngine::set_index_enabled(true);
  Rng rng(1611);
  std::size_t pruned_checks = 0;
  for (int mix = 0; mix < 1200; ++mix) {
    const bool pin = rng.chance(0.5);
    SubscriptionRoutingTable srt;
    std::map<std::uint64_t, Filter> advs;
    std::map<std::uint64_t, std::pair<Filter, Hop>> subs;
    const std::size_t num_advs = 1 + rng.index(5);
    const std::size_t before = rng.index(num_advs + 1);
    auto register_adv = [&](std::uint64_t id) {
      const Filter f = scope_mix_filter(rng, pin);
      srt.register_advertisement(AdvId{id}, f);
      advs[id] = f;
    };
    auto insert_sub = [&](std::uint64_t id) {
      const Filter f = scope_mix_filter(rng, pin);
      const Hop hop = rng.chance(0.5) ? Hop::to_client(ClientId{id})
                                      : Hop::to_broker(BrokerId{rng.index(4)});
      srt.insert(SubId{id}, f, hop);
      subs[id] = {f, hop};
    };
    for (std::uint64_t a = 0; a < before; ++a) register_adv(a);
    const std::uint64_t num_subs = 4 + rng.index(20);
    for (std::uint64_t s = 0; s < num_subs; ++s) insert_sub(s);
    for (std::uint64_t a = before; a < num_advs; ++a) register_adv(a);
    if (rng.chance(0.5)) {
      // Re-register a scope, half the time under its old filter.
      const std::uint64_t a = rng.index(num_advs);
      if (rng.chance(0.5)) {
        srt.register_advertisement(AdvId{a}, advs.at(a));
      } else {
        register_adv(a);
      }
    }
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t s = rng.index(num_subs);
      srt.remove(SubId{s});
      subs.erase(s);
      if (rng.chance(0.6)) insert_sub(s);  // re-insert, usually a new filter
    }
    if (rng.chance(0.3)) insert_sub(rng.index(num_subs));  // replace in place

    srt.publish();
    for (int round = 0; round < 12; ++round) {
      const std::uint64_t adv = rng.index(num_advs);
      Publication pub = publication_near(rng, advs.at(adv));
      if (rng.chance(0.9)) pub.set_header(AdvId{adv}, 1);
      const BrokerId excl{rng.index(4)};
      const BrokerId* exclude = rng.chance(0.3) ? &excl : nullptr;

      SubscriptionRoutingTable::MatchResult expected;
      // Scoped walks: every local candidate, plus, per non-excluded
      // neighbor, its candidates in ascending SubId order up to and
      // including the first match.
      std::size_t scoped_walks = 0;
      std::map<BrokerId, bool> decided;
      for (const auto& [id, entry] : subs) {
        const Hop& hop = entry.second;
        if (oracle_eq_disjoint(advs.at(adv), entry.first)) continue;
        if (hop.kind == Hop::Kind::kClient) {
          ++scoped_walks;
        } else if ((exclude == nullptr || hop.broker != *exclude) && !decided[hop.broker]) {
          ++scoped_walks;
          decided[hop.broker] = entry.first.matches(pub);
        }
      }
      for (const auto& [id, entry] : subs) {
        if (!entry.first.matches(pub)) continue;
        const Hop& hop = entry.second;
        if (hop.kind == Hop::Kind::kClient) {
          expected.deliver.emplace_back(SubId{id}, hop.client);
        } else if (exclude == nullptr || hop.broker != *exclude) {
          expected.forward_to.push_back(hop.broker);
        }
      }
      std::sort(expected.forward_to.begin(), expected.forward_to.end());
      expected.forward_to.erase(
          std::unique(expected.forward_to.begin(), expected.forward_to.end()),
          expected.forward_to.end());
      std::sort(expected.deliver.begin(), expected.deliver.end());

      MatchingEngine::reset_match_walks();
      const auto got = srt.match(pub, exclude);
      const std::size_t walks = MatchingEngine::match_walks();
      EXPECT_EQ(got.deliver, expected.deliver) << "mix " << mix;
      EXPECT_EQ(got.forward_to, expected.forward_to) << "mix " << mix;
      if (pub.adv_id().valid() && advs.at(adv).matches(pub)) {
        EXPECT_EQ(walks, scoped_walks) << "mix " << mix << ": "
                                     << advs.at(adv).to_string() << " / " << pub.to_string();
        ++pruned_checks;
      }
    }
  }
  EXPECT_GT(pruned_checks, 2000u);  // the scoped path really ran
}

// The install pre-filter never rules out a pair intersects() accepts.
TEST(Relations, MayIntersectIsNecessaryForIntersects) {
  Rng rng(5);
  std::size_t ruled_out = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool pin = rng.chance(0.5);
    const Filter a = scope_mix_filter(rng, pin);
    const Filter b = scope_mix_filter(rng, pin);
    if (may_intersect(CompiledFilter(a), CompiledFilter(b))) continue;
    ++ruled_out;
    EXPECT_FALSE(intersects(a, b)) << a.to_string() << " / " << b.to_string();
  }
  EXPECT_GT(ruled_out, 1000u);
}

// ---- routing install ------------------------------------------------------

// install_routing walks each subscription along the flood's BFS trees and
// installs each (broker, subscription) pair once. On random trees every
// broker's SRT must equal a reference built the old way: Topology::path
// plus intersects() per (subscription, advertisement) pair, re-inserting on
// shared path prefixes. Symbols are shared between publishers, so one
// subscription often intersects several advertisements.
TEST(InstallRouting, MatchesPerPairPathReference) {
  ToggleGuard guard;
  const std::string symbols[] = {"A", "B", "C"};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    Deployment dep;
    const std::size_t n = 1 + rng.index(30);
    for (std::uint64_t b = 0; b < n; ++b) {
      dep.topology.add_broker(BrokerId{b});
      if (b > 0) dep.topology.add_link(BrokerId{b}, BrokerId{rng.index(b)});
    }
    const std::size_t num_pubs = 1 + rng.index(6);
    for (std::size_t p = 0; p < num_pubs; ++p) {
      PublisherSpec spec;
      spec.client = ClientId{1000 + p};
      spec.adv = AdvId{p};
      spec.symbol = symbols[rng.index(3)];
      spec.home = BrokerId{rng.index(n)};
      spec.adv_filter = symbol_filter(spec.symbol);
      if (rng.chance(0.3)) spec.adv_filter.add(Predicate{"low", Op::kGt, Value(0.0)});
      dep.publishers.push_back(std::move(spec));
    }
    const std::size_t num_subs = 1 + rng.index(60);
    for (std::uint64_t s = 0; s < num_subs; ++s) {
      SubscriberSpec spec;
      spec.client = ClientId{s};
      spec.sub = SubId{s};
      spec.home = BrokerId{rng.index(n)};
      if (rng.chance(0.2)) {
        spec.filter = scope_mix_filter(rng, false);
      } else {
        spec.filter.add(Predicate{"class", Op::kEq, Value(std::string("STOCK"))});
        if (rng.chance(0.8)) {
          spec.filter.add(Predicate{"symbol", Op::kEq, Value(symbols[rng.index(3)])});
        }
        if (rng.chance(0.5)) {
          spec.filter.add(Predicate{"low", Op::kLt, Value(rng.uniform_real(-2.0, 2.0))});
        }
      }
      dep.subscribers.push_back(std::move(spec));
    }

    std::unordered_map<BrokerId, SubscriptionRoutingTable> ref;
    for (const PublisherSpec& pub : dep.publishers) {
      for (const BrokerId b : dep.topology.brokers()) {
        ref[b].register_advertisement(pub.adv, pub.adv_filter);
      }
    }
    for (const SubscriberSpec& sub : dep.subscribers) {
      ref[sub.home].insert(sub.sub, sub.filter, Hop::to_client(sub.client));
      for (const PublisherSpec& pub : dep.publishers) {
        if (!intersects(pub.adv_filter, sub.filter)) continue;
        const auto path = dep.topology.path(sub.home, pub.home);
        ASSERT_TRUE(path.has_value());
        for (std::size_t i = 1; i < path->size(); ++i) {
          ref[(*path)[i]].insert(sub.sub, sub.filter, Hop::to_broker((*path)[i - 1]));
        }
      }
    }
    for (auto& [b, table] : ref) table.publish();

    const Topology topology = dep.topology;
    const std::vector<SubscriberSpec> subscribers = dep.subscribers;
    Simulation sim(std::move(dep), StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)),
                   NetworkConfig{}, SimOptions{});
    for (const BrokerId b : topology.brokers()) {
      const SubscriptionRoutingTable& got = sim.broker(b).srt();
      const SubscriptionRoutingTable& want = ref[b];
      ASSERT_EQ(got.filter_count(), want.filter_count()) << "seed " << seed << " broker " << b.value();
      for (const SubscriberSpec& sub : subscribers) {
        EXPECT_EQ(got.contains(sub.sub), want.contains(sub.sub)) << "seed " << seed;
      }
    }
    for (int round = 0; round < 30; ++round) {
      Publication pub;
      pub.set_attr("class", Value(std::string("STOCK")));
      pub.set_attr("symbol", Value(symbols[rng.index(3)]));
      pub.set_attr("low", Value(rng.uniform_real(-2.0, 2.0)));
      if (rng.chance(0.8)) pub.set_header(AdvId{rng.index(num_pubs)}, 1);
      const bool pruning = rng.chance(0.8);
      for (const BrokerId b : topology.brokers()) {
        const auto& nbrs = topology.neighbors(b);
        const BrokerId* exclude =
            !nbrs.empty() && rng.chance(0.5) ? &nbrs[rng.index(nbrs.size())] : nullptr;
        SubscriptionRoutingTable::set_adv_pruning_enabled(pruning);
        MatchingEngine::reset_match_walks();
        const auto got = sim.broker(b).srt().match(pub, exclude);
        const std::size_t got_walks = MatchingEngine::match_walks();
        MatchingEngine::reset_match_walks();
        const auto want = ref[b].match(pub, exclude);
        const std::size_t want_walks = MatchingEngine::match_walks();
        EXPECT_EQ(got.deliver, want.deliver) << "seed " << seed << " broker " << b.value();
        EXPECT_EQ(got.forward_to, want.forward_to) << "seed " << seed << " broker " << b.value();
        EXPECT_EQ(got_walks, want_walks) << "seed " << seed << " broker " << b.value();
      }
    }
  }
}

// End-to-end determinism: a full simulation must produce a bit-identical
// summary with the fast path (typed indexes + pruning) on and off.
TEST(SimulationDeterminism, FastPathTogglesPreserveSummaryBitForBit) {
  ToggleGuard guard;
  ScenarioConfig cfg;
  cfg.num_brokers = 12;
  cfg.num_publishers = 4;
  cfg.subs_per_publisher = 8;
  cfg.full_out_bw_kb_s = 30.0;
  cfg.seed = 42;

  const auto run = [&cfg](bool fast) {
    MatchingEngine::set_index_enabled(fast);
    SubscriptionRoutingTable::set_adv_pruning_enabled(fast);
    Simulation sim = make_simulation(cfg);
    sim.run(5.0);
    sim.reset_metrics();
    sim.run(10.0);
    return sim.summarize();
  };
  const SimSummary fast = run(true);
  const SimSummary slow = run(false);

  EXPECT_EQ(fast.publications, slow.publications);
  EXPECT_EQ(fast.deliveries, slow.deliveries);
  EXPECT_EQ(fast.broker_msgs_total, slow.broker_msgs_total);
  EXPECT_EQ(fast.brokers_with_traffic, slow.brokers_with_traffic);
  EXPECT_EQ(fast.pure_forwarding_brokers, slow.pure_forwarding_brokers);
  // Doubles compared exactly: the fast path must not perturb a single event.
  EXPECT_EQ(fast.avg_hop_count, slow.avg_hop_count);
  EXPECT_EQ(fast.avg_delivery_delay_ms, slow.avg_delivery_delay_ms);
  EXPECT_EQ(fast.p50_delivery_delay_ms, slow.p50_delivery_delay_ms);
  EXPECT_EQ(fast.p99_delivery_delay_ms, slow.p99_delivery_delay_ms);
  EXPECT_EQ(fast.system_msg_rate, slow.system_msg_rate);
  EXPECT_EQ(fast.avg_broker_msg_rate, slow.avg_broker_msg_rate);
  EXPECT_EQ(fast.avg_output_utilization, slow.avg_output_utilization);
  EXPECT_GT(fast.deliveries, 0u);
}

}  // namespace
}  // namespace greenps
