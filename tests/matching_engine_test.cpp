#include "matching/matching_engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "language/parser.hpp"
#include "match_test_util.hpp"
#include "workload/stock_quote.hpp"
#include "workload/subscription_gen.hpp"

namespace greenps {
namespace {

using testutil::snapshot_match;

Publication yhoo_pub(double low = 18.37, std::int64_t volume = 6200) {
  Publication p(AdvId{1}, 1);
  p.set_attr("class", Value(std::string("STOCK")));
  p.set_attr("symbol", Value(std::string("YHOO")));
  p.set_attr("low", Value(low));
  p.set_attr("volume", Value(volume));
  return p;
}

TEST(MatchingEngine, MatchesInsertedFilters) {
  MatchingEngine eng;
  eng.insert(1, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO']"));
  eng.insert(2, parse_filter("[class,=,'STOCK'],[symbol,=,'GOOG']"));
  eng.insert(3, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO'],[volume,>,10000]"));
  const auto result = snapshot_match(eng, yhoo_pub());
  EXPECT_EQ(result, (std::vector<MatchingEngine::Handle>{1}));
}

TEST(MatchingEngine, RemoveStopsMatching) {
  MatchingEngine eng;
  eng.insert(1, parse_filter("[symbol,=,'YHOO']"));
  EXPECT_EQ(snapshot_match(eng, yhoo_pub()).size(), 1u);
  eng.remove(1);
  EXPECT_TRUE(snapshot_match(eng, yhoo_pub()).empty());
  EXPECT_EQ(eng.size(), 0u);
  eng.remove(1);  // idempotent
}

TEST(MatchingEngine, FiltersWithoutEqualityGoToScanList) {
  MatchingEngine eng;
  eng.insert(7, parse_filter("[volume,>,1000]"));
  EXPECT_EQ(snapshot_match(eng, yhoo_pub()).size(), 1u);
  eng.remove(7);
  EXPECT_TRUE(snapshot_match(eng, yhoo_pub()).empty());
}

TEST(MatchingEngine, NoDuplicateResults) {
  MatchingEngine eng;
  // Two equality predicates could bucket under either attribute; the result
  // must still contain the handle exactly once.
  eng.insert(5, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO']"));
  const auto result = snapshot_match(eng, yhoo_pub());
  EXPECT_EQ(result.size(), 1u);
}

TEST(MatchingEngine, FindReturnsStoredFilter) {
  MatchingEngine eng;
  const Filter f = parse_filter("[symbol,=,'YHOO']");
  eng.insert(9, f);
  ASSERT_NE(eng.find(9), nullptr);
  EXPECT_EQ(*eng.find(9), f);
  EXPECT_EQ(eng.find(10), nullptr);
}

// Property: on a realistic workload the engine returns exactly the same set
// of handles as brute-force evaluation of every filter.
TEST(MatchingEngineProperty, AgreesWithBruteForce) {
  Rng rng(2024);
  StockQuoteGenerator quotes(StockQuoteGenerator::Config{}, rng.fork());
  SubscriptionGenerator subs(SubscriptionGenerator::Config{}, rng.fork());
  const std::string symbols[] = {"YHOO", "GOOG", "IBM", "MSFT"};

  MatchingEngine eng;
  std::vector<std::pair<MatchingEngine::Handle, Filter>> all;
  MatchingEngine::Handle next = 1;
  for (const auto& sym : symbols) {
    for (const Filter& f : subs.batch(sym, 50, quotes)) {
      all.emplace_back(next, f);
      eng.insert(next, f);
      ++next;
    }
  }
  ASSERT_EQ(eng.size(), 200u);

  for (int round = 0; round < 60; ++round) {
    const Publication pub = quotes.next(symbols[round % 4]);
    const auto got = snapshot_match(eng, pub);
    std::vector<MatchingEngine::Handle> expected;
    for (const auto& [h, f] : all) {
      if (f.matches(pub)) expected.push_back(h);
    }
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace greenps
