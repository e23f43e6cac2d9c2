// End-to-end delivery oracle.
//
// Per-symbol quote streams are deterministic given (seed, symbol), so after
// a simulation run we can regenerate every publication offline and check,
// subscriber by subscriber, that the CBC bit vectors record *exactly* the
// matching publications: no false positives (guaranteed by filter-based
// routing) and no missed deliveries (modulo the in-flight tail at the
// measurement horizon).
#include <gtest/gtest.h>

#include <map>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

struct Oracle {
  // publications per advertisement, indexed by sequence number
  std::map<AdvId, std::vector<Publication>> pubs;
};

Oracle regenerate(const ScenarioConfig& config, const Simulation& sim) {
  Oracle oracle;
  StockQuoteGenerator quotes = make_quote_generator(config);
  for (const auto& p : sim.deployment().publishers) {
    // One publication per sequence number actually emitted.
    const BrokerInfo info = sim.broker_info(p.home);
    MessageSeq last = -1;
    for (const auto& lp : info.publishers) {
      if (lp.profile.adv == p.adv) last = lp.profile.last_seq;
    }
    auto& vec = oracle.pubs[p.adv];
    for (MessageSeq s = 0; s <= last; ++s) {
      Publication pub = quotes.next(p.symbol);
      pub.set_header(p.adv, s);
      vec.push_back(std::move(pub));
    }
  }
  return oracle;
}

// `seq_floor`: per-adv first sequence the current profiles could have seen
// (profiles reset on redeploy, so pre-reconfiguration traffic is excluded
// from the coverage expectation; exactness is still checked on everything).
void check_profiles_against_oracle(const ScenarioConfig& config, const Simulation& sim,
                                   double min_coverage,
                                   const std::map<AdvId, MessageSeq>& seq_floor = {}) {
  const Oracle oracle = regenerate(config, sim);
  std::size_t checked_subs = 0;
  for (const BrokerId b : sim.deployment().topology.brokers()) {
    const BrokerInfo info = sim.broker_info(b);
    for (const auto& s : info.subscriptions) {
      ++checked_subs;
      std::size_t expected = 0;
      std::size_t recorded = 0;
      for (const auto& [adv, pubs] : oracle.pubs) {
        const auto* v = s.profile.vector_for(adv);
        const auto fit = seq_floor.find(adv);
        const MessageSeq floor = fit == seq_floor.end() ? 0 : fit->second;
        for (std::size_t seq = 0; seq < pubs.size(); ++seq) {
          const bool matches = s.filter.matches(pubs[seq]);
          const bool bit = v != nullptr && v->test_seq(static_cast<MessageSeq>(seq));
          if (bit) {
            // Exactness: a set bit MUST correspond to a matching publication.
            ASSERT_TRUE(matches) << "false positive: sub " << s.id.value() << " adv "
                                 << adv.value() << " seq " << seq;
            ++recorded;
          }
          if (matches && static_cast<MessageSeq>(seq) >= floor) ++expected;
        }
      }
      if (expected > 10) {
        EXPECT_GE(static_cast<double>(recorded),
                  min_coverage * static_cast<double>(expected))
            << "sub " << s.id.value() << " missed too many deliveries";
      }
    }
  }
  EXPECT_GT(checked_subs, 0u);
}

TEST(DeliveryOracle, ManualDeploymentDeliversExactlyMatches) {
  ScenarioConfig config;
  config.num_brokers = 16;
  config.num_publishers = 4;
  config.subs_per_publisher = 15;
  config.seed = 31;
  Simulation sim = make_simulation(config);
  sim.run(120.0);
  check_profiles_against_oracle(config, sim, /*min_coverage=*/0.9);
}

TEST(DeliveryOracle, ReconfiguredDeploymentStaysExact) {
  ScenarioConfig config;
  config.num_brokers = 16;
  config.num_publishers = 4;
  config.subs_per_publisher = 15;
  config.full_out_bw_kb_s = 100.0;
  config.seed = 32;
  Simulation sim = make_simulation(config);
  sim.run(90.0);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  // Sequence floors: profiles reset at the redeploy, so coverage is only
  // expected for sequences published afterwards.
  std::map<AdvId, MessageSeq> floors;
  for (const auto& p : sim.deployment().publishers) {
    const BrokerInfo info = sim.broker_info(p.home);
    for (const auto& lp : info.publishers) {
      if (lp.profile.adv == p.adv) floors[p.adv] = lp.profile.last_seq + 1;
    }
  }
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(120.0);
  check_profiles_against_oracle(config, sim, /*min_coverage=*/0.85, floors);
}

TEST(DeliveryOracle, QuoteStreamsAreOrderIndependent) {
  StockQuoteGenerator a(StockQuoteGenerator::Config{}, Rng(5));
  StockQuoteGenerator b(StockQuoteGenerator::Config{}, Rng(5));
  // Interleave differently; per-symbol streams must match exactly.
  std::vector<Publication> a_x, b_x;
  for (int i = 0; i < 10; ++i) {
    a_x.push_back(a.next("XXX"));
    (void)a.next("YYY");
  }
  for (int i = 0; i < 10; ++i) (void)b.next("YYY");
  for (int i = 0; i < 10; ++i) b_x.push_back(b.next("XXX"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a_x[i].to_string(), b_x[i].to_string()) << "quote " << i;
  }
}

}  // namespace
}  // namespace greenps
