// Plan invariants over randomized scenarios (parameterized property sweep):
// whatever the workload and algorithm, an accepted plan must be a connected
// tree of known brokers, place every client, conserve subscriptions, and
// report a consistent migration cost.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

using Param = std::tuple<std::uint64_t /*seed*/, Phase2Algorithm, bool /*heterogeneous*/>;

class PlanInvariants : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanInvariants,
    ::testing::Combine(::testing::Values(1u, 7u, 23u),
                       ::testing::Values(Phase2Algorithm::kFbf, Phase2Algorithm::kBinPacking,
                                         Phase2Algorithm::kCram,
                                         Phase2Algorithm::kPairwiseN),
                       ::testing::Bool()),
    [](const auto& info) {
      // (no structured bindings here: the preprocessor would split the
      // macro argument at the commas inside the brackets)
      const auto seed = std::get<0>(info.param);
      const auto algo = std::get<1>(info.param);
      const bool hetero = std::get<2>(info.param);
      std::string name = "seed" + std::to_string(seed);
      switch (algo) {
        case Phase2Algorithm::kFbf: name += "_FBF"; break;
        case Phase2Algorithm::kBinPacking: name += "_BP"; break;
        case Phase2Algorithm::kCram: name += "_CRAM"; break;
        case Phase2Algorithm::kPairwiseK: name += "_PWK"; break;
        case Phase2Algorithm::kPairwiseN: name += "_PWN"; break;
      }
      return name + (hetero ? "_het" : "_hom");
    });

TEST_P(PlanInvariants, HoldOnRandomScenario) {
  const auto& [seed, algo, hetero] = GetParam();
  ScenarioConfig config;
  config.num_brokers = 20;
  config.num_publishers = 5;
  config.subs_per_publisher = 24;
  config.heterogeneous = hetero;
  config.full_out_bw_kb_s = 80.0;
  config.combined_clients = true;
  config.seed = seed;
  Simulation sim = make_simulation(config);
  sim.run(45.0);

  CrocConfig cfg;
  cfg.algorithm = algo;
  cfg.seed = seed;
  Croc croc(cfg);
  const auto report = croc.reconfigure(sim, BrokerId{seed % config.num_brokers});
  ASSERT_TRUE(report.success);
  const ReconfigurationPlan& plan = report.plan;

  // Tree over known brokers.
  EXPECT_TRUE(plan.overlay.is_tree());
  EXPECT_TRUE(plan.overlay.has_broker(plan.root));
  for (const BrokerId b : plan.overlay.brokers()) {
    EXPECT_TRUE(sim.deployment().capacities.contains(b));
  }

  // Every subscription placed exactly once, on a broker in the overlay.
  std::set<SubId> placed;
  for (const auto& [sub, broker] : plan.subscriber_home) {
    EXPECT_TRUE(plan.overlay.has_broker(broker));
    placed.insert(sub);
  }
  EXPECT_EQ(placed.size(), sim.deployment().subscribers.size());

  // Every publisher placed on a broker in the overlay.
  for (const auto& p : sim.deployment().publishers) {
    const auto it = plan.publisher_home.find(p.client);
    ASSERT_NE(it, plan.publisher_home.end());
    EXPECT_TRUE(plan.overlay.has_broker(it->second));
  }

  // Migration accounting adds up.
  EXPECT_EQ(report.migration.subscribers_total, sim.deployment().subscribers.size());
  EXPECT_EQ(report.migration.publishers_total, sim.deployment().publishers.size());
  EXPECT_LE(report.migration.subscribers_moved, report.migration.subscribers_total);
  EXPECT_EQ(report.migration.brokers_commissioned, 0u);  // pool is fixed
  EXPECT_EQ(report.migration.brokers_decommissioned,
            sim.deployment().topology.broker_count() - plan.overlay.broker_count());

  // Applying the plan yields a runnable deployment.
  ApplyResult applied = apply_plan_transactional(sim.deployment(), plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(45.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
}

TEST(CombinedClients, HalvesRelocateIndependently) {
  ScenarioConfig config;
  config.num_brokers = 16;
  config.num_publishers = 4;
  config.subs_per_publisher = 20;
  config.combined_clients = true;
  config.seed = 9;
  Scenario sc = build_scenario(config);
  ASSERT_EQ(sc.combined_pairs.size(), 4u);
  // Initially co-located.
  for (const auto& [pub_client, sub_id] : sc.combined_pairs) {
    BrokerId pub_home, sub_home;
    for (const auto& p : sc.deployment.publishers) {
      if (p.client == pub_client) pub_home = p.home;
    }
    for (const auto& s : sc.deployment.subscribers) {
      if (s.sub == sub_id) sub_home = s.home;
    }
    EXPECT_EQ(pub_home, sub_home);
  }
  Simulation sim(std::move(sc.deployment), make_quote_generator(config));
  sim.run(60.0);
  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  // Both halves have assignments; they may differ (separated connections).
  for (const auto& [pub_client, sub_id] : sc.combined_pairs) {
    EXPECT_TRUE(report.plan.publisher_home.contains(pub_client));
    EXPECT_TRUE(report.plan.subscriber_home.contains(sub_id));
  }
}

}  // namespace
}  // namespace greenps
