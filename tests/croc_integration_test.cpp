// End-to-end integration: deploy MANUAL, profile, run CROC with each
// Phase-2 algorithm, apply the plan, and verify the reconfigured system is
// valid and greener.
#include <gtest/gtest.h>

#include "croc/croc.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

ScenarioConfig test_config() {
  ScenarioConfig c;
  c.num_brokers = 24;
  c.num_publishers = 6;
  c.subs_per_publisher = 20;
  c.full_out_bw_kb_s = 120.0;
  c.seed = 11;
  return c;
}

class CrocAlgorithmTest : public ::testing::TestWithParam<Phase2Algorithm> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CrocAlgorithmTest,
                         ::testing::Values(Phase2Algorithm::kFbf,
                                           Phase2Algorithm::kBinPacking,
                                           Phase2Algorithm::kCram,
                                           Phase2Algorithm::kPairwiseK,
                                           Phase2Algorithm::kPairwiseN),
                         [](const auto& info) {
                           switch (info.param) {
                             case Phase2Algorithm::kFbf: return "FBF";
                             case Phase2Algorithm::kBinPacking: return "BINPACKING";
                             case Phase2Algorithm::kCram: return "CRAM";
                             case Phase2Algorithm::kPairwiseK: return "PAIRWISEK";
                             case Phase2Algorithm::kPairwiseN: return "PAIRWISEN";
                           }
                           return "UNKNOWN";
                         });

TEST_P(CrocAlgorithmTest, ReconfiguredSystemIsValidAndDeliners) {
  Simulation sim = make_simulation(test_config());
  sim.run(60.0);  // profiling window
  const auto before = sim.summarize();
  ASSERT_GT(before.deliveries, 0u);

  CrocConfig cfg;
  cfg.algorithm = GetParam();
  Croc croc(cfg);
  const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success) << algorithm_name(GetParam());
  EXPECT_TRUE(report.plan.overlay.is_tree());
  EXPECT_TRUE(report.plan.overlay.has_broker(report.plan.root));
  // Every subscriber and publisher has a valid home in the new overlay.
  for (const auto& s : sim.deployment().subscribers) {
    const auto it = report.plan.subscriber_home.find(s.sub);
    ASSERT_NE(it, report.plan.subscriber_home.end());
    EXPECT_TRUE(report.plan.overlay.has_broker(it->second));
  }
  for (const auto& p : sim.deployment().publishers) {
    const auto it = report.plan.publisher_home.find(p.client);
    ASSERT_NE(it, report.plan.publisher_home.end());
    EXPECT_TRUE(report.plan.overlay.has_broker(it->second));
  }

  // Apply and re-run: the system must still deliver everything.
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(60.0);
  const auto after = sim.summarize();
  EXPECT_GT(after.deliveries, 0u);
  const double before_ratio = static_cast<double>(before.deliveries) /
                              static_cast<double>(before.publications);
  const double after_ratio = static_cast<double>(after.deliveries) /
                             static_cast<double>(after.publications);
  // Same workload => same deliveries-per-publication ratio (within the
  // noise of in-flight cut-offs and the random-walk thresholds).
  EXPECT_NEAR(after_ratio, before_ratio, 0.05 * before_ratio)
      << algorithm_name(GetParam());
}

TEST(CrocIntegration, CapacityAwareAlgorithmsConsolidateBrokers) {
  Simulation sim = make_simulation(test_config());
  sim.run(60.0);
  for (const auto algo :
       {Phase2Algorithm::kFbf, Phase2Algorithm::kBinPacking, Phase2Algorithm::kCram}) {
    CrocConfig cfg;
    cfg.algorithm = algo;
    Croc croc(cfg);
    const auto report = croc.reconfigure(sim, BrokerId{0});
    ASSERT_TRUE(report.success);
    EXPECT_LT(report.allocated_brokers, sim.deployment().topology.broker_count())
        << algorithm_name(algo);
  }
}

TEST(CrocIntegration, CramReducesMessageRateVersusManual) {
  Simulation sim = make_simulation(test_config());
  sim.run(90.0);
  const auto before = sim.summarize();

  CrocConfig cfg;
  cfg.algorithm = Phase2Algorithm::kCram;
  Croc croc(cfg);
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  sim.redeploy(std::move(applied.deployment));
  sim.run(90.0);
  const auto after = sim.summarize();
  // The headline effect: both the per-broker and the system-wide message
  // rates drop substantially.
  EXPECT_LT(after.system_msg_rate, before.system_msg_rate);
  EXPECT_LT(static_cast<double>(after.allocated_brokers),
            0.8 * static_cast<double>(before.allocated_brokers));
}

TEST(CrocIntegration, ReportTimingsAndStatsPopulated) {
  Simulation sim = make_simulation(test_config());
  sim.run(30.0);
  CrocConfig cfg;
  cfg.algorithm = Phase2Algorithm::kCram;
  Croc croc(cfg);
  const auto report = croc.reconfigure(sim, BrokerId{3});
  ASSERT_TRUE(report.success);
  EXPECT_GT(report.gather.brokers_answered, 0u);
  EXPECT_GT(report.cram.allocation_runs, 0u);
  EXPECT_GT(report.cluster_count, 0u);
  EXPECT_GE(report.phase2_seconds, 0.0);
  EXPECT_GT(report.allocated_brokers, 0u);
}

TEST(CrocIntegration, GrapeOffPlacesPublishersAtRoot) {
  Simulation sim = make_simulation(test_config());
  sim.run(30.0);
  CrocConfig cfg;
  cfg.algorithm = Phase2Algorithm::kBinPacking;
  cfg.run_grape = false;
  Croc croc(cfg);
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  for (const auto& [client, broker] : report.plan.publisher_home) {
    (void)client;
    EXPECT_EQ(broker, report.plan.root);
  }
}

TEST(CrocIntegration, ApplyPlanKeepsWorkloadIdentity) {
  Simulation sim = make_simulation(test_config());
  sim.run(30.0);
  CrocConfig cfg;
  Croc croc(cfg);
  const auto report = croc.reconfigure(sim, BrokerId{0});
  ASSERT_TRUE(report.success);
  const Deployment& old_dep = sim.deployment();
  const ApplyResult applied = apply_plan_transactional(old_dep, report.plan);
  ASSERT_TRUE(applied.success) << applied.detail;
  const Deployment& next = applied.deployment;
  ASSERT_EQ(next.publishers.size(), old_dep.publishers.size());
  ASSERT_EQ(next.subscribers.size(), old_dep.subscribers.size());
  for (std::size_t i = 0; i < next.publishers.size(); ++i) {
    EXPECT_EQ(next.publishers[i].adv, old_dep.publishers[i].adv);
    EXPECT_EQ(next.publishers[i].symbol, old_dep.publishers[i].symbol);
  }
  for (std::size_t i = 0; i < next.subscribers.size(); ++i) {
    EXPECT_EQ(next.subscribers[i].filter, old_dep.subscribers[i].filter);
  }
  // Capacities preserved for every allocated broker.
  for (const BrokerId b : next.topology.brokers()) {
    EXPECT_EQ(next.capacities.at(b).out_bw_kb_s, old_dep.capacities.at(b).out_bw_kb_s);
  }
}

}  // namespace
}  // namespace greenps
