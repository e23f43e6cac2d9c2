// The bench binaries' environment reader (bench/bench_util): the one place
// that turns GREENPS_* variables into library option fields.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util.hpp"

namespace greenps::bench {
namespace {

// Sets a variable for one test and restores "unset" on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    EXPECT_EQ(setenv(name, value, 1), 0);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(BenchEnv, EnvDoubleFallsBackWhenUnsetOrEmpty) {
  unsetenv("GREENPS_TEST_KNOB");
  EXPECT_EQ(env_double("GREENPS_TEST_KNOB", 2.5), 2.5);
  {
    const ScopedEnv e("GREENPS_TEST_KNOB", "");
    EXPECT_EQ(env_double("GREENPS_TEST_KNOB", 2.5), 2.5);
  }
  {
    const ScopedEnv e("GREENPS_TEST_KNOB", "0.75");
    EXPECT_EQ(env_double("GREENPS_TEST_KNOB", 2.5), 0.75);
  }
  const ScopedEnv e("GREENPS_TEST_KNOB", "garbage");
  EXPECT_EQ(env_double("GREENPS_TEST_KNOB", 2.5), 0.0);
}

TEST(BenchEnv, SimWorkersComeFromTheEnvironment) {
  unsetenv("GREENPS_SIM_WORKERS");
  EXPECT_EQ(sim_options().workers, 1u);
  {
    const ScopedEnv e("GREENPS_SIM_WORKERS", "6");
    EXPECT_EQ(sim_options().workers, 6u);
    EXPECT_EQ(HarnessConfig{}.sim.workers, 6u);
  }
  const ScopedEnv e("GREENPS_SIM_WORKERS", "-2");  // garbage: one worker
  EXPECT_EQ(sim_options().workers, 1u);
}

TEST(BenchEnv, CramKnobsOverrideOnlyWhenSet) {
  unsetenv("GREENPS_CRAM_THREADS");
  unsetenv("GREENPS_CRAM_REBASELINE");
  CramOptions base;
  base.metric = ClosenessMetric::kXor;
  base.threads = 2;
  base.rebaseline_interval = 7;
  const CramOptions kept = cram_options(base);
  EXPECT_EQ(kept.threads, 2u);
  EXPECT_EQ(kept.rebaseline_interval, 7u);

  const ScopedEnv t("GREENPS_CRAM_THREADS", "3");
  const ScopedEnv r("GREENPS_CRAM_REBASELINE", "11");
  const CramOptions set = cram_options(base);
  EXPECT_EQ(set.threads, 3u);
  EXPECT_EQ(set.rebaseline_interval, 11u);
  EXPECT_EQ(set.metric, ClosenessMetric::kXor);
  EXPECT_EQ(croc_config().cram.threads, 3u);
  EXPECT_EQ(croc_config_for(Approach::kCramIou, 9).cram.rebaseline_interval, 11u);
}

TEST(BenchEnv, ScaleFlags) {
  const ScopedEnv full("GREENPS_FULL", "1");
  unsetenv("GREENPS_TINY");
  EXPECT_TRUE(full_scale());
  EXPECT_FALSE(tiny_scale());
  const ScopedEnv tiny("GREENPS_TINY", "1");  // overrides GREENPS_FULL
  EXPECT_TRUE(tiny_scale());
  EXPECT_FALSE(full_scale());
}

TEST(BenchEnv, BudgetComesFromTheEnvironment) {
  unsetenv("GREENPS_BENCH_BUDGET_S");
  EXPECT_FALSE(BenchBudget().limited());
  const ScopedEnv b("GREENPS_BENCH_BUDGET_S", "30");
  const BenchBudget budget;
  EXPECT_TRUE(budget.limited());
  EXPECT_EQ(budget.budget_seconds(), 30.0);
}

}  // namespace
}  // namespace greenps::bench
