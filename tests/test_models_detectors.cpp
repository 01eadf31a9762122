// Unit tests for the detector modules (change-only emission discipline).
#include <gtest/gtest.h>

#include <cmath>

#include "model/detectors.hpp"
#include "module_test_util.hpp"

namespace df::model {
namespace {

using testutil::Script;
using testutil::run_module;
using testutil::script_of;

TEST(Threshold, EmitsOnlyOnStateChange) {
  const auto out = run_module(
      factory_of<ThresholdDetector>(5.0),
      {Script{event::Value(1.0), event::Value(2.0), event::Value(7.0),
              event::Value(8.0), event::Value(3.0)}});
  ASSERT_EQ(out.size(), 3U);
  EXPECT_FALSE(out[0].second.as_bool());  // initial state reported once
  EXPECT_EQ(out[1].first, 3U);
  EXPECT_TRUE(out[1].second.as_bool());
  EXPECT_EQ(out[2].first, 5U);
  EXPECT_FALSE(out[2].second.as_bool());
}

TEST(ZScore, FlagsInjectedOutlier) {
  Script script = script_of(40, [](auto p) {
    return 10.0 + 0.1 * static_cast<double>(p % 3);  // tight cluster
  });
  script.push_back(event::Value(50.0));  // wild outlier at phase 41
  const auto out = run_module(
      factory_of<ZScoreDetector>(std::size_t{64}, 4.0, std::size_t{8}),
      {script});
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].first, 41U);
  EXPECT_GT(out[0].second.as_double(), 4.0);
}

TEST(ZScore, SilentOnSteadyStream) {
  const auto out = run_module(
      factory_of<ZScoreDetector>(std::size_t{32}, 3.0, std::size_t{8}),
      {script_of(100, [](auto p) { return std::sin(0.3 * p); })});
  EXPECT_TRUE(out.empty());
}

TEST(ZScore, CheckpointRoundTripKeepsTheWindow) {
  // 24 phases of noise fill the window before the checkpoint; the spike at
  // phase 30 stands out only against that history.
  Script values = script_of(40, [](event::PhaseId p) {
    return 10.0 + ((p * 7) % 5) * 0.1;
  });
  values[29] = event::Value(30.0);
  const auto run = testutil::checkpoint_round_trip(
      factory_of<ZScoreDetector>(std::size_t{32}, 3.0, std::size_t{8}),
      {values}, 24);
  ASSERT_FALSE(run.uninterrupted.empty());
  EXPECT_EQ(run.restored, run.uninterrupted);
  EXPECT_NE(run.unrestored, run.uninterrupted);
}

TEST(RegressionResidual, FlagsLevelShift) {
  Script script = script_of(60, [](auto p) {
    // Linear trend plus a small deterministic wobble so the residual
    // standard deviation is non-zero.
    return 2.0 * static_cast<double>(p) + 0.3 * std::sin(0.7 * p);
  });
  script.push_back(event::Value(500.0));  // breaks the regression line
  const auto out = run_module(
      factory_of<RegressionResidualDetector>(std::size_t{64}, 4.0,
                                             std::size_t{8}),
      {script});
  ASSERT_GE(out.size(), 1U);
  EXPECT_EQ(out.back().first, 61U);
  EXPECT_DOUBLE_EQ(out.back().second.as_double(), 500.0);
}

TEST(RegressionResidual, SilentOnCleanTrend) {
  const auto out = run_module(
      factory_of<RegressionResidualDetector>(std::size_t{64}, 6.0,
                                             std::size_t{8}),
      {script_of(80, [](auto p) { return 3.0 * static_cast<double>(p); })});
  EXPECT_TRUE(out.empty());
}

TEST(Expectation, EmitsOncePerExcursion) {
  // Port 0: observations; port 1: the assumption (constant 10).
  Script observed{event::Value(10.0), event::Value(10.2),
                  event::Value(15.0),  // violation begins
                  event::Value(16.0),  // still violated: no second message
                  event::Value(10.0),  // back within tolerance
                  event::Value(14.9)}; // second excursion
  Script assumption{event::Value(10.0), std::nullopt, std::nullopt,
                    std::nullopt,       std::nullopt, std::nullopt};
  const auto out = run_module(factory_of<ExpectationMonitor>(2.0),
                              {observed, assumption});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0].first, 3U);
  EXPECT_DOUBLE_EQ(out[0].second.as_double(), 15.0);
  EXPECT_EQ(out[1].first, 6U);
}

TEST(Expectation, SilentWhileAssumptionHolds) {
  // The paper's point: "information is conveyed by the absence of events".
  Script observed = testutil::script_of(50, [](auto) { return 15.0; });
  Script assumption{event::Value(15.0)};
  const auto out = run_module(factory_of<ExpectationMonitor>(1.0),
                              {observed, assumption});
  EXPECT_TRUE(out.empty());
}

TEST(Cusum, DetectsUpwardDrift) {
  Script script;
  for (int i = 0; i < 16; ++i) {
    script.push_back(event::Value(10.0));  // warmup reference
  }
  for (int i = 0; i < 30; ++i) {
    script.push_back(event::Value(11.5));  // sustained +1.5 drift
  }
  const auto out =
      run_module(factory_of<CusumDetector>(0.5, 5.0, std::size_t{16}),
                 {script});
  ASSERT_GE(out.size(), 1U);
  EXPECT_DOUBLE_EQ(out[0].second.as_double(), 1.0);
}

TEST(Cusum, DetectsDownwardDrift) {
  Script script;
  for (int i = 0; i < 16; ++i) {
    script.push_back(event::Value(10.0));
  }
  for (int i = 0; i < 30; ++i) {
    script.push_back(event::Value(8.5));
  }
  const auto out =
      run_module(factory_of<CusumDetector>(0.5, 5.0, std::size_t{16}),
                 {script});
  ASSERT_GE(out.size(), 1U);
  EXPECT_DOUBLE_EQ(out[0].second.as_double(), -1.0);
}

TEST(Cusum, IgnoresZeroMeanNoise) {
  Script script;
  for (int i = 0; i < 100; ++i) {
    script.push_back(event::Value(10.0 + ((i % 2 == 0) ? 0.2 : -0.2)));
  }
  const auto out =
      run_module(factory_of<CusumDetector>(0.5, 8.0, std::size_t{16}),
                 {script});
  EXPECT_TRUE(out.empty());
}

TEST(Spike, FiresOnBurstAboveMovingAverage) {
  Script script = script_of(20, [](auto) { return 10.0; });
  script.push_back(event::Value(100.0));
  const auto out = run_module(
      factory_of<SpikeDetector>(std::size_t{8}, 3.0), {script});
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].first, 21U);
  EXPECT_DOUBLE_EQ(out[0].second.as_double(), 100.0);
}

TEST(Spike, RequiresFullWindow) {
  const auto out = run_module(
      factory_of<SpikeDetector>(std::size_t{8}, 1.1),
      {Script{event::Value(1.0), event::Value(100.0)}});
  EXPECT_TRUE(out.empty());  // window not yet full
}

}  // namespace
}  // namespace df::model
