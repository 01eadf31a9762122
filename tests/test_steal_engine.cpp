// Engine-level coverage for the work-stealing dispatch mode (PR 9):
// dispatch = kWorkStealing must be observationally identical to the
// central queue — byte-identical sink streams against the sequential
// reference across the seeds x threads matrix over the shared randomized
// corpus — while exercising the spill path (tiny deques), the teardown
// path (destroy mid-run), and the stats plumbing. Runs under
// `ctest -L concurrency` so the TSan CI leg covers the lock-free dispatch
// protocols end-to-end through real engine traffic.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "random_program.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

using testutil::random_program;

EngineOptions steal_options(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.dispatch = EngineOptions::Dispatch::kWorkStealing;
  options.max_inflight_phases = 8;
  return options;
}

// dispatch=steal x seeds {21,22,23} x threads {1,2,4}, sink output
// byte-identical to the sequential reference.
class StealDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(StealDifferential, MatchesSequentialReference) {
  const auto [seed, threads] = GetParam();
  const Program program = random_program(seed);
  Engine engine(program, steal_options(threads));
  const auto report = trace::check_against_sequential(program, engine, 120);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StealDifferential,
    ::testing::Combine(::testing::Values<std::uint64_t>(21, 22, 23),
                       ::testing::Values<std::size_t>(1, 2, 4)));

// Tiny per-worker deques force constant overflow through the inbox /
// injector spill machinery; results must be unchanged and nothing lost.
TEST(StealEngine, TinyDequeSpillPathMatchesReference) {
  const Program program = random_program(25);
  EngineOptions options = steal_options(4);
  options.steal_deque_capacity = 2;
  options.dispatch_chunk = 1;  // maximal cross-lane distribution
  Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 200);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

// Central and stealing dispatch must agree with each other bit-for-bit,
// including with the lock-per-pair (non-staged) apply path.
TEST(StealEngine, CentralAndStealingProduceIdenticalSinks) {
  const Program program = random_program(26);
  std::vector<std::vector<SinkRecord>> outputs;
  for (const bool staged : {true, false}) {
    for (const auto dispatch : {EngineOptions::Dispatch::kCentral,
                                EngineOptions::Dispatch::kWorkStealing}) {
      EngineOptions options = steal_options(4);
      options.staged_deliveries = staged;
      options.dispatch = dispatch;
      Engine engine(program, options);
      engine.run(300, nullptr);
      outputs.push_back(engine.sinks().canonical());
    }
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i], outputs[0]) << "configuration " << i;
  }
  EXPECT_GT(outputs[0].size(), 50U) << "workload was trivial";
}

// Teardown loop at dispatch=steal: destroying the engine with phases
// outstanding must let workers drain or drop cleanly — never trip the
// "run queue closed while work was outstanding" check (the abandoning_
// ordering extends to the dispatch close), deadlock a parked worker, or
// leak/double-free pairs stranded in lanes. Mirrors the central-path
// DestroyMidRunNeverTripsTeardownChecks loop.
TEST(StealEngine, DestroyMidRunNeverTripsTeardownChecks) {
  const Program program = random_program(27);
  for (int iter = 0; iter < 60; ++iter) {
    EngineOptions options = steal_options(1 + iter % 5);
    options.max_inflight_phases = 1 + iter % 9;
    options.staged_deliveries = iter % 3 != 0;
    if (iter % 4 == 0) {
      options.steal_deque_capacity = 2;  // teardown with spill traffic
    }
    Engine engine(program, options);
    engine.start();
    const int phases = iter % 8;
    for (int p = 0; p < phases; ++p) {
      engine.start_phase({});
    }
    // Destructor runs here with up to `phases` phases outstanding.
  }
}

TEST(StealEngine, StatsReportDispatchCounters) {
  const Program program = random_program(28);
  {
    Engine central(program, {.threads = 4});
    central.run(100, nullptr);
    const ExecStats stats = central.stats();
    EXPECT_EQ(stats.steals_ok, 0U);
    EXPECT_EQ(stats.steals_empty, 0U);
    EXPECT_EQ(stats.parks, 0U);
  }
  {
    Engine stealing(program, steal_options(4));
    stealing.run(100, nullptr);
    const ExecStats stats = stealing.stats();
    EXPECT_GT(stats.executed_pairs, 0U);
    // Every exiting worker runs at least one empty steal sweep before it
    // observes the close, so with 4 workers the counters cannot all be 0.
    EXPECT_GT(stats.steals_ok + stats.steals_empty, 0U);
  }
}

}  // namespace
}  // namespace df::core
