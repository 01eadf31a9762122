// Unit tests for the source-module library.
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "model/registry.hpp"
#include "model/sources.hpp"
#include "module_test_util.hpp"
#include "spec/builder.hpp"

namespace df::model {
namespace {

/// Runs a lone source for `phases` phases and returns its emissions.
std::vector<core::SinkRecord> run_source(ModuleFactory factory,
                                         event::PhaseId phases,
                                         std::uint64_t seed = 1) {
  spec::GraphBuilder builder;
  builder.add("src", std::move(factory));
  const core::Program program = std::move(builder).build(seed);
  baseline::SequentialExecutor executor(program);
  executor.run(phases, nullptr);
  return executor.sinks().canonical();
}

TEST(ConstantSource, EmitsExactlyOnce) {
  const auto records =
      run_source(factory_of<ConstantSource>(event::Value(5.0)), 20);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].phase, 1U);
  EXPECT_DOUBLE_EQ(records[0].value.as_double(), 5.0);
}

TEST(CounterSource, EmitsPhaseNumberEveryPhase) {
  const auto records = run_source(factory_of<CounterSource>(), 10);
  ASSERT_EQ(records.size(), 10U);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].value.as_int(), static_cast<std::int64_t>(i + 1));
  }
}

TEST(UniformSource, ValuesInRange) {
  const auto records =
      run_source(factory_of<UniformSource>(2.0, 5.0, 1.0), 500);
  ASSERT_EQ(records.size(), 500U);
  for (const auto& r : records) {
    EXPECT_GE(r.value.as_double(), 2.0);
    EXPECT_LT(r.value.as_double(), 5.0);
  }
}

TEST(UniformSource, EmitProbabilityThrottles) {
  const auto records =
      run_source(factory_of<UniformSource>(0.0, 1.0, 0.2), 2000);
  EXPECT_GT(records.size(), 250U);
  EXPECT_LT(records.size(), 600U);
}

TEST(GaussianSource, MomentsMatch) {
  const auto records =
      run_source(factory_of<GaussianSource>(10.0, 2.0, 1.0), 20000);
  double sum = 0.0;
  for (const auto& r : records) {
    sum += r.value.as_double();
  }
  EXPECT_NEAR(sum / static_cast<double>(records.size()), 10.0, 0.1);
}

TEST(RandomWalkSource, EmitThresholdSuppressesSmallMoves) {
  // A huge threshold: after the first emission, almost nothing.
  const auto quiet =
      run_source(factory_of<RandomWalkSource>(0.0, 0.1, 1000.0), 500);
  EXPECT_EQ(quiet.size(), 1U);  // the initial report only
  // Zero threshold: every phase emits.
  const auto chatty =
      run_source(factory_of<RandomWalkSource>(0.0, 0.1, 0.0), 500);
  EXPECT_EQ(chatty.size(), 500U);
}

TEST(TemperatureSource, FollowsDailyCycle) {
  const auto records = run_source(
      factory_of<TemperatureSource>(20.0, 8.0, std::uint64_t{24}, 0.0, 0.0),
      48, /*seed=*/3);
  ASSERT_EQ(records.size(), 48U);
  // Peak near phase 6 (quarter period), trough near phase 18.
  EXPECT_NEAR(records[5].value.as_double(), 28.0, 1.0);
  EXPECT_NEAR(records[17].value.as_double(), 12.0, 1.0);
}

TEST(TemperatureSource, ReportDeltaReducesTraffic) {
  const auto fine = run_source(
      factory_of<TemperatureSource>(20.0, 8.0, std::uint64_t{24}, 0.1, 0.0),
      240);
  const auto coarse = run_source(
      factory_of<TemperatureSource>(20.0, 8.0, std::uint64_t{24}, 0.1, 3.0),
      240);
  EXPECT_EQ(fine.size(), 240U);
  EXPECT_LT(coarse.size(), 150U);
  EXPECT_GT(coarse.size(), 10U);
}

TEST(TransactionSource, AnomalyRateControlsTail) {
  const auto records = run_source(
      factory_of<TransactionSource>(100.0, 10.0, 0.01, 100.0), 20000);
  ASSERT_EQ(records.size(), 20000U);
  std::size_t huge = 0;
  for (const auto& r : records) {
    if (r.value.as_double() > 1000.0) {
      ++huge;
    }
  }
  // ~1% anomalies scaled by 100x stand far outside the N(100,10) bulk.
  EXPECT_GT(huge, 120U);
  EXPECT_LT(huge, 280U);
}

TEST(DiseaseIncidenceSource, EmitsOnlyOnChange) {
  const auto records = run_source(
      factory_of<DiseaseIncidenceSource>(3.0, 0.0, 1.0, 0.9), 2000);
  // Counts are small integers; consecutive equal counts are suppressed, so
  // traffic is strictly below the phase count.
  EXPECT_LT(records.size(), 2000U);
  EXPECT_GT(records.size(), 500U);
  for (std::size_t i = 1; i < records.size(); ++i) {
    // A record only exists when the count changed.
    EXPECT_NE(records[i].value.as_int(), records[i - 1].value.as_int());
  }
}

TEST(BurstSource, QuietBetweenBursts) {
  const auto records =
      run_source(factory_of<BurstSource>(0.01, 8.0), 5000);
  // Expected duty cycle ~ p*len/(1+p*len) ~ 7.4%.
  EXPECT_GT(records.size(), 100U);
  EXPECT_LT(records.size(), 1200U);
}

TEST(SparseEventSource, RateMatchesProbability) {
  const auto records = run_source(
      factory_of<SparseEventSource>(0.05, event::Value(true)), 10000);
  EXPECT_NEAR(static_cast<double>(records.size()), 500.0, 120.0);
}

TEST(ReplaySource, PlaysScriptExactly) {
  const auto records = run_source(
      factory_of<ReplaySource>(std::vector<std::optional<event::Value>>{
          event::Value(1.0), std::nullopt, event::Value(3.0)}),
      5);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].phase, 1U);
  EXPECT_EQ(records[1].phase, 3U);
  EXPECT_DOUBLE_EQ(records[1].value.as_double(), 3.0);
}

TEST(Sources, SameSeedSameOutput) {
  const auto a =
      run_source(factory_of<GaussianSource>(0.0, 1.0, 0.5), 200, 9);
  const auto b =
      run_source(factory_of<GaussianSource>(0.0, 1.0, 0.5), 200, 9);
  EXPECT_EQ(a, b);
}

TEST(Sources, DifferentSeedDifferentOutput) {
  const auto a =
      run_source(factory_of<GaussianSource>(0.0, 1.0, 0.5), 200, 9);
  const auto b =
      run_source(factory_of<GaussianSource>(0.0, 1.0, 0.5), 200, 10);
  EXPECT_NE(a, b);
}

TEST(ExternalPassthroughSource, DeclaresNoPhaseSignal) {
  EXPECT_FALSE(ExternalPassthroughSource().needs_phase_signal());
  EXPECT_TRUE(CounterSource().needs_phase_signal());
}

/// Bytes of the module's persist_state, or of the rng's position.
std::vector<std::uint8_t> state_bytes(Module& module) {
  auto ar = support::StateArchive::saver();
  module.persist_state(ar);
  return std::move(ar).take();
}
std::vector<std::uint8_t> state_bytes(support::Rng& rng) {
  auto ar = support::StateArchive::saver();
  rng.persist(ar);
  return std::move(ar).take();
}

TEST(Registry, EveryInputDrivenTypeIsANoOpWithoutInput) {
  // A module that needs no phase signal is skipped in phases without an
  // event, which is only sound if such a phase would have done nothing:
  // no emission, no state change, no rng draw. Types with required
  // parameters get these; every other type builds from its defaults.
  const Params params({{"threshold", "1"}, {"low", "0"}, {"high", "1"},
                       {"lo", "0"}, {"hi", "1"}});
  const Registry& registry = Registry::builtin();
  std::size_t declared = 0;
  for (const std::string& name : registry.type_names()) {
    std::unique_ptr<Module> module = registry.build(name, params, 2)();
    if (module->needs_phase_signal()) {
      continue;
    }
    ++declared;
    const std::vector<testutil::Script> silent(2);
    testutil::ScriptedContext ctx(silent);
    for (event::PhaseId p = 1; p <= 20; ++p) {
      const std::vector<std::uint8_t> state = state_bytes(*module);
      const std::vector<std::uint8_t> rng = state_bytes(ctx.rng());
      ctx.begin(p);
      module->on_phase(ctx);
      EXPECT_TRUE(ctx.emitted().empty()) << name << " phase " << p;
      EXPECT_EQ(state_bytes(*module), state) << name << " phase " << p;
      EXPECT_EQ(state_bytes(ctx.rng()), rng) << name << " phase " << p;
    }
  }
  EXPECT_GE(declared, 1U) << "no registered type declares it (\"external\")";
}

}  // namespace
}  // namespace df::model
