// Long-run stress and cross-configuration equivalence for the engine:
// beyond matching the sequential reference, every engine configuration
// (thread count x in-flight window) must produce *identical* sink streams,
// since the computation is deterministic and serializable.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

Program stress_program(std::uint64_t seed) {
  support::Rng rng(seed);
  const graph::Dag shape = graph::layered(5, 4, 2, rng);
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    if (fan_in == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::RandomWalkSource>(
                              0.0, 1.0, 0.8)));
    } else if (shape.is_sink(v)) {
      // Bool-emitting detectors only at sinks, so numeric folds upstream
      // never receive a boolean.
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::ThresholdDetector>(0.0)));
    } else if (v % 2 == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::SumModule>(fan_in)));
    } else {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::EwmaModule>(0.3)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

TEST(EngineStress, LongRunManyThreadsMatchesReference) {
  const Program program = stress_program(1);
  EngineOptions options;
  options.threads = 8;
  options.max_inflight_phases = 16;
  Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 5000);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_EQ(engine.stats().phases_completed, 5000U);
}

TEST(EngineStress, AllConfigurationsProduceIdenticalSinks) {
  const Program program = stress_program(2);
  std::vector<std::vector<SinkRecord>> outputs;
  for (const std::size_t threads : {1UL, 2UL, 5UL}) {
    for (const std::size_t window : {1UL, 3UL, 64UL, 0UL /*unbounded*/}) {
      EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = window;
      Engine engine(program, options);
      engine.run(800, nullptr);
      outputs.push_back(engine.sinks().canonical());
    }
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), outputs[0].size())
        << "configuration " << i << " record count differs";
    EXPECT_EQ(outputs[i], outputs[0]) << "configuration " << i;
  }
  EXPECT_GT(outputs[0].size(), 100U) << "stress workload was trivial";
}

// Teardown-race regression (the abandoning_/close() ordering audit): an
// engine destroyed with phases outstanding must let in-flight workers
// finish their current pair, observe the closed queue, read abandoning_ ==
// true, and exit — never trip the "run queue closed while work was
// outstanding" check, deadlock, or crash while queued pairs are still
// being executed and applied. Loop many configurations so destruction
// lands at many different points of the pipeline.
TEST(EngineStress, DestroyMidRunNeverTripsTeardownChecks) {
  const Program program = stress_program(4);
  for (int iter = 0; iter < 60; ++iter) {
    EngineOptions options;
    options.threads = 1 + iter % 5;
    options.max_inflight_phases = 1 + iter % 9;
    Engine engine(program, options);
    engine.start();
    const int phases = iter % 8;
    for (int p = 0; p < phases; ++p) {
      engine.start_phase({});
    }
    // Destructor runs here with up to `phases` phases outstanding.
  }
}

// Backpressure regression for the 1-phase window: start_phase may only
// proceed when the window has room, and the only transition that makes
// room is a phase retirement. If any apply path retired a phase without
// notifying progress_cv_, this configuration would deadlock on the second
// phase; the retirement happens inside a worker's batch apply, so this
// pins that path's notify.
TEST(EngineStress, SingleInflightWindowSustainsThroughput) {
  const Program program = stress_program(5);
  EngineOptions options;
  options.threads = 4;
  options.max_inflight_phases = 1;
  Engine engine(program, options);
  engine.run(1500, nullptr);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.phases_completed, 1500U);
  EXPECT_EQ(stats.max_inflight_phases, 1U);
}

// A module that throws inside a multi-pair batch: a 16-wide layer becomes
// ready at once, so with two workers each pops a share of ~8 pairs and some
// of the throwing pairs sit mid-batch. The failed pairs complete with no
// output, the rest of the batch is still applied, finish() rethrows, and
// no pair is lost or executed twice.
TEST(EngineStress, ThrowMidBatchCompletesEveryPhase) {
  constexpr std::uint32_t kWidth = 16;
  constexpr event::PhaseId kPhases = 300;
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  const auto sink = b.add("sum", model::factory_of<model::SumModule>(kWidth));
  for (std::uint32_t i = 0; i < kWidth; ++i) {
    const auto mid = b.add_lambda(
        "mid" + std::to_string(i), [i](model::PhaseContext& ctx) {
          if (i % 5 == 2 && ctx.phase() % 7 == 3) {
            throw std::runtime_error("module failure mid-batch");
          }
          ctx.emit(0, event::Value(static_cast<double>(ctx.phase())));
        });
    b.connect(src, mid);
    b.connect(mid, sink);
  }
  const Program program = std::move(b).build(11);
  EngineOptions options;
  options.threads = 2;
  options.max_inflight_phases = 8;
  Engine engine(program, options);
  EXPECT_THROW(engine.run(kPhases, nullptr), std::runtime_error);
  EXPECT_EQ(engine.completed_phases(), kPhases);
  // src, every mid vertex and the sum run every phase: a thrower only drops
  // its own message, and the sum still hears from the other 15.
  EXPECT_EQ(engine.stats().executed_pairs, kPhases * (kWidth + 2));
}

TEST(EngineStress, RepeatedRunsOfSameConfigAreBitIdentical) {
  const Program program = stress_program(3);
  std::vector<SinkRecord> first;
  for (int run = 0; run < 3; ++run) {
    Engine engine(program, {.threads = 4});
    engine.run(600, nullptr);
    if (run == 0) {
      first = engine.sinks().canonical();
    } else {
      EXPECT_EQ(engine.sinks().canonical(), first) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace df::core
