// Tests for the tracer: Figure 3-style set-membership observation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "trace/tracer.hpp"

namespace df::trace {
namespace {

core::Program fig3_program() {
  // The Figure 3 graph with deterministic replay sources: v1 emits in phase
  // 1 only, v2 emits in phases 1 and 2 (mirroring the figure's narrative
  // where (1,2) "generated no output").
  const graph::Dag shape = graph::paper_figure3();
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    if (shape.name(v) == "v1") {
      ids.push_back(b.add("v1", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(1.0), std::nullopt})));
    } else if (shape.name(v) == "v2") {
      ids.push_back(b.add("v2", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(2.0),
                                        event::Value(3.0)})));
    } else {
      ids.push_back(
          b.add(shape.name(v), model::factory_of<model::ForwardModule>()));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(1);
}

core::Program wide_program() {
  // One counting source fanned out to eight forwarders: nine pairs per
  // phase, eight of them ready at the same moment.
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  for (int i = 0; i < 8; ++i) {
    b.connect(src, b.add("f" + std::to_string(i),
                         model::factory_of<model::ForwardModule>()));
  }
  return std::move(b).build(2);
}

/// Engine transitions = phase starts + pair completions: exactly one
/// kPairFinished per executed pair.
void expect_one_finish_per_pair(const std::vector<Tracer::Step>& steps,
                                const core::Engine& engine) {
  std::size_t finishes = 0;
  for (const auto& step : steps) {
    if (step.transition ==
        core::SchedulerObserver::Transition::kPairFinished) {
      ++finishes;
    }
  }
  EXPECT_EQ(finishes, engine.stats().executed_pairs);
}

// One worker and two: with two, a worker applies a batch of pairs under one
// lock acquisition, and the observer must still see one kPairFinished (with
// its own snapshot) per executed pair.
TEST(Tracer, RecordsEveryTransition) {
  for (const std::size_t threads : {1UL, 2UL}) {
    SCOPED_TRACE(threads);
    const core::Program program = fig3_program();
    Tracer tracer;
    core::EngineOptions options;
    options.threads = threads;
    options.observer = &tracer;
    core::Engine engine(program, options);
    engine.run(2, nullptr);

    const auto steps = tracer.steps();
    ASSERT_GT(steps.size(), 4U);
    // First transition: phase 1 initiated.
    EXPECT_EQ(steps[0].transition,
              core::SchedulerObserver::Transition::kPhaseStarted);
    EXPECT_EQ(steps[0].phase, 1U);
    // Right after the start, both sources are full and ready.
    EXPECT_EQ(steps[0].snapshot.ready.size(), 2U);
    EXPECT_EQ(steps[0].snapshot.full.size(), 2U);
    EXPECT_TRUE(steps[0].snapshot.partial.empty());
    expect_one_finish_per_pair(steps, engine);
  }
}

TEST(Tracer, RecordsEveryTransitionOnAWideRun) {
  // Many pairs ready at once, so two workers pop multi-pair batches.
  const core::Program program = wide_program();
  Tracer tracer(/*max_steps=*/1 << 14);
  core::EngineOptions options;
  options.threads = 2;
  options.max_inflight_phases = 16;
  options.observer = &tracer;
  core::Engine engine(program, options);
  engine.run(200, nullptr);
  const auto steps = tracer.steps();
  EXPECT_EQ(steps.size(), 200U * 10U);  // 200 starts + 9 finishes per phase
  expect_one_finish_per_pair(steps, engine);
}

TEST(Tracer, RenderShowsFigureLegend) {
  const core::Program program = fig3_program();
  Tracer tracer;
  core::EngineOptions options;
  options.threads = 1;
  options.observer = &tracer;
  core::Engine engine(program, options);
  engine.run(1, nullptr);

  const auto steps = tracer.steps();
  ASSERT_FALSE(steps.empty());
  const std::string first = Tracer::render_step(steps[0], 6);
  EXPECT_NE(first.find("phase 1 initiated"), std::string::npos);
  EXPECT_NE(first.find("[1]"), std::string::npos);  // source ready
  EXPECT_NE(first.find("[2]"), std::string::npos);

  bool saw_partial_marker = false;
  for (const auto& step : steps) {
    if (Tracer::render_step(step, 6).find('<') != std::string::npos) {
      saw_partial_marker = true;
    }
  }
  EXPECT_TRUE(saw_partial_marker)
      << "no pair was ever observed in the partial set";
}

TEST(Tracer, BoundedHistoryDropsOldest) {
  Tracer tracer(/*max_steps=*/4);
  core::Scheduler::Snapshot snapshot;
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.on_transition(core::SchedulerObserver::Transition::kPairFinished,
                         i, 1, snapshot);
  }
  const auto steps = tracer.steps();
  ASSERT_EQ(steps.size(), 4U);
  EXPECT_EQ(steps.front().vertex, 6U);  // oldest retained
  EXPECT_EQ(steps.back().vertex, 9U);
}

}  // namespace
}  // namespace df::trace
