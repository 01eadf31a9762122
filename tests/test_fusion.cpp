// Operator fusion (DESIGN.md, "Operator fusion"): the contraction rule on
// hand-built graphs, the width guard, the vertex-granular observer, the
// checkpoint contraction check, and the differential suite over
// random_path_program on the engine and the partitioned transport. Also the
// skip of event-less input-driven sources (DESIGN.md, "Input-driven
// sources") on the sensor program, where both cut the scheduler's pairs.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "baseline/lockstep.hpp"
#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "core/program.hpp"
#include "distrib/transport.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/logic.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "trace/serializability.hpp"
#include "trace/tracer.hpp"

namespace df::core {
namespace {

/// Busywork over a shape: sources always emit, interior vertices always
/// forward, so every vertex runs every phase.
Program busywork(const graph::Dag& shape) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    ids.push_back(b.add(
        shape.name(v),
        fan_in == 0
            ? model::factory_of<model::BusyWorkSource>(std::uint64_t{0}, 1.0)
            : model::factory_of<model::BusyWorkModule>(std::uint64_t{0},
                                                       fan_in, 1.0)));
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(11);
}

/// Internal indices of `names`, in the order given.
std::vector<std::uint32_t> indices(const ProgramInstance& instance,
                                   const std::vector<std::string>& names) {
  std::vector<std::uint32_t> out;
  for (const std::string& name : names) {
    out.push_back(
        instance.internal_index(instance.program().dag.vertex(name)));
  }
  return out;
}

std::vector<std::uint32_t> unit_members(const ProgramInstance& instance,
                                        std::uint32_t index) {
  const auto members = instance.members(instance.unit_of(index));
  return {members.begin(), members.end()};
}

/// perfbench's sensor graph in small: external -> ewma -> zscore -> latch
/// per sensor, latches into a majority gate and ewmas into a sum per group,
/// majorities into one `or`.
Program sensor_program(std::uint32_t sensors, std::uint32_t groups) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> averages, latches;
  for (std::uint32_t s = 0; s < sensors; ++s) {
    const std::string tag = std::to_string(s);
    const auto src = b.add(
        "sensor" + tag, model::factory_of<model::ExternalPassthroughSource>());
    const auto avg =
        b.add("ewma" + tag, model::factory_of<model::EwmaModule>(0.3));
    const auto z = b.add("zscore" + tag,
                         model::factory_of<model::ZScoreDetector>(
                             std::size_t{32}, 2.5, std::size_t{8}));
    const auto latch =
        b.add("latch" + tag, model::factory_of<model::LatchModule>());
    b.connect(src, avg).connect(avg, z).connect(z, latch);
    averages.push_back(avg);
    latches.push_back(latch);
  }
  const std::uint32_t per_group = sensors / groups;
  const auto any =
      b.add("any_alarm", model::factory_of<model::OrGate>(std::size_t{groups}));
  for (std::uint32_t g = 0; g < groups; ++g) {
    const auto gate =
        b.add("majority" + std::to_string(g),
              model::factory_of<model::MajorityGate>(
                  std::size_t{per_group}, std::size_t{per_group / 2 + 1}));
    const auto level =
        b.add("level" + std::to_string(g),
              model::factory_of<model::SumModule>(std::size_t{per_group}));
    for (std::uint32_t i = 0; i < per_group; ++i) {
      b.connect(latches[g * per_group + i], gate);
      b.connect(averages[g * per_group + i], level);
    }
    b.connect(gate, any);
  }
  return std::move(b).build(3);
}

// --- the rule ----------------------------------------------------------------

TEST(FusionRule, SensorShapeFusesEachChainIntoFour) {
  const ProgramInstance instance(sensor_program(16, 2));
  for (std::uint32_t s = 0; s < 16; ++s) {
    const std::string tag = std::to_string(s);
    const auto chain = indices(
        instance, {"sensor" + tag, "ewma" + tag, "zscore" + tag, "latch" + tag});
    EXPECT_EQ(unit_members(instance, chain[0]), chain) << "sensor " << s;
  }
  // 16 chains + 2 majority gates + 2 sums + the `or`.
  EXPECT_EQ(instance.units(), 21U);
  EXPECT_EQ(instance.source_count(), 16U);
}

TEST(FusionRule, PaperFigure3FusesV2V4V6) {
  const ProgramInstance instance(busywork(graph::paper_figure3()));
  EXPECT_EQ(unit_members(instance, indices(instance, {"v2"})[0]),
            indices(instance, {"v2", "v4", "v6"}));
  EXPECT_EQ(instance.units(), 4U);  // {v1}, {v2, v4, v6}, {v3}, {v5}
}

TEST(FusionRule, LayeredAndDiamondDoNotFuse) {
  support::Rng rng(1);
  for (const graph::Dag& shape :
       {graph::layered(4, 4, 2, rng), graph::diamond(6)}) {
    const ProgramInstance instance(busywork(shape), FusionScope{1, 1000, 1});
    EXPECT_EQ(instance.units(), instance.n());
    EXPECT_EQ(instance.m(), instance.program().numbering.m);
  }
}

TEST(FusionRule, DoubleEdgeFromOnePredecessorStillFuses) {
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  const auto twin = b.add_lambda("twin", [](model::PhaseContext& ctx) {
    ctx.emit(0, ctx.input(0));
    ctx.emit(1, ctx.input(0));
  });
  const auto sum =
      b.add("sum", model::factory_of<model::SumModule>(std::size_t{2}));
  b.connect(src, twin).connect(twin, 0, sum, 0).connect(twin, 1, sum, 1);
  const Program program = std::move(b).build(1);
  const ProgramInstance instance(program, FusionScope{1, 3, 1});
  EXPECT_EQ(instance.units(), 1U);
  EXPECT_EQ(unit_members(instance, 1), (std::vector<std::uint32_t>{1, 2, 3}));

  // Both messages reach the sum within the unit, and count as deliveries.
  Engine engine(program, {.threads = 1});
  engine.run(5, nullptr);
  baseline::SequentialExecutor reference(program);
  reference.run(5, nullptr);
  EXPECT_EQ(engine.instance().units(), 1U);
  EXPECT_EQ(engine.sinks().canonical(), reference.sinks().canonical());
  EXPECT_EQ(engine.stats().messages_delivered, 15U);
  EXPECT_EQ(engine.stats().executed_pairs, 15U);
}

TEST(FusionRule, ACutThroughAPathSplitsTheUnit) {
  const Program program = busywork(graph::chain(6));
  const ProgramInstance whole(program, FusionScope{1, 6, 1});
  EXPECT_EQ(whole.units(), 1U);

  const ProgramInstance front(program, FusionScope{1, 3, 1});
  EXPECT_EQ(unit_members(front, 1), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(front.units(), 4U);  // {1,2,3} {4} {5} {6}
  EXPECT_EQ(front.block_m(1, 3), (std::vector<std::uint32_t>{1, 1}));

  const ProgramInstance back(program, FusionScope{4, 6, 1});
  EXPECT_EQ(unit_members(back, 4), (std::vector<std::uint32_t>{4, 5, 6}));
  EXPECT_EQ(back.units(), 4U);  // {1} {2} {3} {4,5,6}
  // Vertex 4's predecessor is remote, so its unit is locally release-0.
  EXPECT_EQ(back.block_m(4, 6), (std::vector<std::uint32_t>{1, 1}));
  EXPECT_THROW((void)back.block_m(5, 6), support::check_error);
}

TEST(FusionRule, ContractedReleasesUseTheirPrefixMaximum) {
  // z -> z2 -> q and a -> m fuse into {z, z2, q} and {a, m}. The join w1
  // (inputs m, a) precedes w2 (inputs q, z) in the numbering, but w1's
  // release unit {a, m} is later than w2's {z, z2, q}: releases in head
  // order read 0, 0, 2, 1. A plain histogram would call w1 full as soon as
  // {z, z2, q} finished; the prefix maximum waits for {a, m}.
  spec::GraphBuilder b;
  const auto src = [&](const char* name) {
    return b.add(name, model::factory_of<model::CounterSource>());
  };
  const auto avg = [&](const char* name) {
    return b.add(name,
                 model::factory_of<model::MovingAverageModule>(std::size_t{2}));
  };
  const auto join = [&](const char* name) {
    return b.add(name, model::factory_of<model::SumModule>(std::size_t{2}));
  };
  const auto z = src("z");
  const auto a = src("a");
  const auto z2 = avg("z2");
  const auto m = avg("m");
  const auto q = avg("q");
  const auto w1 = join("w1");
  const auto w2 = join("w2");
  b.connect(z, z2).connect(z2, q).connect(a, m);
  b.connect(m, w1).connect(a, w1).connect(q, w2).connect(z, w2);
  const Program program = std::move(b).build(2);

  const ProgramInstance instance(program);
  ASSERT_EQ(instance.units(), 4U);
  EXPECT_EQ(unit_members(instance, 1), indices(instance, {"z", "z2", "q"}));
  EXPECT_EQ(unit_members(instance, 2), indices(instance, {"a", "m"}));
  EXPECT_EQ(instance.head(3), indices(instance, {"w1"})[0]);
  ASSERT_EQ(instance.m(), (std::vector<std::uint32_t>{2, 2, 4, 4, 4}));

  for (const std::size_t threads : {1, 2}) {
    Engine engine(program, {.threads = threads, .max_inflight_phases = 0});
    const auto report = trace::check_against_sequential(program, engine, 200);
    EXPECT_TRUE(report.equivalent) << report.summary();
  }
}

// --- the width guard and the vertex-granular users ---------------------------

TEST(WidthGuard, LoneChainStaysUnfusedWithTwoThreads) {
  const Program program = busywork(graph::chain(16));
  Engine two(program, {.threads = 2});
  EXPECT_EQ(two.instance().units(), 16U);
  Engine one(program, {.threads = 1});
  EXPECT_EQ(one.instance().units(), 1U);
  one.run(20, nullptr);
  EXPECT_EQ(one.stats().executed_pairs, 16U * 20U);
  EXPECT_EQ(one.stats().messages_delivered, 15U * 20U);
}

TEST(WidthGuard, ObservedEngineSchedulesVertices) {
  const Program program = busywork(graph::paper_figure3());
  trace::Tracer tracer;
  EngineOptions options;
  options.threads = 1;
  options.observer = &tracer;
  Engine engine(program, options);
  EXPECT_EQ(engine.instance().units(), 6U);
  engine.run(3, nullptr);
  std::size_t finishes = 0;
  for (const auto& step : tracer.steps()) {
    finishes += step.transition ==
                        SchedulerObserver::Transition::kPairFinished
                    ? 1
                    : 0;
  }
  EXPECT_EQ(finishes, 6U * 3U);  // one per vertex and phase
}

TEST(WidthGuard, BaselinesStayVertexGranular) {
  // The sequential reference counts one pair per vertex execution, exactly
  // what a fused engine reports for the same program.
  const Program program = busywork(graph::chain(8));
  baseline::SequentialExecutor reference(program);
  reference.run(10, nullptr);
  Engine engine(program, {.threads = 1});
  engine.run(10, nullptr);
  EXPECT_EQ(engine.instance().units(), 1U);
  EXPECT_EQ(reference.stats().executed_pairs, 80U);
  EXPECT_EQ(engine.stats().executed_pairs, 80U);
  EXPECT_EQ(engine.sinks().canonical(), reference.sinks().canonical());
}

// --- checkpoint images ---------------------------------------------------------

TEST(FusionCheckpoint, ImageRestoresOnlyUnderTheSameContraction) {
  const Program program = busywork(graph::chain(6));
  const std::vector<event::ExternalEvent> none;
  std::vector<std::uint8_t> image;
  {
    Engine fused(program, {.threads = 1});
    ASSERT_EQ(fused.instance().units(), 1U);
    fused.start();
    for (int p = 0; p < 4; ++p) {
      fused.start_phase(none);
    }
    fused.quiesce();
    image = fused.snapshot_state();
    fused.finish();
  }
  {
    Engine unfused(program, {.threads = 2});
    ASSERT_EQ(unfused.instance().units(), 6U);
    unfused.start();
    EXPECT_THROW(unfused.restore_state(image), support::check_error);
    unfused.finish();
  }
  Engine same(program, {.threads = 1});
  same.start();
  same.restore_state(image);
  same.start_phase(none);
  same.finish();
  EXPECT_EQ(same.completed_phases(), 5U);
}

// --- differential: random_path_program -----------------------------------------

constexpr event::PhaseId kPhases = 40;

class FusionDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusionDifferential, EngineMatchesSequentialExactly) {
  const Program program = testutil::random_path_program(GetParam());
  baseline::SequentialExecutor reference(program);
  reference.run(kPhases, nullptr);
  ASSERT_GT(reference.sinks().size(), 0U);
  bool fused = false;
  for (const std::size_t threads : {1, 2, 4}) {
    Engine engine(program, {.threads = threads, .max_inflight_phases = 8});
    engine.run(kPhases, nullptr);
    fused = fused || engine.instance().units() < engine.instance().n();
    EXPECT_EQ(engine.sinks().canonical(), reference.sinks().canonical())
        << "threads " << threads;
    EXPECT_EQ(engine.stats().executed_pairs, reference.stats().executed_pairs)
        << "threads " << threads;
    EXPECT_EQ(engine.stats().messages_delivered,
              reference.stats().messages_delivered)
        << "threads " << threads;
  }
  EXPECT_TRUE(fused) << "no engine contracted anything";
}

constexpr distrib::ChannelKind kBothKinds[] = {
    distrib::ChannelKind::kInProcess, distrib::ChannelKind::kSocket};

TEST_P(FusionDifferential, TransportMatchesSequentialExactly) {
  const Program program = testutil::random_path_program(GetParam());
  baseline::SequentialExecutor reference(program);
  reference.run(kPhases, nullptr);
  for (std::size_t machines = 1; machines <= 4; ++machines) {
    for (const distrib::ChannelKind kind : kBothKinds) {
      const std::string where = "machines " + std::to_string(machines) +
                                (kind == distrib::ChannelKind::kSocket
                                     ? " socket"
                                     : " in-process");
      distrib::TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      options.engine_threads = 1 + machines % 2;
      distrib::TransportEngine transport(program, options);
      transport.run(kPhases, nullptr);
      const auto& stats = transport.transport_stats();
      EXPECT_EQ(transport.sinks().canonical(), reference.sinks().canonical())
          << where;
      EXPECT_EQ(transport.stats().executed_pairs,
                reference.stats().executed_pairs)
          << where;
      EXPECT_EQ(transport.stats().messages_delivered,
                reference.stats().messages_delivered)
          << where;
      EXPECT_EQ(stats.local_messages + stats.remote_messages,
                reference.stats().messages_delivered)
          << where;
      EXPECT_EQ(stats.duplicates_dropped, stats.frames_replayed) << where;
    }
  }
}

TEST_P(FusionDifferential, TransportRecoversFromACrashExactly) {
  // The most upstream partition dies mid-checkpoint at phase 8: it has no
  // ingress, so every frame it re-sends reached its receiver before the
  // crash and the dedup ledger must match the replay count exactly.
  const Program program = testutil::random_path_program(GetParam());
  baseline::SequentialExecutor reference(program);
  reference.run(kPhases, nullptr);
  for (std::size_t machines = 1; machines <= 4; ++machines) {
    for (const distrib::ChannelKind kind : kBothKinds) {
      const std::string where =
          "machines " + std::to_string(machines) +
          (kind == distrib::ChannelKind::kSocket ? " socket" : " in-process");
      distrib::TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      options.checkpoint_every = 4;
      std::atomic<bool> fired{false};
      options.crash_hook = [&fired](std::size_t block, event::PhaseId phase,
                                    distrib::CrashPoint point) {
        bool expected = false;
        if (block == 0 && phase == 8 &&
            point == distrib::CrashPoint::kMidCheckpoint &&
            fired.compare_exchange_strong(expected, true)) {
          throw distrib::CrashSignal{};
        }
      };
      distrib::TransportEngine transport(program, options);
      transport.run(kPhases, nullptr);
      const auto& stats = transport.transport_stats();
      EXPECT_TRUE(fired.load()) << where;
      EXPECT_EQ(stats.restarts, 1U) << where;
      EXPECT_EQ(transport.sinks().canonical(), reference.sinks().canonical())
          << where;
      EXPECT_EQ(stats.duplicates_dropped, stats.frames_replayed) << where;
      if (machines > 1) {
        EXPECT_GT(stats.frames_replayed, 0U) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionDifferential,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- input-driven sources -------------------------------------------------------

using Batches = std::vector<std::vector<event::ExternalEvent>>;

/// External events for sensor_program: each phase a quarter of the sensors
/// (chosen by a seeded rng) report a reading, the rest stay silent.
Batches quarter_firing(const Program& program, std::uint32_t sensors,
                       event::PhaseId phases, std::uint64_t seed) {
  support::Rng rng(seed);
  Batches batches(phases);
  for (auto& batch : batches) {
    std::vector<std::uint32_t> order(sensors);
    for (std::uint32_t i = 0; i < sensors; ++i) {
      order[i] = i;
    }
    for (std::uint32_t i = 0; i < sensors / 4; ++i) {
      std::swap(order[i], order[i + rng.next_below(sensors - i)]);
      batch.push_back(event::ExternalEvent{
          program.dag.vertex("sensor" + std::to_string(order[i])), 0,
          event::Value(rng.next_normal(10.0, 1.0))});
    }
  }
  return batches;
}

/// The sensor sources' modules behind a wrapper that forwards on_phase and
/// persist_state but not needs_phase_signal.
Program with_opaque_sources(Program program) {
  class Opaque final : public model::Module {
   public:
    explicit Opaque(std::unique_ptr<model::Module> inner)
        : inner_(std::move(inner)) {}
    void on_phase(model::PhaseContext& ctx) override { inner_->on_phase(ctx); }
    void persist_state(support::StateArchive& ar) override {
      inner_->persist_state(ar);
    }

   private:
    std::unique_ptr<model::Module> inner_;
  };
  for (graph::VertexId v = 0; v < program.dag.vertex_count(); ++v) {
    if (program.dag.is_source(v)) {
      program.factories[v] = [inner = program.factories[v]] {
        return std::make_unique<Opaque>(inner());
      };
    }
  }
  return program;
}

/// Drives `instance` through `scheduler` single-threaded, up to 8 phases in
/// flight, applying each wave of ready pairs as one batch; returns the
/// pairs issued and leaves the sinks in `sinks`.
std::uint64_t replay_pairs(ProgramInstance& instance, Scheduler& scheduler,
                           const Batches& batches, SinkStore& sinks) {
  std::vector<event::InputBundle> bundles;
  std::vector<Scheduler::ReadyPair> ready;
  std::vector<Scheduler::StagedFinish> batch;
  std::uint64_t pairs = 0;
  event::PhaseId next = 1;
  while (next <= batches.size() || !scheduler.all_started_phases_complete()) {
    while (next <= batches.size() && scheduler.active_phase_count() < 8) {
      bundles.assign(scheduler.source_count(), {});
      for (const event::ExternalEvent& ev : batches[next - 1]) {
        bundles[instance.internal_index(ev.vertex) - 1].push_back(
            event::Message{ev.port, ev.value});
      }
      scheduler.start_phase(next, bundles, ready);
      ++next;
    }
    if (ready.empty()) {
      // Every issued pair is applied below, so nothing can be in flight.
      DF_CHECK(scheduler.all_started_phases_complete(),
               "replay stalled with phases in flight");
      continue;  // every started phase retired at its start
    }
    batch.clear();
    for (Scheduler::ReadyPair& pair : ready) {
      ExecutionResult result =
          execute_vertex(instance, pair.vertex, pair.phase, pair.bundle);
      sinks.record_batch(std::move(result.sink_records));
      batch.push_back(Scheduler::StagedFinish{pair.vertex, pair.phase,
                                              std::move(result.deliveries),
                                              std::move(pair.bundle)});
    }
    pairs += batch.size();
    ready.clear();
    scheduler.finish_execution_batch(batch, ready);
  }
  return pairs;
}

std::vector<bool> input_driven_flags(const ProgramInstance& instance) {
  std::vector<bool> flags(instance.source_count());
  for (std::uint32_t s = 1; s <= instance.source_count(); ++s) {
    flags[s - 1] = instance.input_driven(s);
  }
  return flags;
}

TEST(InputDriven, SensorGraphNeedsAboutTwentyFourPairsPerPhase) {
  // perfbench's sensor graph: 64 sensors in 8 groups, 16 firing per phase.
  constexpr event::PhaseId kSensorPhases = 400;
  const Program program = sensor_program(64, 8);
  const Batches batches = quarter_firing(program, 64, kSensorPhases, 5);
  baseline::SequentialExecutor reference(program);
  VectorFeed feed(batches);
  reference.run(kSensorPhases, &feed);

  ProgramInstance every(program);
  ProgramInstance skipping(program);
  ASSERT_EQ(skipping.units(), 81U);  // 64 chains, 8 gates, 8 sums, the `or`
  Scheduler all_sources(every.m());
  Scheduler fired_only(skipping.m(), Scheduler::kAllSources,
                       input_driven_flags(skipping));
  SinkStore every_sinks;
  SinkStore skipping_sinks;
  const std::uint64_t before =
      replay_pairs(every, all_sources, batches, every_sinks);
  const std::uint64_t after =
      replay_pairs(skipping, fired_only, batches, skipping_sinks);

  // Exactly the 48 silent sensors per phase go; every other pair stays.
  EXPECT_EQ(before - after, 48U * kSensorPhases);
  const double per_phase = static_cast<double>(after) / kSensorPhases;
  RecordProperty("pairs_per_phase_before",
                 std::to_string(static_cast<double>(before) / kSensorPhases));
  RecordProperty("pairs_per_phase_after", std::to_string(per_phase));
  EXPECT_GT(static_cast<double>(before) / kSensorPhases, 70.0);
  EXPECT_LE(per_phase, 25.0);
  EXPECT_GE(per_phase, 16.0);
  EXPECT_EQ(skipping_sinks.canonical(), reference.sinks().canonical());
  EXPECT_EQ(every_sinks.canonical(), reference.sinks().canonical());
}

TEST(InputDriven, EventlessPhaseRetiresInsideStartPhase) {
  const Program program = sensor_program(16, 4);
  ProgramInstance instance(program);
  Scheduler scheduler(instance.m(), Scheduler::kAllSources,
                      input_driven_flags(instance));
  std::vector<event::InputBundle> bundles(instance.source_count());
  std::vector<Scheduler::ReadyPair> ready;

  // Nothing fires and nothing is in flight: the phase is over at its start.
  scheduler.start_phase(1, bundles, ready);
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(scheduler.completed_through(), 1U);
  EXPECT_TRUE(scheduler.all_started_phases_complete());

  // Phase 2 carries one event; phase 3 none. Phase 3 has no pair of its own
  // but cannot overtake phase 2, so it retires with phase 2's last finish.
  const std::uint32_t sensor =
      instance.internal_index(program.dag.vertex("sensor3"));
  bundles.assign(instance.source_count(), {});
  bundles[sensor - 1].push_back(event::Message{0, event::Value(1.0)});
  scheduler.start_phase(2, bundles, ready);
  ASSERT_EQ(ready.size(), 1U);
  EXPECT_EQ(ready[0].vertex, sensor);
  bundles.assign(instance.source_count(), {});
  std::vector<Scheduler::ReadyPair> none;
  scheduler.start_phase(3, bundles, none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(scheduler.completed_through(), 1U);
  EXPECT_EQ(scheduler.x(3), scheduler.x(2));

  while (!ready.empty()) {
    std::vector<Scheduler::ReadyPair> next;
    for (Scheduler::ReadyPair& pair : ready) {
      ExecutionResult result =
          execute_vertex(instance, pair.vertex, pair.phase, pair.bundle);
      scheduler.finish_execution(pair.vertex, pair.phase, result.deliveries,
                                 std::move(pair.bundle), next);
    }
    ready = std::move(next);
  }
  EXPECT_EQ(scheduler.completed_through(), 3U);
  EXPECT_TRUE(scheduler.all_started_phases_complete());
}

TEST(InputDriven, EngineRetiresEventlessPhases) {
  const Program program = sensor_program(16, 4);
  for (const std::size_t threads : {1, 2}) {
    Engine engine(program, {.threads = threads, .max_inflight_phases = 2});
    engine.start();
    for (int p = 0; p < 10; ++p) {
      engine.start_phase(std::vector<event::ExternalEvent>{});
    }
    engine.finish();
    EXPECT_EQ(engine.completed_phases(), 10U) << "threads " << threads;
    EXPECT_EQ(engine.stats().executed_pairs, 0U) << "threads " << threads;
  }
}

TEST(InputDriven, WrapperWithoutTheDeclarationIsNeverSkipped) {
  constexpr event::PhaseId kWrappedPhases = 60;
  const Program program = sensor_program(16, 4);
  const Program wrapped = with_opaque_sources(program);
  const ProgramInstance instance(wrapped);
  for (std::uint32_t s = 1; s <= instance.source_count(); ++s) {
    EXPECT_FALSE(instance.input_driven(s)) << "source " << s;
  }
  const Batches batches = quarter_firing(program, 16, kWrappedPhases, 9);
  baseline::SequentialExecutor plain(program);
  VectorFeed plain_feed(batches);
  plain.run(kWrappedPhases, &plain_feed);
  baseline::SequentialExecutor opaque(wrapped);
  VectorFeed opaque_feed(batches);
  opaque.run(kWrappedPhases, &opaque_feed);
  // Every silent sensor runs (12 per phase), and the sinks do not move.
  EXPECT_EQ(opaque.stats().executed_pairs,
            plain.stats().executed_pairs + 12U * kWrappedPhases);
  EXPECT_EQ(opaque.sinks().canonical(), plain.sinks().canonical());

  Engine engine(wrapped, {.threads = 2});
  VectorFeed engine_feed(batches);
  engine.run(kWrappedPhases, &engine_feed);
  EXPECT_EQ(engine.stats().executed_pairs, opaque.stats().executed_pairs);
  EXPECT_EQ(engine.sinks().canonical(), plain.sinks().canonical());
}

/// The checks every executor must pass against the sequential reference on
/// the quarter-firing sensor program.
void expect_same_work(const Executor& candidate,
                      const baseline::SequentialExecutor& reference,
                      const std::string& where) {
  EXPECT_EQ(candidate.sinks().canonical(), reference.sinks().canonical())
      << where;
  EXPECT_EQ(candidate.stats().executed_pairs,
            reference.stats().executed_pairs)
      << where;
  EXPECT_EQ(candidate.stats().messages_delivered,
            reference.stats().messages_delivered)
      << where;
}

TEST(InputDriven, EveryExecutorSkipsTheSamePairs) {
  const Program program = sensor_program(16, 4);
  const Batches batches = quarter_firing(program, 16, kPhases, 3);
  baseline::SequentialExecutor reference(program);
  VectorFeed reference_feed(batches);
  reference.run(kPhases, &reference_feed);
  ASSERT_GT(reference.sinks().size(), 0U);
  // 4 firing sensors per phase, each running its ewma, plus downstream
  // work: far fewer than the 16 sources a phase signal would run.
  ASSERT_LT(reference.stats().executed_pairs, 16U * kPhases);

  baseline::LockstepExecutor lockstep(program, 2);
  VectorFeed lockstep_feed(batches);
  lockstep.run(kPhases, &lockstep_feed);
  expect_same_work(lockstep, reference, "lockstep");

  for (const std::size_t threads : {1, 2, 4}) {
    Engine engine(program, {.threads = threads, .max_inflight_phases = 8});
    VectorFeed feed(batches);
    engine.run(kPhases, &feed);
    expect_same_work(engine, reference,
                     "engine threads " + std::to_string(threads));
  }
  for (std::size_t machines = 1; machines <= 4; ++machines) {
    for (const distrib::ChannelKind kind : kBothKinds) {
      const std::string where =
          "machines " + std::to_string(machines) +
          (kind == distrib::ChannelKind::kSocket ? " socket" : " in-process");
      distrib::TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      options.engine_threads = 1 + machines % 2;
      distrib::TransportEngine transport(program, options);
      VectorFeed feed(batches);
      transport.run(kPhases, &feed);
      expect_same_work(transport, reference, where);
      EXPECT_EQ(transport.transport_stats().duplicates_dropped,
                transport.transport_stats().frames_replayed)
          << where;
    }
  }
}

TEST(InputDriven, TransportRecoversFromACrashExactly) {
  const Program program = sensor_program(16, 4);
  const Batches batches = quarter_firing(program, 16, kPhases, 4);
  baseline::SequentialExecutor reference(program);
  VectorFeed reference_feed(batches);
  reference.run(kPhases, &reference_feed);
  for (std::size_t machines = 1; machines <= 4; ++machines) {
    for (const distrib::ChannelKind kind : kBothKinds) {
      const std::string where =
          "machines " + std::to_string(machines) +
          (kind == distrib::ChannelKind::kSocket ? " socket" : " in-process");
      distrib::TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      options.checkpoint_every = 4;
      std::atomic<bool> fired{false};
      options.crash_hook = [&fired](std::size_t block, event::PhaseId phase,
                                    distrib::CrashPoint point) {
        bool expected = false;
        if (block == 0 && phase == 8 &&
            point == distrib::CrashPoint::kMidCheckpoint &&
            fired.compare_exchange_strong(expected, true)) {
          throw distrib::CrashSignal{};
        }
      };
      distrib::TransportEngine transport(program, options);
      VectorFeed feed(batches);
      transport.run(kPhases, &feed);
      const auto& stats = transport.transport_stats();
      EXPECT_TRUE(fired.load()) << where;
      EXPECT_EQ(stats.restarts, 1U) << where;
      EXPECT_EQ(transport.sinks().canonical(), reference.sinks().canonical())
          << where;
      EXPECT_EQ(stats.duplicates_dropped, stats.frames_replayed) << where;
    }
  }
}

}  // namespace
}  // namespace df::core
