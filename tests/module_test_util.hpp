// Shared helpers for model tests: run_module runs a module under test
// against scripted input streams (one ReplaySource per input port) on the
// sequential executor, returning the module's emissions as (phase, value)
// pairs; checkpoint_round_trip checks that Module::persist_state carries
// everything the module's later output depends on.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "baseline/sequential.hpp"
#include "core/program.hpp"
#include "event/value.hpp"
#include "model/module.hpp"
#include "model/sources.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/state_archive.hpp"

namespace df::testutil {

using Script = std::vector<std::optional<event::Value>>;
using Emission = std::pair<event::PhaseId, event::Value>;

/// Runs `factory`'s module with `scripts[i]` feeding input port i.
/// The run lasts max(script lengths) phases unless `phases` is larger.
inline std::vector<Emission> run_module(model::ModuleFactory factory,
                                        std::vector<Script> scripts,
                                        event::PhaseId phases = 0,
                                        std::uint64_t seed = 1) {
  spec::GraphBuilder builder;
  std::vector<graph::VertexId> sources;
  event::PhaseId length = phases;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    length = std::max<event::PhaseId>(length, scripts[i].size());
    sources.push_back(builder.add(
        "in" + std::to_string(i),
        [script = scripts[i]] {
          return std::make_unique<model::ReplaySource>(script);
        }));
  }
  const graph::VertexId module =
      builder.add("module", std::move(factory));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    builder.connect(sources[i], 0, module, static_cast<graph::Port>(i));
  }
  const core::Program program = std::move(builder).build(seed);

  baseline::SequentialExecutor executor(program);
  executor.run(length, nullptr);

  std::vector<Emission> out;
  for (const core::SinkRecord& record : executor.sinks().canonical()) {
    if (record.vertex == module) {
      out.emplace_back(record.phase, record.value);
    }
  }
  return out;
}

/// A PhaseContext over scripted inputs: port i receives scripts[i][p - 1]
/// in phase p when that entry is set. Latest values live in the context,
/// as they live in the executor, not in the module.
class ScriptedContext final : public model::PhaseContext {
 public:
  explicit ScriptedContext(const std::vector<Script>& scripts)
      : scripts_(scripts), latest_(scripts.size()) {}

  /// Moves to phase p: applies its inputs to the latest-value table and
  /// clears the emissions of the previous phase.
  void begin(event::PhaseId p) {
    phase_ = p;
    emitted_.clear();
    for (std::size_t port = 0; port < scripts_.size(); ++port) {
      if (const auto* in = input_at(static_cast<graph::Port>(port))) {
        latest_[port] = *in;
      }
    }
  }
  const std::vector<Emission>& emitted() const { return emitted_; }

  event::PhaseId phase() const override { return phase_; }
  bool has_input(graph::Port port) const override {
    return input_at(port) != nullptr;
  }
  const event::Value& input(graph::Port port) const override {
    DF_CHECK(has_input(port), "no input on port ", port);
    return *input_at(port);
  }
  bool has_latest(graph::Port port) const override {
    return port < latest_.size() && latest_[port].has_value();
  }
  const event::Value& latest(graph::Port port) const override {
    DF_CHECK(has_latest(port), "port ", port, " never received a value");
    return *latest_[port];
  }
  void emit(graph::Port, event::Value value) override {
    emitted_.emplace_back(phase_, std::move(value));
  }
  support::Rng& rng() override { return rng_; }

 private:
  const event::Value* input_at(graph::Port port) const {
    if (port >= scripts_.size() || phase_ > scripts_[port].size() ||
        !scripts_[port][phase_ - 1].has_value()) {
      return nullptr;
    }
    return &*scripts_[port][phase_ - 1];
  }

  const std::vector<Script>& scripts_;
  std::vector<std::optional<event::Value>> latest_;
  std::vector<Emission> emitted_;
  event::PhaseId phase_ = 0;
  support::Rng rng_{1};
};

/// Emissions after the checkpoint phase from three instances of one module.
struct RoundTrip {
  std::vector<Emission> uninterrupted;  // ran every phase
  std::vector<Emission> restored;       // restored from its image at k
  std::vector<Emission> unrestored;     // fresh at k, never restored
};

/// Runs `factory`'s module over `scripts` for phases 1..k, snapshots it with
/// persist_state, restores the image into a fresh instance, and runs the
/// original, the restored and a fresh unrestored instance over phases
/// k+1..end. A module whose persist_state is complete makes `restored`
/// equal `uninterrupted`; `unrestored` shows the state mattered.
inline RoundTrip checkpoint_round_trip(model::ModuleFactory factory,
                                       const std::vector<Script>& scripts,
                                       event::PhaseId k) {
  event::PhaseId length = 0;
  for (const Script& script : scripts) {
    length = std::max<event::PhaseId>(length, script.size());
  }
  std::unique_ptr<model::Module> original = factory();
  ScriptedContext ctx(scripts);
  for (event::PhaseId p = 1; p <= k; ++p) {
    ctx.begin(p);
    original->on_phase(ctx);
  }
  auto saver = support::StateArchive::saver();
  original->persist_state(saver);
  std::unique_ptr<model::Module> restored = factory();
  auto loader = support::StateArchive::loader(std::move(saver).take());
  restored->persist_state(loader);
  loader.finish();
  std::unique_ptr<model::Module> unrestored = factory();

  RoundTrip out;
  for (event::PhaseId p = k + 1; p <= length; ++p) {
    ctx.begin(p);
    for (auto [module, sink] :
         {std::pair{original.get(), &out.uninterrupted},
          std::pair{restored.get(), &out.restored},
          std::pair{unrestored.get(), &out.unrestored}}) {
      const std::size_t before = ctx.emitted().size();
      module->on_phase(ctx);
      sink->insert(sink->end(), ctx.emitted().begin() + before,
                   ctx.emitted().end());
    }
  }
  return out;
}

/// Script helper: a value at every phase 1..n from a generator.
template <typename Fn>
Script script_of(event::PhaseId n, Fn fn) {
  Script script;
  for (event::PhaseId p = 1; p <= n; ++p) {
    script.push_back(event::Value(fn(p)));
  }
  return script;
}

}  // namespace df::testutil
