// The computational-module interface (paper sections 1-2).
//
// Vertices of the computation graph are modules: models such as statistical
// regressions, moving averages, anomaly detectors, or simulations. A module
// is executed for a phase either because messages arrived on its inputs for
// that phase, or — for source vertices — because the environment delivered
// the per-phase "phase signal".
//
// Δ-dataflow contract: a module should emit() only when an output *changes*;
// information is conveyed by the absence of messages. Emitting every phase is
// allowed but forfeits the efficiency the algorithm is designed to exploit
// (the paper's "obvious solution"; see baseline::EagerExecutor).
//
// Determinism contract: on_phase must be a deterministic function of the
// module's state, the context's inputs, and the context rng. The rng is
// seeded per vertex and advances only when the vertex executes, and a vertex
// executes exactly the same phases in the same order under every executor,
// so deterministic modules make parallel runs bit-identical to the
// sequential reference (this is how the serializability tests work).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "event/message.hpp"
#include "event/phase.hpp"
#include "event/value.hpp"
#include "graph/dag.hpp"
#include "support/rng.hpp"
#include "support/state_archive.hpp"

namespace df::model {

/// Everything a module may observe and do while executing one phase.
class PhaseContext {
 public:
  virtual ~PhaseContext() = default;

  /// The phase being executed.
  virtual event::PhaseId phase() const = 0;

  /// True iff a message arrived on `port` *for this phase* (the input
  /// changed). Absence means the upstream value is unchanged.
  virtual bool has_input(graph::Port port) const = 0;

  /// The message that arrived this phase; DF_CHECKs has_input(port).
  virtual const event::Value& input(graph::Port port) const = 0;

  /// True iff `port` has ever received a message (including this phase).
  virtual bool has_latest(graph::Port port) const = 0;

  /// Most recent value seen on `port` (already including this phase's
  /// message if one arrived); DF_CHECKs has_latest(port).
  virtual const event::Value& latest(graph::Port port) const = 0;

  /// Emits a message on an output port. Ports with downstream edges deliver
  /// to successors in this same phase; dangling ports are recorded as sink
  /// output (read by "input/output units outside the data fusion system").
  virtual void emit(graph::Port port, event::Value value) = 0;

  /// Deterministic per-vertex random stream (for source simulation).
  virtual support::Rng& rng() = 0;
};

/// A computational module. One instance exists per vertex per executor run;
/// the executor guarantees on_phase is never called concurrently for the
/// same instance and that phases arrive in increasing order.
class Module {
 public:
  virtual ~Module() = default;
  virtual void on_phase(PhaseContext& ctx) = 0;

  /// Checkpoint hook: save-mode archives append every piece of mutable state
  /// on_phase reads besides its inputs and rng; load-mode archives read the
  /// same fields back in the same order (support::StateArchive is
  /// bidirectional, so one override serves both). Stateless modules keep the
  /// default no-op. A module that omits mutable state here silently breaks
  /// crash-restart determinism — the crash differential suite is the guard.
  virtual void persist_state(support::StateArchive&) {}

  /// Whether a source running this module needs the per-phase signal
  /// (paper section 3.1.2). A module returns false only if, in a phase
  /// without an input message, on_phase emits nothing, changes no state
  /// and draws no rng: the executors then skip such a source in phases
  /// whose external bundle is empty (DESIGN.md, "Input-driven sources").
  /// Wrappers that do not forward this keep the default, so they are
  /// never skipped.
  virtual bool needs_phase_signal() const { return true; }
};

/// Creates a fresh module instance. Executors instantiate their own copies
/// so parallel and sequential runs don't share state.
using ModuleFactory = std::function<std::unique_ptr<Module>()>;

/// Convenience: wraps a lambda `void(PhaseContext&)` as a Module.
class LambdaModule final : public Module {
 public:
  explicit LambdaModule(std::function<void(PhaseContext&)> body)
      : body_(std::move(body)) {}
  void on_phase(PhaseContext& ctx) override { body_(ctx); }

 private:
  std::function<void(PhaseContext&)> body_;
};

/// Factory for a default-constructible module type.
template <typename M, typename... Args>
ModuleFactory factory_of(Args... args) {
  return [args...]() { return std::make_unique<M>(args...); };
}

}  // namespace df::model
