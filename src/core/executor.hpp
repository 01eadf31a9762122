// Common executor interface plus the shared vertex-execution helper.
//
// Three executors implement this interface: the paper's parallel engine
// (core::Engine), the sequential phase-at-a-time reference
// (baseline::SequentialExecutor), the barrier-synchronized parallel baseline
// (baseline::LockstepExecutor), and the non-Δ "obvious solution"
// (baseline::EagerExecutor). Benches and the serializability checker swap
// them freely over the same Program.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/delivery.hpp"
#include "core/program.hpp"
#include "core/sink_store.hpp"
#include "event/message.hpp"
#include "event/phase.hpp"

namespace df::core {

/// Supplies the external events for each phase as it starts. Phases are
/// requested in order 1, 2, 3, ...
class PhaseFeed {
 public:
  virtual ~PhaseFeed() = default;
  virtual std::vector<event::ExternalEvent> events_for(event::PhaseId p) = 0;
};

/// A feed with no external events: sources run purely off phase signals and
/// their own rng streams (the paper's simulation mode).
class NullFeed final : public PhaseFeed {
 public:
  std::vector<event::ExternalEvent> events_for(event::PhaseId) override {
    return {};
  }
};

/// Replays pre-assembled batches (index 0 holds phase 1's events).
class VectorFeed final : public PhaseFeed {
 public:
  explicit VectorFeed(std::vector<std::vector<event::ExternalEvent>> batches)
      : batches_(std::move(batches)) {}
  std::vector<event::ExternalEvent> events_for(event::PhaseId p) override {
    return p - 1 < batches_.size() ? batches_[p - 1]
                                   : std::vector<event::ExternalEvent>{};
  }

 private:
  std::vector<std::vector<event::ExternalEvent>> batches_;
};

/// Adapts a lambda.
class CallbackFeed final : public PhaseFeed {
 public:
  using Fn = std::function<std::vector<event::ExternalEvent>(event::PhaseId)>;
  explicit CallbackFeed(Fn fn) : fn_(std::move(fn)) {}
  std::vector<event::ExternalEvent> events_for(event::PhaseId p) override {
    return fn_(p);
  }

 private:
  Fn fn_;
};

/// Counters every executor reports. "Bookkeeping" covers scheduler/set
/// maintenance under the lock; "compute" covers module on_phase bodies.
/// core::Engine times bookkeeping per worker batch, as the batch's wall
/// time minus its compute, so there it also includes sink recording,
/// routing, the wait for the global lock and the run-queue push.
struct ExecStats {
  /// Vertex executions (module on_phase runs), whatever the scheduling
  /// granularity: a fused unit's pair counts each member it ran.
  std::uint64_t executed_pairs = 0;
  /// Vertex-to-vertex deliveries, including those inside a fused unit.
  std::uint64_t messages_delivered = 0;
  std::uint64_t sink_records = 0;
  std::uint64_t phases_completed = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t bookkeeping_ns = 0;
  std::uint64_t max_inflight_phases = 0;
  double mean_inflight_phases = 0.0;
  double wall_seconds = 0.0;
  // Counters of the removed work-stealing dispatch. Every executor reports
  // them as 0; they are kept because the perfbench harness reads them.
  std::uint64_t steals_ok = 0;
  std::uint64_t parks = 0;

  double pairs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(executed_pairs) / wall_seconds;
  }
  double phases_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(phases_completed) / wall_seconds;
  }
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs phases 1..num_phases to completion. `feed` may be null (NullFeed
  /// semantics). Callable once per executor instance.
  virtual void run(event::PhaseId num_phases, PhaseFeed* feed) = 0;

  virtual const SinkStore& sinks() const = 0;
  virtual ExecStats stats() const = 0;
};

/// Result of executing one unit-phase pair (a single vertex unless the
/// instance fused a path; see ProgramInstance): messages to deliver to
/// other units (already split per route), sink records, and the raw
/// port-level emissions of a one-vertex unit (used by the eager baseline to
/// forward last outputs every phase).
struct ExecutionResult {
  /// (to_unit, to_port, value) triples, in emission order. The type is the
  /// scheduler's own delivery type (core::Delivery), so engine workers move
  /// the vector wholesale into a finish record — no per-pair repack between
  /// "what execution produced" and "what the scheduler applies".
  using Delivery = core::Delivery;
  std::vector<Delivery> deliveries;
  std::vector<SinkRecord> sink_records;
  std::vector<event::Message> emissions;
  /// Modules run (members of the unit that received input, the head always).
  std::uint32_t executed = 0;
  /// Messages passed from one member to the next inside the unit; with
  /// `deliveries` they make up the pair's vertex-to-vertex deliveries.
  std::uint32_t fused_messages = 0;
};

/// Runs unit `unit` for `phase`: applies the input bundle to the head's
/// latest-value table, runs its module, routes its emissions, then runs each
/// later member that received a message from the one before it. Shared by
/// every executor so Δ-semantics are identical everywhere. Not thread-safe
/// per unit (executors guarantee a unit executes one phase at a time). On an
/// unfused instance the unit is the vertex with the same internal index.
ExecutionResult execute_vertex(ProgramInstance& instance, std::uint32_t unit,
                               event::PhaseId phase,
                               const event::InputBundle& bundle);

}  // namespace df::core
