// Sequential phase-at-a-time reference executor.
//
// "One solution is to require the data fusion engine to complete execution
// of one phase before initiating execution of the next phase" (paper
// section 2). This executor does exactly that, with Δ-semantics: within a
// phase it visits vertices in increasing internal index (a topological
// order), executing sources and any vertex with pending messages.
// Input-driven sources (Module::needs_phase_signal() == false) run only in
// phases that bring them an event, exactly as the engine schedules them, so
// executed_pairs agrees across executors.
//
// It is the correctness oracle: the parallel engine is serializable iff its
// canonical sink stream equals this executor's for every program and feed.
#pragma once

#include "core/executor.hpp"

namespace df::baseline {

class SequentialExecutor final : public core::Executor {
 public:
  explicit SequentialExecutor(const core::Program& program);

  void run(event::PhaseId num_phases, core::PhaseFeed* feed) override;

  const core::SinkStore& sinks() const override { return sinks_; }
  core::ExecStats stats() const override { return stats_; }

 private:
  core::ProgramInstance instance_;
  core::SinkStore sinks_;
  core::ExecStats stats_;
};

}  // namespace df::baseline
