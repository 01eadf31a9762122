// Synthetic workload modules for the performance experiments.
//
// The paper's section 4 measures "identical computations" with varying
// thread counts and predicts near-linear speedup "as long as the
// computations performed by the vertices take significantly more time than
// the computations performed to maintain the data structures". BusyWork
// makes that grain explicit: each execution spins through a fixed amount of
// work, calibrated once per process to a configurable number of nanoseconds
// of CPU time (support::spin_work_ns), before forwarding.
#pragma once

#include <cstdint>

#include "model/module.hpp"

namespace df::model {

/// Source that spins through `spin_ns` of calibrated work and emits the
/// phase number every phase with probability `emit_probability`.
class BusyWorkSource final : public Module {
 public:
  explicit BusyWorkSource(std::uint64_t spin_ns,
                          double emit_probability = 1.0);
  void on_phase(PhaseContext& ctx) override;

 private:
  std::uint64_t spin_ns_;
  double emit_probability_;
};

/// Interior vertex: spins through `spin_ns` of calibrated work on every
/// execution, then forwards the sum of its changed inputs with probability
/// `emit_probability`.
class BusyWorkModule final : public Module {
 public:
  BusyWorkModule(std::uint64_t spin_ns, std::size_t fan_in,
                 double emit_probability = 1.0);
  void on_phase(PhaseContext& ctx) override;

 private:
  std::uint64_t spin_ns_;
  std::size_t fan_in_;
  double emit_probability_;
};

/// Forwards input port 0 to output port 0 unchanged. Zero-work plumbing for
/// bookkeeping-overhead measurements (the grain=0 extreme).
class ForwardModule final : public Module {
 public:
  void on_phase(PhaseContext& ctx) override;
};

/// Consumes inputs and does nothing. Terminal no-op.
class NoOpModule final : public Module {
 public:
  void on_phase(PhaseContext& ctx) override;
};

}  // namespace df::model
