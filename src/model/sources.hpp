// Source modules: simulated sensors and event feeds.
//
// Source vertices have no graph inputs; the environment delivers a phase
// signal every phase (paper section 3.1.2) and optionally external events on
// input port 0. Each source draws from its own deterministic rng stream, so
// a given Program replays identically under every executor — the paper's
// prototype likewise takes "random seeds to use for the generation of random
// values by source vertices" from its specification file.
//
// Δ-discipline: sources that model slowly-changing signals emit only when
// their value moves materially, so downstream traffic reflects information,
// not sampling rate.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "model/module.hpp"

namespace df::model {

/// Emits a constant once, on the first phase. The canonical "nothing ever
/// changes" source for scheduler tests.
class ConstantSource final : public Module {
 public:
  explicit ConstantSource(event::Value value);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.boolean(emitted_);
  }

 private:
  event::Value value_;
  bool emitted_ = false;
};

/// Emits the phase number every phase; maximally chatty.
class CounterSource final : public Module {
 public:
  void on_phase(PhaseContext& ctx) override;
};

/// Emits an independent uniform double each phase with probability
/// emit_probability.
class UniformSource final : public Module {
 public:
  UniformSource(double lo, double hi, double emit_probability = 1.0);
  void on_phase(PhaseContext& ctx) override;

 private:
  double lo_;
  double hi_;
  double emit_probability_;
};

/// Emits a Gaussian sample each phase with probability emit_probability.
class GaussianSource final : public Module {
 public:
  GaussianSource(double mean, double stddev, double emit_probability = 1.0);
  void on_phase(PhaseContext& ctx) override;

 private:
  double mean_;
  double stddev_;
  double emit_probability_;
};

/// Random walk that advances every phase but emits only when it has drifted
/// at least `emit_threshold` from the last emitted value — a model of a
/// sensor that reports on change.
class RandomWalkSource final : public Module {
 public:
  RandomWalkSource(double start, double step_stddev, double emit_threshold);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.f64(value_);
    ar.optional(last_emitted_,
                [](support::StateArchive& a, double& x) { a.f64(x); });
  }

 private:
  double value_;
  double step_stddev_;
  double emit_threshold_;
  std::optional<double> last_emitted_;
};

/// Sinusoidal daily temperature with noise (the paper's energy-pricing
/// example): base + amplitude * sin(2*pi*phase/period) + N(0, noise).
/// Emits when the reading moved at least `report_delta` since last report.
class TemperatureSource final : public Module {
 public:
  TemperatureSource(double base, double amplitude, std::uint64_t period,
                    double noise, double report_delta);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.optional(last_reported_,
                [](support::StateArchive& a, double& x) { a.f64(x); });
  }

 private:
  double base_;
  double amplitude_;
  std::uint64_t period_;
  double noise_;
  double report_delta_;
  std::optional<double> last_reported_;
};

/// Banking transactions (the paper's money-laundering example): every phase
/// emits an amount ~ LogNormal-ish (|N(mean, sigma)|); with probability
/// anomaly_rate the amount is scaled by anomaly_scale. Port 0: amount.
class TransactionSource final : public Module {
 public:
  TransactionSource(double mean, double sigma, double anomaly_rate,
                    double anomaly_scale);
  void on_phase(PhaseContext& ctx) override;

 private:
  double mean_;
  double sigma_;
  double anomaly_rate_;
  double anomaly_scale_;
};

/// Disease incidence counts (the paper's bioterror example): Poisson(base)
/// per phase, with occasional outbreaks that multiply the mean and decay
/// geometrically. Emits the count only when it changes.
class DiseaseIncidenceSource final : public Module {
 public:
  DiseaseIncidenceSource(double base_rate, double outbreak_probability,
                         double outbreak_boost, double decay);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.f64(current_boost_);
    ar.optional(last_emitted_,
                [](support::StateArchive& a, std::int64_t& x) { a.i64(x); });
  }

 private:
  double base_rate_;
  double outbreak_probability_;
  double outbreak_boost_;
  double decay_;
  double current_boost_ = 1.0;
  std::optional<std::int64_t> last_emitted_;
};

/// Mostly silent; enters a burst with probability burst_probability, then
/// emits `1.0` for a geometric number of phases (mean burst_length).
/// Workload knob for the sparsity experiments.
class BurstSource final : public Module {
 public:
  BurstSource(double burst_probability, double mean_burst_length);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.boolean(in_burst_);
  }

 private:
  double burst_probability_;
  double continue_probability_;
  bool in_burst_ = false;
};

/// Bernoulli(p) event source: emits `true` with probability p per phase and
/// nothing otherwise. The knob behind bench_sparsity's anomaly-rate sweep.
class SparseEventSource final : public Module {
 public:
  explicit SparseEventSource(double probability,
                             event::Value payload = event::Value(true));
  void on_phase(PhaseContext& ctx) override;

 private:
  double probability_;
  event::Value payload_;
};

/// Replays a fixed per-phase script: script[p-1] is emitted at phase p if
/// present. The deterministic workhorse of the scheduler unit tests.
class ReplaySource final : public Module {
 public:
  explicit ReplaySource(std::vector<std::optional<event::Value>> script);
  void on_phase(PhaseContext& ctx) override;

 private:
  std::vector<std::optional<event::Value>> script_;
};

/// Forwards external events injected by the environment (input port 0) to
/// output port 0. Use with Engine::start_phase / PhaseFeed. Input-driven:
/// a phase without an event runs nothing for it.
class ExternalPassthroughSource final : public Module {
 public:
  void on_phase(PhaseContext& ctx) override;
  bool needs_phase_signal() const override { return false; }
};

}  // namespace df::model
