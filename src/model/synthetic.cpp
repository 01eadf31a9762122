#include "model/synthetic.hpp"

#include "support/stopwatch.hpp"

namespace df::model {

BusyWorkSource::BusyWorkSource(std::uint64_t spin_ns, double emit_probability)
    : spin_ns_(spin_ns), emit_probability_(emit_probability) {}

void BusyWorkSource::on_phase(PhaseContext& ctx) {
  if (spin_ns_ > 0) {
    support::spin_work_ns(spin_ns_);
  }
  if (ctx.rng().next_bernoulli(emit_probability_)) {
    ctx.emit(0, static_cast<std::int64_t>(ctx.phase()));
  }
}

BusyWorkModule::BusyWorkModule(std::uint64_t spin_ns, std::size_t fan_in,
                               double emit_probability)
    : spin_ns_(spin_ns), fan_in_(fan_in),
      emit_probability_(emit_probability) {}

void BusyWorkModule::on_phase(PhaseContext& ctx) {
  if (spin_ns_ > 0) {
    support::spin_work_ns(spin_ns_);
  }
  double sum = 0.0;
  bool any = false;
  for (std::size_t port = 0; port < fan_in_; ++port) {
    const auto p = static_cast<graph::Port>(port);
    if (ctx.has_input(p)) {
      sum += ctx.input(p).as_number();
      any = true;
    }
  }
  if (any && ctx.rng().next_bernoulli(emit_probability_)) {
    ctx.emit(0, sum);
  }
}

void ForwardModule::on_phase(PhaseContext& ctx) {
  if (ctx.has_input(0)) {
    ctx.emit(0, ctx.input(0));
  }
}

void NoOpModule::on_phase(PhaseContext& ctx) { (void)ctx; }

}  // namespace df::model
