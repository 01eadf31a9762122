#include "core/executor.hpp"

#include "support/check.hpp"

namespace df::core {

namespace {

/// PhaseContext implementation shared by all executors. Input lookups scan
/// the bundle linearly: fan-in is small in practice and the bundle is
/// already in cache. Emissions append to the caller's buffer, which the
/// members of a fused unit share.
class ContextImpl final : public model::PhaseContext {
 public:
  ContextImpl(VertexRuntime& runtime, event::PhaseId phase,
              const event::InputBundle& bundle,
              std::vector<event::Message>& emissions)
      : runtime_(runtime),
        phase_(phase),
        bundle_(bundle),
        emissions_(emissions) {
    // Apply the bundle to the latest-value table first, so latest() already
    // reflects this phase (messages later in the bundle win per port).
    for (const event::Message& msg : bundle_) {
      if (msg.port >= runtime_.latest.size()) {
        runtime_.latest.resize(msg.port + 1);
        runtime_.has_latest.resize(msg.port + 1, false);
      }
      runtime_.latest[msg.port] = msg.value;
      runtime_.has_latest[msg.port] = true;
    }
  }

  event::PhaseId phase() const override { return phase_; }

  bool has_input(graph::Port port) const override {
    for (const event::Message& msg : bundle_) {
      if (msg.port == port) {
        return true;
      }
    }
    return false;
  }

  const event::Value& input(graph::Port port) const override {
    const event::Value* found = nullptr;
    for (const event::Message& msg : bundle_) {
      if (msg.port == port) {
        found = &msg.value;  // last message on the port wins
      }
    }
    DF_CHECK(found != nullptr, "no input on port ", port, " this phase");
    return *found;
  }

  bool has_latest(graph::Port port) const override {
    return port < runtime_.has_latest.size() && runtime_.has_latest[port];
  }

  const event::Value& latest(graph::Port port) const override {
    DF_CHECK(has_latest(port), "port ", port, " has never received a value");
    return runtime_.latest[port];
  }

  void emit(graph::Port port, event::Value value) override {
    emissions_.push_back(event::Message{port, std::move(value)});
  }

  support::Rng& rng() override { return runtime_.rng; }

 private:
  VertexRuntime& runtime_;
  event::PhaseId phase_;
  const event::InputBundle& bundle_;
  std::vector<event::Message>& emissions_;
};

}  // namespace

ExecutionResult execute_vertex(ProgramInstance& instance, std::uint32_t unit,
                               event::PhaseId phase,
                               const event::InputBundle& bundle) {
  DF_CHECK(unit >= 1 && unit <= instance.units(), "unit index ", unit,
           " out of range 1..", instance.units());
  ExecutionResult result;
  const std::span<const std::uint32_t> members = instance.members(unit);
  std::vector<event::Message> emissions;
  // Path order: a member runs only if the previous one sent it a message
  // this phase, and nothing else can reach it, so the first silent member
  // ends the unit's phase (Δ-semantics, as if each were its own pair).
  for (std::size_t k = 0; k < members.size(); ++k) {
    const std::uint32_t index = members[k];
    VertexRuntime& runtime = instance.runtime(index);
    if (k > 0 && runtime.inbox.empty()) {
      break;
    }
    emissions.clear();
    ContextImpl ctx(runtime, phase, k == 0 ? bundle : runtime.inbox,
                    emissions);
    runtime.module->on_phase(ctx);
    ++result.executed;
    runtime.inbox.clear();
    event::InputBundle* next = nullptr;
    if (k + 1 < members.size()) {
      next = &instance.runtime(members[k + 1]).inbox;
      next->clear();  // a module that threw last phase may have left input
    }
    const graph::VertexId original = instance.original_id(index);
    for (const event::Message& msg : emissions) {
      const std::vector<Route>& routes = instance.routes(index, msg.port);
      if (routes.empty()) {
        // Dangling port: sink output, read from outside the fusion system.
        result.sink_records.push_back(
            SinkRecord{phase, original, msg.port, msg.value});
        continue;
      }
      for (const Route& route : routes) {
        const std::uint32_t to_unit = instance.unit_of(route.to_index);
        if (to_unit == unit) {
          // Within the unit the only receiver is the next member.
          next->push_back(event::Message{route.to_port, msg.value});
          ++result.fused_messages;
        } else {
          result.deliveries.push_back(
              ExecutionResult::Delivery{to_unit, route.to_port, msg.value});
        }
      }
    }
  }
  if (members.size() == 1) {
    result.emissions = std::move(emissions);
  }
  return result;
}

}  // namespace df::core
