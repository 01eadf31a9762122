// Programs: a computation graph plus the module factories for its vertices.
//
// A Program is immutable and shareable; each executor builds its own
// ProgramInstance (fresh module state, topology remapped into the internal
// 1..N index space of the satisfactory numbering) so that parallel and
// sequential runs of the same Program are independent and comparable.
//
// An instance also fixes the run's scheduling granularity (DESIGN.md,
// "Operator fusion"): each single-predecessor path inside the executor's
// scope contracts into one scheduling unit, which the scheduler sees as one
// vertex. Module state, latest values, rng streams and sinks stay per vertex.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "event/message.hpp"
#include "event/phase.hpp"
#include "graph/dag.hpp"
#include "graph/numbering.hpp"
#include "model/module.hpp"
#include "support/rng.hpp"

namespace df::core {

struct Program {
  graph::Dag dag;
  graph::Numbering numbering;
  /// One factory per dense vertex id of `dag`.
  std::vector<model::ModuleFactory> factories;
  /// Root seed; each vertex's rng stream is forked from it by internal index.
  std::uint64_t seed = 0xdf5eedULL;
};

/// Validates the graph, computes a satisfactory numbering, and packages the
/// factories. DF_CHECKs that factory count matches vertex count.
Program make_program(graph::Dag dag,
                     std::vector<model::ModuleFactory> factories,
                     std::uint64_t seed = 0xdf5eedULL);

/// Per-vertex mutable execution state owned by one executor run.
struct VertexRuntime {
  std::unique_ptr<model::Module> module;
  /// Last value seen per input port (index == port); empty Value + false
  /// flag until the first message arrives.
  std::vector<event::Value> latest;
  std::vector<bool> has_latest;
  support::Rng rng{0};
  /// Messages from the previous member of this vertex's fused unit for the
  /// phase being executed (never used by a unit's head).
  event::InputBundle inbox;
};

/// Where single-predecessor paths may contract into one scheduling unit. v
/// joins u's unit when every in-edge of v comes from u, v is the only
/// successor of u with that property, and both lie in [begin, end].
struct FusionScope {
  /// Internal-index range one executor schedules: the whole program or one
  /// transport block.
  std::uint32_t begin = 1;
  std::uint32_t end = std::numeric_limits<std::uint32_t>::max();
  /// Width guard: the scope contracts only if it keeps at least this many
  /// units with no in-scope predecessor (the executor's worker count). A
  /// unit runs its phases one at a time, so fusing a lone chain would
  /// remove the cross-phase pipelining the workers feed on.
  std::size_t workers = 2;

  /// Vertex granularity: every vertex is its own unit.
  static FusionScope none() { return FusionScope{1, 0, 0}; }
};

/// One outgoing route of an internal vertex: deliver to (to_index, to_port).
struct Route {
  std::uint32_t to_index = 0;
  graph::Port to_port = 0;
};

/// A Program instantiated for one run: fresh modules, internal-index
/// topology, per-vertex rng streams. Internal indices run 1..n() and follow
/// the satisfactory numbering, so edges always go from lower to higher index
/// and sources are exactly the indices 1..m(0).
///
/// Scheduling units run 1..units(), ordered by their head (first member).
/// Every edge between units targets a head, so head order is topological
/// for the contracted graph, and m() is built over it (see block_m).
/// Sources are one-vertex units with unit index == internal index. Without
/// contraction, unit u is vertex u and m() is the numbering's m.
///
/// The instance stores its own copy of the Program, so executors may be
/// constructed from temporaries safely.
class ProgramInstance {
 public:
  /// The default scope is the whole program as a default two-worker
  /// core::Engine schedules it.
  explicit ProgramInstance(Program program, FusionScope fusion = {});

  std::uint32_t n() const { return n_; }
  /// m(u) for units u in 0..units() (paper section 3.1.1, over units).
  const std::vector<std::uint32_t>& m() const { return m_; }
  std::uint32_t source_count() const { return m_[0]; }
  bool is_source(std::uint32_t index) const { return index <= m_[0]; }
  /// True iff `index` is a source whose module needs no phase signal
  /// (Module::needs_phase_signal() == false, read once at construction):
  /// every executor but the eager baseline skips it in a phase that
  /// brings it no external event (DESIGN.md, "Input-driven sources").
  bool input_driven(std::uint32_t index) const { return input_driven_[index]; }

  std::uint32_t units() const {
    return static_cast<std::uint32_t>(member_begin_.size() - 2);
  }
  /// Unit holding internal index `index` (1..n(); unchecked, for the
  /// per-message routing path).
  std::uint32_t unit_of(std::uint32_t index) const { return unit_of_[index]; }
  /// Internal index of the unit's first member (unit in 1..units(), as for
  /// members()).
  std::uint32_t head(std::uint32_t unit) const {
    return members_[member_begin_[unit]];
  }
  /// The unit's internal indices in path order.
  std::span<const std::uint32_t> members(std::uint32_t unit) const {
    return {members_.data() + member_begin_[unit],
            members_.data() + member_begin_[unit + 1]};
  }
  /// m over the units of vertex block [begin, end] (m[0..B], block-local
  /// unit indices y == global unit first + y - 1; {0} for begin > end).
  /// A unit's release is its head's largest in-block predecessor unit; m
  /// counts the prefix maximum of the releases, which is non-decreasing
  /// and stays below its own index. DF_CHECKs that the block splits no
  /// unit, which holds for the block of the instance's scope.
  std::vector<std::uint32_t> block_m(std::uint32_t begin,
                                     std::uint32_t end) const;

  VertexRuntime& runtime(std::uint32_t index);
  graph::VertexId original_id(std::uint32_t index) const;
  std::uint32_t internal_index(graph::VertexId vertex) const;
  const std::string& name(std::uint32_t index) const;

  /// Routes out of (index, out_port); empty means the port is a sink port
  /// (emissions are recorded, not delivered).
  const std::vector<Route>& routes(std::uint32_t index,
                                   graph::Port out_port) const;
  std::size_t out_port_count(std::uint32_t index) const;

  const Program& program() const { return program_; }

 private:
  /// Builds unit_of_, member_begin_, members_ and m_ in a few linear
  /// sweeps over flat arrays.
  void contract(const FusionScope& fusion);

  Program program_;
  std::uint32_t n_;
  std::vector<std::uint32_t> m_;
  std::vector<std::uint32_t> unit_of_;       // [1..n], slot 0 unused
  std::vector<std::uint32_t> member_begin_;  // [1..units + 1] into members_
  std::vector<std::uint32_t> members_;       // grouped by unit, path order
  std::vector<VertexRuntime> runtimes_;           // [1..n], slot 0 unused
  std::vector<bool> input_driven_;                // [1..n], slot 0 unused
  std::vector<std::vector<std::vector<Route>>> routes_;  // [index][out_port]
  static const std::vector<Route> kNoRoutes;
};

}  // namespace df::core
