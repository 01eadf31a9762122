#include "core/program.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace df::core {

const std::vector<Route> ProgramInstance::kNoRoutes;

Program make_program(graph::Dag dag,
                     std::vector<model::ModuleFactory> factories,
                     std::uint64_t seed) {
  DF_CHECK(factories.size() == dag.vertex_count(),
           "factory count ", factories.size(), " != vertex count ",
           dag.vertex_count());
  for (std::size_t i = 0; i < factories.size(); ++i) {
    DF_CHECK(static_cast<bool>(factories[i]), "vertex '", dag.name(
                 static_cast<graph::VertexId>(i)), "' has no module factory");
  }
  Program program;
  program.numbering = graph::compute_satisfactory_numbering(dag);
  program.dag = std::move(dag);
  program.factories = std::move(factories);
  program.seed = seed;
  return program;
}

ProgramInstance::ProgramInstance(Program program, FusionScope fusion)
    : program_(std::move(program)),
      n_(static_cast<std::uint32_t>(program_.dag.vertex_count())) {
  runtimes_.resize(n_ + 1);
  routes_.resize(n_ + 1);
  input_driven_.assign(n_ + 1, false);
  const support::Rng root(program_.seed);
  for (std::uint32_t index = 1; index <= n_; ++index) {
    const graph::VertexId orig = program_.numbering.vertex_at[index];
    VertexRuntime& rt = runtimes_[index];
    rt.module = program_.factories[orig]();
    DF_CHECK(rt.module != nullptr, "factory for vertex '",
             program_.dag.name(orig), "' returned null");
    rt.rng = root.fork(index);
    input_driven_[index] = program_.dag.is_source(orig) &&
                           !rt.module->needs_phase_signal();
    const std::size_t ports = program_.dag.in_port_count(orig);
    rt.latest.resize(ports);
    rt.has_latest.assign(ports, false);

    routes_[index].resize(program_.dag.out_port_count(orig));
    for (const graph::Edge& e : program_.dag.out_edges(orig)) {
      routes_[index][e.from_port].push_back(
          Route{program_.numbering.index_of[e.to], e.to_port});
    }
  }
  contract(fusion);
}

void ProgramInstance::contract(const FusionScope& fusion) {
  const graph::Dag& dag = program_.dag;
  const graph::Numbering& numbering = program_.numbering;
  const std::uint32_t begin = std::max<std::uint32_t>(fusion.begin, 1);
  const std::uint32_t end = std::min(fusion.end, n_);
  const auto in_scope = [begin, end](std::uint32_t i) {
    return i >= begin && i <= end;
  };
  // Sweep 1: each in-scope vertex's sole predecessor, when every in-edge
  // comes from one in-scope vertex (0 otherwise), how many successors name
  // each vertex so, and the scope's roots (no in-scope predecessor).
  std::vector<std::uint32_t> sole_pred(n_ + 1, 0);
  std::vector<std::uint32_t> sole_succs(n_ + 1, 0);
  std::size_t roots = 0;
  for (std::uint32_t v = begin; v <= end; ++v) {
    std::uint32_t pred = 0;
    bool sole = true;
    bool root = true;
    for (const graph::Edge& e : dag.in_edges(numbering.vertex_at[v])) {
      const std::uint32_t u = numbering.index_of[e.from];
      sole = sole && (pred == 0 || u == pred) && in_scope(u);
      root = root && !in_scope(u);
      pred = u;
    }
    roots += root ? 1 : 0;
    if (sole && pred != 0) {
      sole_pred[v] = pred;
      ++sole_succs[pred];
    }
  }
  // Sweep 2: v joins its sole predecessor's unit when it is that vertex's
  // only such successor, so every unit is a path. Units are numbered in
  // head order; a predecessor always precedes v, so its unit is known.
  const bool fuse = begin <= end && roots >= fusion.workers;
  unit_of_.assign(n_ + 1, 0);
  std::uint32_t units = 0;
  for (std::uint32_t v = 1; v <= n_; ++v) {
    const std::uint32_t u = sole_pred[v];
    unit_of_[v] = fuse && u != 0 && sole_succs[u] == 1 ? unit_of_[u] : ++units;
  }
  // Sweep 3: members grouped by unit (a counting sort); ascending index
  // within a unit is path order.
  member_begin_.assign(units + 2, 0);
  for (std::uint32_t v = 1; v <= n_; ++v) {
    ++member_begin_[unit_of_[v] + 1];
  }
  for (std::uint32_t u = 1; u <= units; ++u) {
    member_begin_[u + 1] += member_begin_[u];
  }
  members_.resize(n_);
  std::vector<std::uint32_t>& next = sole_succs;  // reused as fill cursors
  std::copy(member_begin_.begin(), member_begin_.end() - 1, next.begin());
  for (std::uint32_t v = 1; v <= n_; ++v) {
    members_[next[unit_of_[v]]++] = v;
  }
  m_ = block_m(1, n_);
}

std::vector<std::uint32_t> ProgramInstance::block_m(std::uint32_t begin,
                                                    std::uint32_t end) const {
  if (begin > end) {
    return {0};  // empty block: no units, m(0) = 0
  }
  DF_CHECK(begin >= 1 && end <= n_, "block [", begin, ", ", end,
           "] outside internal index range 1..", n_);
  const std::uint32_t first = unit_of_[begin];
  const std::uint32_t last = end == n_ ? units() : unit_of_[end + 1] - 1;
  DF_CHECK(head(first) == begin && (end == n_ || head(unit_of_[end + 1]) ==
                                                     end + 1),
           "block [", begin, ", ", end, "] splits a fused unit");
  // The local release of a unit is the largest local unit index among its
  // head's in-block predecessors (0 if none; the other members receive only
  // from inside the unit). Releases are not non-decreasing in unit order:
  // a block drops remote predecessors, and a non-head member can carry a
  // later internal index than a later unit's head. Their prefix maximum is
  // non-decreasing and below its own index, so m(x) = |{y : R_y <= x}| is a
  // satisfactory m with m(x) >= x + 1 — conservative, never early: when
  // units <= x have finished a phase, every in-block predecessor of the
  // units <= m(x) has, and remote inputs arrive at phase start (the
  // transport's watermark handshake).
  const std::uint32_t b = last - first + 1;
  std::vector<std::uint32_t> m(b + 1, 0);
  std::uint32_t running_release = 0;
  for (std::uint32_t y = 1; y <= b; ++y) {
    const graph::VertexId h =
        program_.numbering.vertex_at[head(first + y - 1)];
    for (const graph::Edge& e : program_.dag.in_edges(h)) {
      const std::uint32_t pred = program_.numbering.index_of[e.from];
      if (pred >= begin && pred <= end) {
        running_release = std::max(running_release, unit_of_[pred] - first + 1);
      }
    }
    ++m[running_release];
  }
  for (std::uint32_t x = 1; x <= b; ++x) {
    m[x] += m[x - 1];
  }
  return m;
}

VertexRuntime& ProgramInstance::runtime(std::uint32_t index) {
  DF_CHECK(index >= 1 && index <= n_, "internal index out of range");
  return runtimes_[index];
}

graph::VertexId ProgramInstance::original_id(std::uint32_t index) const {
  DF_CHECK(index >= 1 && index <= n_, "internal index out of range");
  return program_.numbering.vertex_at[index];
}

std::uint32_t ProgramInstance::internal_index(graph::VertexId vertex) const {
  DF_CHECK(vertex < n_, "vertex id out of range");
  return program_.numbering.index_of[vertex];
}

const std::string& ProgramInstance::name(std::uint32_t index) const {
  return program_.dag.name(original_id(index));
}

const std::vector<Route>& ProgramInstance::routes(
    std::uint32_t index, graph::Port out_port) const {
  DF_CHECK(index >= 1 && index <= n_, "internal index out of range");
  const auto& per_port = routes_[index];
  if (out_port >= per_port.size()) {
    return kNoRoutes;
  }
  return per_port[out_port];
}

std::size_t ProgramInstance::out_port_count(std::uint32_t index) const {
  DF_CHECK(index >= 1 && index <= n_, "internal index out of range");
  return routes_[index].size();
}

}  // namespace df::core
