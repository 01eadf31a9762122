// Shared workload builders for the bench binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

namespace df::bench {

/// Busywork over an arbitrary pre-built shape.
inline core::Program busywork_over(const graph::Dag& shape,
                                   std::uint64_t grain_ns,
                                   std::uint64_t seed) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    if (fan_in == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkSource>(
                              grain_ns, 1.0)));
    } else {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkModule>(
                              grain_ns, fan_in, 1.0)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

/// The paper's section 4 workload: "identical computations" — a layered DAG
/// in which every vertex spins for `grain_ns` per execution and always
/// forwards, so every vertex executes every phase.
inline core::Program uniform_busywork_program(std::uint32_t layers,
                                              std::uint32_t width,
                                              std::uint64_t grain_ns,
                                              std::uint64_t seed) {
  support::Rng rng(seed);
  return busywork_over(graph::layered(layers, width, 2, rng), grain_ns, seed);
}

}  // namespace df::bench
