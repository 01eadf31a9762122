// The randomized Δ-program corpora shared by the differential suites
// (test_serializability.cpp for the parallel engine, test_transport.cpp for
// the partitioned transport, test_fusion.cpp for operator fusion):
//
//  * random_program: a random DAG whose sources are a mix of chatty and
//    sparse generators and whose interior vertices are a mix of stateful
//    models, so sink streams exercise every Value kind the executors route;
//  * random_path_program: many sources, each followed by a random-length
//    single-predecessor path, the paths merging at fan-in joins — the shape
//    operator fusion contracts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

namespace df::testutil {

inline core::Program random_program(std::uint64_t seed) {
  support::Rng rng(seed);
  const graph::Dag shape = graph::random_dag(
      8 + static_cast<std::uint32_t>(seed % 16), 0.3, rng);

  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    model::ModuleFactory factory;
    if (fan_in == 0) {
      switch (rng.next_below(4)) {
        case 0:
          factory = model::factory_of<model::CounterSource>();
          break;
        case 1:
          factory = model::factory_of<model::GaussianSource>(5.0, 2.0, 0.7);
          break;
        case 2:
          factory = model::factory_of<model::SparseEventSource>(
              0.15, event::Value(1.0));
          break;
        default:
          factory = model::factory_of<model::RandomWalkSource>(0.0, 1.0, 0.5);
      }
    } else {
      switch (rng.next_below(5)) {
        case 0:
          factory = model::factory_of<model::SumModule>(fan_in);
          break;
        case 1:
          factory = model::factory_of<model::MaxModule>(fan_in);
          break;
        case 2:
          factory =
              model::factory_of<model::BusyWorkModule>(std::uint64_t{0},
                                                       fan_in, 0.8);
          break;
        case 3:
          // (No SnapshotJoin here: its vector output would reach numeric
          // folds downstream in a random topology.)
          factory = model::factory_of<model::MinModule>(fan_in);
          break;
        default:
          factory = model::factory_of<model::MovingAverageModule>(
              std::size_t{4});
      }
    }
    ids.push_back(b.add(shape.name(v), std::move(factory)));
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed * 7919 + 13);
}

/// A one-input model for a path member. ZScore and BusyWork often stay
/// silent, so a path's later members often do not run; BusyWork draws on
/// its vertex's rng stream. Every choice persists its state.
inline model::ModuleFactory random_path_member(support::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return model::factory_of<model::MovingAverageModule>(std::size_t{4});
    case 1:
      return model::factory_of<model::EwmaModule>(0.3);
    case 2:
      return model::factory_of<model::ZScoreDetector>(std::size_t{16}, 1.2,
                                                      std::size_t{4});
    default:
      return model::factory_of<model::BusyWorkModule>(std::uint64_t{0},
                                                      std::size_t{1}, 0.7);
  }
}

/// The fusion corpus: 4..12 sources (the rng-driven Gaussian, RandomWalk
/// and SparseEvent ones included, so a unit that forked or stepped the
/// wrong vertex's stream shows), each followed by a path of 0..4 members.
/// Some members also feed a join from mid-path, as the sensor graph's ewma
/// feeds both its z-score and its group sum. Path tails and side taps meet
/// at 2- and 3-input joins, each followed by a path of 0..2 members; what
/// is left over dangles as sinks.
inline core::Program random_path_program(std::uint64_t seed) {
  support::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  spec::GraphBuilder b;
  std::uint32_t next_name = 0;
  const auto add = [&](model::ModuleFactory factory) {
    return b.add("v" + std::to_string(next_name++), std::move(factory));
  };
  // Appends `length` path members after `tail`; returns the new tail.
  std::vector<graph::VertexId> pool;
  const auto extend = [&](graph::VertexId tail, std::uint32_t length) {
    for (std::uint32_t k = 0; k < length; ++k) {
      const graph::VertexId member = add(random_path_member(rng));
      b.connect(tail, member);
      if (rng.next_bernoulli(0.25)) {
        pool.push_back(tail);  // a side tap: tail's output also feeds a join
      }
      tail = member;
    }
    return tail;
  };

  const auto sources = static_cast<std::uint32_t>(4 + rng.next_below(9));
  for (std::uint32_t s = 0; s < sources; ++s) {
    model::ModuleFactory factory;
    switch (rng.next_below(4)) {
      case 0:
        factory = model::factory_of<model::CounterSource>();
        break;
      case 1:
        factory = model::factory_of<model::GaussianSource>(5.0, 2.0, 0.7);
        break;
      case 2:
        factory = model::factory_of<model::SparseEventSource>(
            0.3, event::Value(1.0));
        break;
      default:
        factory = model::factory_of<model::RandomWalkSource>(0.0, 1.0, 0.5);
    }
    pool.push_back(extend(add(std::move(factory)),
                          static_cast<std::uint32_t>(rng.next_below(5))));
  }

  rng.shuffle(pool);
  while (pool.size() >= 2) {
    const std::size_t fan_in =
        std::min<std::size_t>(pool.size(), 2 + rng.next_below(2));
    model::ModuleFactory factory;
    switch (rng.next_below(3)) {
      case 0:
        factory = model::factory_of<model::SumModule>(fan_in);
        break;
      case 1:
        factory = model::factory_of<model::MaxModule>(fan_in);
        break;
      default:
        factory = model::factory_of<model::BusyWorkModule>(std::uint64_t{0},
                                                           fan_in, 0.8);
    }
    const graph::VertexId join = add(std::move(factory));
    for (std::size_t port = 0; port < fan_in; ++port) {
      b.connect(pool.back(), 0, join, static_cast<graph::Port>(port));
      pool.pop_back();
    }
    const graph::VertexId tail =
        extend(join, static_cast<std::uint32_t>(rng.next_below(3)));
    if (rng.next_bernoulli(0.6)) {
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(pool.size() + 1));
      pool.insert(pool.begin() + at, tail);
    }
  }
  return std::move(b).build(seed * 104729 + 7);
}

}  // namespace df::testutil
