// T1 — the paper's section 4 measurement.
//
// "On a dual-processor machine running Solaris, we have found that identical
// computations see a speedup of approximately 50% when two computation
// threads are running, compared to the speed when a single computation
// thread is running."
//
// This harness runs the same identical-computations workload with 1 and 2
// (and more) computation threads and prints the speedup series. On a
// machine with >= 2 hardware threads the 2-thread row reproduces the
// paper's ~1.5x; with more cores the series shows the predicted
// near-linear growth while vertex work dominates bookkeeping.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/engine.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t grain_ns = flags.get("grain_ns", std::uint64_t{20000});
  const std::uint64_t phases = flags.get("phases", std::uint64_t{200});
  const std::uint64_t layers = flags.get("layers", std::uint64_t{4});
  const std::uint64_t width = flags.get("width", std::uint64_t{4});
  const std::uint64_t max_threads =
      flags.get("max_threads", std::uint64_t{8});
  const std::uint64_t repeats = flags.get("repeats", std::uint64_t{3});

  std::printf("T1: speedup vs computation threads (paper section 4)\n");
  std::printf("%s\n", trace::machine_summary().c_str());
  std::printf(
      "workload: %llux%llu layered busywork DAG, grain %llu ns/vertex, "
      "%llu phases, best of %llu runs\n",
      static_cast<unsigned long long>(layers),
      static_cast<unsigned long long>(width),
      static_cast<unsigned long long>(grain_ns),
      static_cast<unsigned long long>(phases),
      static_cast<unsigned long long>(repeats));

  const core::Program program = bench::uniform_busywork_program(
      static_cast<std::uint32_t>(layers), static_cast<std::uint32_t>(width),
      grain_ns, /*seed=*/1);

  support::Table table({"threads", "wall_ms", "pairs/s", "speedup",
                        "efficiency", "bookkeeping%"});
  double base_ms = 0.0;
  double two_thread_speedup = 0.0;  // stays 0 if --max_threads < 2
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    double best_ms = 1e300;
    core::ExecStats best_stats;
    for (std::uint64_t r = 0; r < repeats; ++r) {
      core::EngineOptions options;
      options.threads = threads;
      core::Engine engine(program, options);
      engine.run(phases, nullptr);
      const auto stats = engine.stats();
      if (stats.wall_seconds * 1e3 < best_ms) {
        best_ms = stats.wall_seconds * 1e3;
        best_stats = stats;
      }
    }
    if (threads == 1) {
      base_ms = best_ms;
    }
    const double speedup = base_ms / best_ms;
    if (threads == 2) {
      two_thread_speedup = speedup;
    }
    const double total_ns = static_cast<double>(best_stats.compute_ns +
                                                best_stats.bookkeeping_ns);
    table.add_row(
        {support::Table::num(static_cast<std::uint64_t>(threads)),
         support::Table::num(best_ms, 1),
         support::Table::num(best_stats.pairs_per_second(), 0),
         support::Table::num(speedup, 2) + "x",
         support::Table::num(speedup / static_cast<double>(threads), 2),
         support::Table::num(
             total_ns <= 0.0 ? 0.0
                             : 100.0 *
                                   static_cast<double>(
                                       best_stats.bookkeeping_ns) /
                                   total_ns,
             1)});
    bench::JsonLine("speedup", "thread_sweep")
        .config("threads", static_cast<std::uint64_t>(threads))
        .config("phases", phases)
        .config("grain_ns", grain_ns)
        .config("layers", layers)
        .config("width", width)
        .metric("wall_ms", best_ms)
        .metric("pairs_per_sec", best_stats.pairs_per_second())
        .metric("speedup", speedup)
        .metric("bookkeeping_pct",
                total_ns <= 0.0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(best_stats.bookkeeping_ns) /
                          total_ns)
        .emit();
  }
  std::printf("%s", table.render().c_str());
  if (two_thread_speedup > 0.0) {
    std::printf("measured: 2 threads => %.2fx; paper: ~1.5x on a 2-CPU "
                "machine\n",
                two_thread_speedup);
  } else {
    std::printf("measured: 2 threads not run (--max_threads < 2); paper: "
                "~1.5x on a 2-CPU machine\n");
  }
  return 0;
}
