// Monotonic wall-clock timing, CPU-time clocks, and calibrated spinning
// work for benchmarks and engine statistics.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace df::support {

/// Thin wrapper over steady_clock with second/millisecond/nanosecond views.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }
  double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }
  double elapsed_s() const { return static_cast<double>(elapsed_ns()) / 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU time consumed so far by the calling thread, in nanoseconds.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time consumed so far by the whole process (all threads), in
/// nanoseconds.
inline std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Runs `iterations` steps of a fixed LCG. The accumulator is returned, and
/// passed through an empty asm barrier each step, so the loop can be
/// neither removed nor folded.
inline std::uint64_t spin_iterations(std::uint64_t iterations) {
  std::uint64_t acc = 0xdeadbeefULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(acc));
  }
  return acc;
}

/// spin_iterations steps per nanosecond of thread CPU time, measured once
/// per process on first use: the fastest of five ~1 ms probes, the one
/// least disturbed by preemption or a busy sibling core.
inline double spin_iterations_per_ns() {
  static const double rate = [] {
    constexpr std::uint64_t kProbe = 1 << 20;
    double best = 0.0;
    for (int probe = 0; probe < 5; ++probe) {
      const std::uint64_t start = thread_cpu_ns();
      spin_iterations(kProbe);
      const std::uint64_t spent = thread_cpu_ns() - start;
      best = std::max(best, static_cast<double>(kProbe) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    spent, 1)));
    }
    return best;
  }();
  return rate;
}

/// A fixed amount of spinning work: the iteration count that took `ns` of
/// CPU time at calibration (spin_iterations_per_ns). Used by the synthetic
/// busy-work modules to emulate "computations performed by the vertices
/// [that] take significantly more time than the computations performed to
/// maintain the data structures" (paper section 4). Unlike a spin on the
/// wall clock, the work does not shrink when threads compete for cores: a
/// descheduled spin takes longer in wall time instead of doing less.
inline std::uint64_t spin_work_ns(std::uint64_t ns) {
  return spin_iterations(static_cast<std::uint64_t>(
      static_cast<double>(ns) * spin_iterations_per_ns()));
}

}  // namespace df::support
