// Machine-readable benchmark output.
//
// Every bench binary prints, alongside its human-oriented table, one JSON
// object per measured row so sweeps can be diffed across commits without
// scraping tables. A line looks like
//
//   {"bench":"micro","name":"scheduler_pair_bookkeeping/512",
//    "config":{"n":512},"ns_per_op":281.7,"pairs_per_sec":3551234.0}
//
// Lines are self-delimiting (one object per line, line starts with
// {"bench":) so a consumer can grep them out of mixed stdout. The merged
// before/after trajectory lives in BENCH_seed_vs_flat.json at the repo
// root; ROADMAP.md describes the workflow.
//
// Every line also records what the host gave the run (host_metrics):
// `cpu_ms`, the process CPU time since the previous line (the first line:
// since the calibration below), and `effective_cores`, from one short
// calibration burn per binary run. A row is multicore evidence only if its
// effective_cores shows the cores were there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/stopwatch.hpp"

namespace df::bench {

/// Effective cores: one thread per listed CPU spins a fixed ~4 ms of work
/// at once, and the CPU time they got is divided by the wall time they
/// took. Reads the CPU count on an idle host, less when other load takes
/// cores away.
inline double calibrate_effective_cores() {
  const unsigned threads = std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> cpu_ns(threads, 0);
  std::vector<std::thread> pool;
  const support::Stopwatch wall;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&cpu_ns, i] {
      const std::uint64_t start = support::thread_cpu_ns();
      support::spin_iterations(std::uint64_t{1} << 22);
      cpu_ns[i] = support::thread_cpu_ns() - start;
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  double total = 0.0;
  for (const std::uint64_t ns : cpu_ns) {
    total += static_cast<double>(ns);
  }
  return total / static_cast<double>(std::max<std::uint64_t>(
                     wall.elapsed_ns(), 1));
}

/// The calibrations run once, when the binary starts, before anything it
/// measures: the host's effective cores, and the spin rate behind every
/// busy-work grain (support::spin_iterations_per_ns), which would otherwise
/// run inside the first measured row. `cpu_mark` is where the next line's
/// cpu_ms starts counting.
struct HostCalibration {
  double effective_cores = calibrate_effective_cores();
  double spin_iterations_per_ns = support::spin_iterations_per_ns();
  std::uint64_t cpu_mark = support::process_cpu_ns();
};
inline HostCalibration host_calibration;

/// Builder for one JSON benchmark line. Config fields describe the measured
/// configuration (graph size, threads, window, ...); metrics are the
/// measured numbers. Keys must be plain identifiers; string values are
/// emitted verbatim (no escaping), which every caller in bench/ satisfies.
class JsonLine {
 public:
  JsonLine(const std::string& bench, const std::string& name) {
    out_ = "{\"bench\":\"" + bench + "\",\"name\":\"" + name + "\"";
  }

  JsonLine& config(const std::string& key, const std::string& value) {
    config_ += (config_.empty() ? "" : ",");
    config_ += "\"" + key + "\":\"" + value + "\"";
    return *this;
  }
  JsonLine& config(const std::string& key, std::uint64_t value) {
    config_ += (config_.empty() ? "" : ",");
    config_ += "\"" + key + "\":" + std::to_string(value);
    return *this;
  }
  JsonLine& config(const std::string& key, double value) {
    config_ += (config_.empty() ? "" : ",");
    config_ += "\"" + key + "\":" + format(value);
    return *this;
  }

  JsonLine& metric(const std::string& key, double value) {
    metrics_ += ",\"" + key + "\":" + format(value);
    return *this;
  }
  JsonLine& metric(const std::string& key, std::uint64_t value) {
    metrics_ += ",\"" + key + "\":" + std::to_string(value);
    return *this;
  }

  /// Appends the host metrics (cpu_ms since the previous line, and the
  /// calibrated effective_cores) and prints the assembled line to stdout.
  void emit() {
    host_metrics();
    std::printf("%s,\"config\":{%s}%s}\n", out_.c_str(), config_.c_str(),
                metrics_.c_str());
  }

 private:
  static std::string format(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return buffer;
  }

  void host_metrics() {
    const std::uint64_t now = support::process_cpu_ns();
    metric("cpu_ms",
           static_cast<double>(now - host_calibration.cpu_mark) / 1e6);
    metric("effective_cores", host_calibration.effective_cores);
    host_calibration.cpu_mark = now;
  }

  std::string out_;
  std::string config_;
  std::string metrics_;
};

}  // namespace df::bench
