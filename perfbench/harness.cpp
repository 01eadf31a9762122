// perfbench harness: runs one workload of the repository benchmark and writes
// its raw measurements (per-repetition timestamps, counters, spans) as JSON
// for perfbench/run.py, which turns them into the reported metrics.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --out result.json [--spans spans.bin]
//                     [--stall-ms M --stall-phase K] [--corrupt-phase K]
//                     [--drop-phase K]
//
// Every measured repetition starts a fresh executor at phase 1 and feeds it
// the same seed-generated inputs, so one run of the sequential reference
// checks them all. The last three flags are test seams: a module that sleeps
// M ms in phase K (an injected engine stall), a sink set altered in phase K
// after the first repetition (an injected mismatch), and vertex 1 skipping
// its first execution at or after phase K (a dropped delivery).
//
// Spans are taken only around calls into the engine's public functions and
// seams (start_phase, on_phase_complete, a wrapping ModuleFactory, the
// transport's channel_wrapper, the wire codec, the Scheduler, checkpoint
// calls); nothing inside src/ is instrumented. They stay in memory until
// the run ends.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "distrib/transport.hpp"
#include "distrib/wire.hpp"
#include "graph/generators.hpp"
#include "model/registry.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "trace/serializability.hpp"

namespace pb {

using df::event::PhaseId;

// --- clocks -----------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// --- spans ------------------------------------------------------------------

enum SpanKind : std::uint8_t {
  kModule = 1,      // model: one on_phase call (vertex = dense id)
  kStartPhase = 2,  // core.engine: Engine::start_phase on the environment
  kSend = 3,        // distrib.channel: Channel::send (vertex = link id)
  kRecv = 4,        // distrib.channel: Channel::recv, including the wait
  kQuiesce = 5,     // core.checkpoint
  kSnapshot = 6,
  kRestore = 7,
  kSchedStart = 8,  // core.scheduler: Scheduler::start_phase (replay)
  kSchedFinish = 9, // core.scheduler: finish_execution_batch (replay)
};

/// One timed interval. `run` says which executor run produced it (see
/// RunId); spans of one phase share `phase`, the request identifier.
struct Span {
  std::uint8_t kind = 0;
  std::uint8_t run = 0;
  std::uint16_t pad = 0;
  std::uint32_t vertex = 0;
  std::uint64_t phase = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};
static_assert(sizeof(Span) == 32, "span records are read as 32-byte rows");

enum RunId : std::uint8_t {
  kRunMain = 1,        // the workload's own executor, traced repetition
  kRunComplement = 2,  // the other executor kind on the same inputs
  kRunReplay = 3,      // single-threaded Scheduler replay
  kRunCheckpoint = 4,  // quiesce/snapshot/restore probe
};

/// Per-thread span buffers, registered once per thread and written out at
/// the end of the run. Recording never takes a lock after registration.
class SpanLog {
 public:
  void record(SpanKind kind, RunId run, std::uint32_t vertex, PhaseId phase,
              std::int64_t t0, std::int64_t t1) {
    thread_local std::vector<Span>* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      mine = buffers_.back().get();
      mine->reserve(1 << 15);
    }
    mine->push_back(Span{kind, run, 0, vertex, phase, t0, t1});
  }

  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary);
    for (const auto& buffer : buffers_) {
      out.write(reinterpret_cast<const char*>(buffer->data()),
                static_cast<std::streamsize>(buffer->size() * sizeof(Span)));
    }
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

SpanLog g_spans;

// --- fixed work -------------------------------------------------------------

/// A fixed number of dependent xorshift steps: the same work on every run
/// regardless of how many threads compete for the cores.
std::uint64_t fixed_work(std::uint64_t x, std::uint64_t iterations) {
  x |= 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// paper_grain vertex work: about 20 us on a 3 GHz core; recorded in every
/// result so a change of the constant shows.
constexpr std::uint64_t kGrainIterations = 8000;

/// The paper's "identical computations": every vertex, every phase, folds
/// its latest inputs and the phase into a fixed amount of work and emits
/// the result. Deterministic, so sinks match the sequential reference.
class FixedWorkModule final : public df::model::Module {
 public:
  FixedWorkModule(std::size_t fan_in, std::uint64_t salt)
      : fan_in_(fan_in), salt_(salt) {}

  void on_phase(df::model::PhaseContext& ctx) override {
    std::uint64_t x = salt_ ^ (ctx.phase() * 0x9e3779b97f4a7c15ULL);
    for (std::size_t port = 0; port < fan_in_; ++port) {
      const auto p = static_cast<df::graph::Port>(port);
      if (ctx.has_latest(p)) {
        x += static_cast<std::uint64_t>(ctx.latest(p).as_int());
      }
    }
    ctx.emit(0, static_cast<std::int64_t>(
                    fixed_work(x, kGrainIterations) >> 2));
  }

 private:
  std::size_t fan_in_;
  std::uint64_t salt_;
};

// --- module seam --------------------------------------------------------------

/// Per-phase first-start / last-end stamps over every vertex; the transport
/// has no public per-phase hook, so partitioned latency is read here.
struct PhaseStamps {
  explicit PhaseStamps(std::size_t phases)
      : first_start(phases + 1), last_end(phases + 1) {
    for (auto& s : first_start) {
      s.store(std::numeric_limits<std::int64_t>::max());
    }
  }
  std::vector<std::atomic<std::int64_t>> first_start;
  std::vector<std::atomic<std::int64_t>> last_end;
};

/// What a wrapping ModuleFactory adds around on_phase.
struct ModuleProbe {
  bool spans = false;
  RunId run = kRunMain;
  PhaseStamps* stamps = nullptr;
  std::int64_t stall_ms = 0;  // test seam: sleep in stall_phase
  PhaseId stall_phase = 0;
  PhaseId drop_from = 0;  // test seam: skip the first on_phase at or after
};

class ProbedModule final : public df::model::Module {
 public:
  ProbedModule(std::unique_ptr<df::model::Module> inner, ModuleProbe probe,
               std::uint32_t vertex)
      : inner_(std::move(inner)), probe_(probe), vertex_(vertex) {}

  void on_phase(df::model::PhaseContext& ctx) override {
    const PhaseId phase = ctx.phase();
    const std::int64_t t0 = now_ns();
    if (probe_.stall_ms > 0 && phase == probe_.stall_phase) {
      std::this_thread::sleep_for(std::chrono::milliseconds(probe_.stall_ms));
    }
    if (probe_.drop_from > 0 && phase >= probe_.drop_from && !dropped_) {
      dropped_ = true;
    } else {
      inner_->on_phase(ctx);
    }
    const std::int64_t t1 = now_ns();
    if (probe_.spans) {
      g_spans.record(kModule, probe_.run, vertex_, phase, t0, t1);
    }
    if (probe_.stamps != nullptr && phase < probe_.stamps->last_end.size()) {
      auto& first = probe_.stamps->first_start[phase];
      std::int64_t seen = first.load(std::memory_order_relaxed);
      while (t0 < seen &&
             !first.compare_exchange_weak(seen, t0, std::memory_order_relaxed)) {
      }
      auto& last = probe_.stamps->last_end[phase];
      seen = last.load(std::memory_order_relaxed);
      while (t1 > seen &&
             !last.compare_exchange_weak(seen, t1, std::memory_order_relaxed)) {
      }
    }
  }

  void persist_state(df::support::StateArchive& ar) override {
    inner_->persist_state(ar);
  }

 private:
  std::unique_ptr<df::model::Module> inner_;
  ModuleProbe probe_;
  std::uint32_t vertex_;
  bool dropped_ = false;
};

/// Wraps `factory` for vertex `vertex`; no wrapper at all when the probe
/// does nothing, so untraced runs execute the modules unchanged.
df::model::ModuleFactory probed(df::model::ModuleFactory factory,
                                const ModuleProbe& probe,
                                std::uint32_t vertex) {
  const bool stall = probe.stall_ms > 0 && vertex == 0;
  const bool drop = probe.drop_from > 0 && vertex == 1;
  if (!probe.spans && probe.stamps == nullptr && !stall && !drop) {
    return factory;
  }
  ModuleProbe own = probe;
  if (!stall) {
    own.stall_ms = 0;
  }
  if (!drop) {
    own.drop_from = 0;
  }
  return [factory = std::move(factory), own, vertex] {
    return std::make_unique<ProbedModule>(factory(), own, vertex);
  };
}

// --- workloads ----------------------------------------------------------------

constexpr std::uint32_t kSensors = 64;
constexpr std::uint32_t kGroups = 8;
constexpr std::uint32_t kFiringPerPhase = 16;  // 25% of the sensors

enum class Graph { kSensors, kLayered };
enum class Kind { kEngine, kTransport };

struct Workload {
  std::string name;
  Graph graph = Graph::kSensors;
  Kind kind = Kind::kEngine;
  double rate = 0.0;         // phases/s for an open loop; 0 = closed loop
  std::size_t threads = 2;   // engine workers (transport: per block)
  std::size_t machines = 3;  // transport only
  PhaseId rep_phases = 1000;  // phases per repetition, traced ones too
};

constexpr int kMinReps = 5;
constexpr int kMaxReps = 60;
constexpr int kSetupsPerRep = 4;
constexpr PhaseId kCheckpointPhases = 256;

std::vector<Workload> workloads() {
  return {
      {"sensors_open", Graph::kSensors, Kind::kEngine, 1000.0, 2, 3, 1000},
      {"sensors_saturated", Graph::kSensors, Kind::kEngine, 0.0, 2, 3, 8000},
      {"paper_grain", Graph::kLayered, Kind::kEngine, 0.0, 2, 3, 4000},
      {"partitioned", Graph::kSensors, Kind::kTransport, 0.0, 1, 3, 6000},
  };
}

/// Builds the workload's program (numbering included) with every factory
/// passed through `probe`. `sensors` receives the external sources' ids.
///
/// The sensor graph: 64 external -> ewma -> zscore -> latch chains, latches
/// feeding 8 majority gates and one `or` gate. Alarms are rare and latches
/// fire once, so each group also sums its 8 ewma levels into a `sum` sink;
/// those emit in almost every phase, so a wrong, dropped or extra delivery
/// on the busy part of the graph changes the sinks of the phase it hits.
df::core::Program build_program(Graph graph, std::uint64_t seed,
                                const ModuleProbe& probe,
                                std::vector<df::graph::VertexId>* sensors) {
  df::spec::GraphBuilder b;
  const auto add = [&](std::string name, df::model::ModuleFactory f) {
    const auto id = static_cast<std::uint32_t>(b.vertex_count());
    return b.add(std::move(name), probed(std::move(f), probe, id));
  };
  if (graph == Graph::kLayered) {
    df::support::Rng shape_rng(1);
    const df::graph::Dag shape = df::graph::layered(4, 4, 2, shape_rng);
    std::vector<df::graph::VertexId> ids;
    for (df::graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
      const std::size_t fan_in = shape.in_degree(v);
      const std::uint64_t salt = seed * 1315423911ULL + v;
      ids.push_back(add(shape.name(v), [fan_in, salt] {
        return std::make_unique<FixedWorkModule>(fan_in, salt);
      }));
    }
    for (const df::graph::Edge& e : shape.edges()) {
      b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
    }
    return std::move(b).build(seed);
  }
  const df::model::Registry& registry = df::model::Registry::builtin();
  const df::model::Params none;
  using Map = std::map<std::string, std::string>;
  const df::model::Params ewma(Map{{"alpha", "0.3"}});
  const df::model::Params zscore(
      Map{{"window", "32"}, {"z", "2.5"}, {"min_samples", "8"}});
  std::vector<df::graph::VertexId> averages, latches;
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    const std::string tag = std::to_string(s);
    const auto src = add("sensor" + tag, registry.build("external", none, 0));
    const auto avg = add("ewma" + tag, registry.build("ewma", ewma, 1));
    const auto z = add("zscore" + tag, registry.build("zscore", zscore, 1));
    const auto latch = add("latch" + tag, registry.build("latch", none, 1));
    b.connect(src, avg).connect(avg, z).connect(z, latch);
    averages.push_back(avg);
    latches.push_back(latch);
    if (sensors != nullptr) {
      sensors->push_back(src);
    }
  }
  const std::uint32_t per_group = kSensors / kGroups;
  const auto any = add("any_alarm", registry.build("or", none, kGroups));
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const auto gate = add("majority" + std::to_string(g),
                          registry.build("majority", none, per_group));
    for (std::uint32_t i = 0; i < per_group; ++i) {
      b.connect(latches[g * per_group + i], gate);
    }
    b.connect(gate, any);
    const auto level = add("level" + std::to_string(g),
                           registry.build("sum", none, per_group));
    for (std::uint32_t i = 0; i < per_group; ++i) {
      b.connect(averages[g * per_group + i], level);
    }
  }
  return std::move(b).build(seed);
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sensor readings for phase p: 16 distinct sensors fire, each with a
/// per-sensor level plus noise and a rare spike. A pure function of
/// (seed, p), so every executor sees identical inputs.
class SensorInputs {
 public:
  SensorInputs(std::uint64_t seed, std::vector<df::graph::VertexId> sensors)
      : seed_(seed), sensors_(std::move(sensors)) {}

  std::vector<df::event::ExternalEvent> events(PhaseId p) const {
    std::vector<df::event::ExternalEvent> out;
    if (sensors_.empty()) {
      return out;
    }
    std::uint64_t state = seed_ ^ (p * 0xd1342543de82ef95ULL);
    std::uint32_t order[kSensors];
    for (std::uint32_t i = 0; i < kSensors; ++i) {
      order[i] = i;
    }
    out.reserve(kFiringPerPhase);
    for (std::uint32_t i = 0; i < kFiringPerPhase; ++i) {
      const auto j = i + static_cast<std::uint32_t>(splitmix(state) %
                                                    (kSensors - i));
      std::swap(order[i], order[j]);
      const std::uint32_t s = order[i];
      const double u1 = static_cast<double>(splitmix(state) >> 11) * 0x1p-53;
      const double u2 = static_cast<double>(splitmix(state) >> 11) * 0x1p-53;
      double value = 10.0 + s * 0.5 + (u1 + u2 - 1.0) * 2.0;
      if (splitmix(state) % 50 == 0) {
        value += 25.0;
      }
      out.push_back({sensors_[s], 0, df::event::Value(value)});
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.vertex < b.vertex; });
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<df::graph::VertexId> sensors_;
};

// --- repetitions ----------------------------------------------------------------

/// Records on_phase_complete values as they arrive, from any thread.
class CompletionLog {
 public:
  explicit CompletionLog(std::size_t capacity) : entries_(capacity) {}
  void add(PhaseId value) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < entries_.size()) {
      entries_[i] = {value, now_ns()};
    }
  }
  std::vector<std::pair<PhaseId, std::int64_t>> take() {
    entries_.resize(std::min(entries_.size(), next_.load()));
    return std::move(entries_);
  }

 private:
  std::vector<std::pair<PhaseId, std::int64_t>> entries_;
  std::atomic<std::size_t> next_{0};
};

/// Channel seam for the traced transport: times send/recv and keeps a copy
/// of the first frames sent, for the wire codec measurement.
struct FrameCapture {
  std::mutex mutex;
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t limit = 20000;
};

class TracedChannel final : public df::distrib::Channel {
 public:
  TracedChannel(std::unique_ptr<df::distrib::Channel> inner,
                std::uint32_t link, RunId run, FrameCapture* capture)
      : inner_(std::move(inner)), link_(link), run_(run), capture_(capture) {}

  void send(std::span<const std::uint8_t> frame) override {
    const std::int64_t t0 = now_ns();
    inner_->send(frame);
    const std::int64_t t1 = now_ns();
    g_spans.record(kSend, run_, link_, phase_of(frame), t0, t1);
    std::lock_guard<std::mutex> lock(capture_->mutex);
    if (capture_->frames.size() < capture_->limit) {
      capture_->frames.emplace_back(frame.begin(), frame.end());
    }
  }
  void close_send() override { inner_->close_send(); }
  bool recv(std::vector<std::uint8_t>& frame) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->recv(frame);
    const std::int64_t t1 = now_ns();
    g_spans.record(kRecv, run_, link_, ok ? phase_of(frame) : 0, t0, t1);
    return ok;
  }
  void close_recv() override { inner_->close_recv(); }

 private:
  static PhaseId phase_of(std::span<const std::uint8_t> frame) {
    df::distrib::wire::FrameHeader header;
    return df::distrib::wire::decode_header(frame, header) ==
                   df::distrib::wire::DecodeStatus::kOk
               ? header.phase
               : 0;
  }

  std::unique_ptr<df::distrib::Channel> inner_;
  std::uint32_t link_;
  RunId run_;
  FrameCapture* capture_;
};

struct Rep {
  std::string label;  // warmup, measure, traced, complement, ...
  Kind kind = Kind::kEngine;
  RunId run = kRunMain;
  PhaseId phases = 0;
  bool open = false;
  std::int64_t build_ns = 0;
  std::int64_t executor_ns = 0;
  std::int64_t first_start = 0;
  std::int64_t end = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t wait_cpu_ns = 0;  // generator waiting for due times
  std::vector<std::int64_t> due, issue, ret;
  std::vector<std::pair<PhaseId, std::int64_t>> completions;
  df::core::ExecStats stats;
  df::distrib::TransportStats tstats;
  std::vector<df::core::SinkRecord> sinks;
  PhaseId sink_from = 1;  // sinks cover phases sink_from..phases
  std::string error;
  std::uint64_t failed = 0;
  std::string mismatch;
};

struct Context {
  Workload w;
  std::uint64_t seed = 1;
  ModuleProbe seams;  // test seams; applied to every repetition
  SensorInputs inputs{0, {}};

  std::vector<df::event::ExternalEvent> events(PhaseId p) const {
    return inputs.events(p);
  }
};

/// Waits for `due`: sleeps until shortly before it, then spins, so the
/// generator's own lateness stays small (and is reported as gen lag).
void wait_until(std::int64_t due) {
  constexpr std::int64_t kSpinNs = 100000;
  const std::int64_t early = due - now_ns() - kSpinNs;
  if (early > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(early));
  }
  while (now_ns() < due) {
  }
}

Rep run_engine(const Context& c, PhaseId phases, double rate,
               std::size_t threads, bool traced, RunId run,
               const std::string& label) {
  Rep r;
  r.label = label;
  r.kind = Kind::kEngine;
  r.run = run;
  r.phases = phases;
  r.open = rate > 0.0;
  ModuleProbe probe = c.seams;
  probe.spans = traced;
  probe.run = run;
  try {
    const std::int64_t t0 = now_ns();
    const df::core::Program program =
        build_program(c.w.graph, c.seed, probe, nullptr);
    const std::int64_t t1 = now_ns();
    CompletionLog completions(phases + 64);
    df::core::EngineOptions options;
    options.threads = threads;
    options.on_phase_complete = [&completions](PhaseId v) {
      completions.add(v);
    };
    df::core::Engine engine(program, options);
    engine.start();
    const std::int64_t t2 = now_ns();
    r.build_ns = t1 - t0;
    r.executor_ns = t2 - t1;
    r.due.resize(phases + 1);
    r.issue.resize(phases + 1);
    r.ret.resize(phases + 1);
    const std::int64_t period =
        r.open ? static_cast<std::int64_t>(1e9 / rate) : 0;
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t base = now_ns() + 1000000;
    std::int64_t prev_ret = 0;
    for (PhaseId p = 1; p <= phases; ++p) {
      auto events = c.events(p);
      if (r.open) {
        r.due[p] = base + static_cast<std::int64_t>(p - 1) * period;
        const std::int64_t w0 = thread_cpu_ns();
        wait_until(r.due[p]);
        r.wait_cpu_ns += thread_cpu_ns() - w0;
      } else {
        r.due[p] = p == 1 ? now_ns() : prev_ret;
      }
      r.issue[p] = now_ns();
      engine.start_phase(std::move(events));
      prev_ret = r.ret[p] = now_ns();
      if (traced) {
        g_spans.record(kStartPhase, run, 0, p, r.issue[p], r.ret[p]);
      }
    }
    engine.finish();
    r.end = now_ns();
    r.cpu_ns = process_cpu_ns() - cpu0;
    r.first_start = r.issue[1];
    r.completions = completions.take();
    r.stats = engine.stats();
    r.sinks = engine.sinks().canonical();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// The partitioned configuration: loopback sockets, checkpoints every 16
/// phases, one engine thread per block unless the workload says otherwise.
df::distrib::TransportOptions transport_options(const Workload& w) {
  df::distrib::TransportOptions options;
  options.machines = w.machines;
  options.channel = df::distrib::ChannelKind::kSocket;
  options.engine_threads = w.kind == Kind::kTransport ? w.threads : 1;
  options.checkpoint_every = 16;
  return options;
}

Rep run_transport(const Context& c, PhaseId phases, bool traced, RunId run,
                  const std::string& label, FrameCapture* capture) {
  Rep r;
  r.label = label;
  r.kind = Kind::kTransport;
  r.run = run;
  r.phases = phases;
  PhaseStamps stamps(phases);
  ModuleProbe probe = c.seams;
  probe.spans = traced;
  probe.run = run;
  probe.stamps = &stamps;
  try {
    const std::int64_t t0 = now_ns();
    const df::core::Program program =
        build_program(c.w.graph, c.seed, probe, nullptr);
    const std::int64_t t1 = now_ns();
    df::distrib::TransportOptions options = transport_options(c.w);
    if (traced) {
      options.channel_wrapper =
          [run, capture](std::unique_ptr<df::distrib::Channel> inner,
                         std::size_t from, std::size_t to) {
            return std::make_unique<TracedChannel>(
                std::move(inner), static_cast<std::uint32_t>(from * 16 + to),
                run, capture);
          };
    }
    df::distrib::TransportEngine transport(program, options);
    const std::int64_t t2 = now_ns();
    r.build_ns = t1 - t0;
    r.executor_ns = t2 - t1;
    df::core::CallbackFeed feed([&c](PhaseId p) { return c.events(p); });
    const std::int64_t cpu0 = process_cpu_ns();
    transport.run(phases, &feed);
    r.end = now_ns();
    r.cpu_ns = process_cpu_ns() - cpu0;
    // No environment thread to observe: a phase is due when its first
    // vertex starts and done when it and every earlier phase have ended.
    r.due.assign(phases + 1, 0);
    r.issue.assign(phases + 1, 0);
    r.ret.assign(phases + 1, 0);
    std::int64_t done = 0;
    for (PhaseId p = 1; p <= phases; ++p) {
      r.due[p] = r.issue[p] = r.ret[p] = stamps.first_start[p].load();
      done = std::max(done, stamps.last_end[p].load());
      r.completions.push_back({p, done});
    }
    r.first_start = r.due[1];
    r.stats = transport.stats();
    r.tstats = transport.transport_stats();
    r.sinks = transport.sinks().canonical();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

Rep run_rep(const Context& c, PhaseId phases, bool traced,
            const std::string& label, FrameCapture* capture) {
  if (c.w.kind == Kind::kTransport) {
    return run_transport(c, phases, traced, kRunMain, label, capture);
  }
  return run_engine(c, phases, c.w.rate, c.w.threads, traced, kRunMain,
                    label);
}

// --- correctness ----------------------------------------------------------------

/// Phases in [from, to] whose canonical sink records differ, plus phases
/// outside that range for which the candidate recorded anything.
std::uint64_t differing_phases(const std::vector<df::core::SinkRecord>& ref,
                               const std::vector<df::core::SinkRecord>& cand,
                               PhaseId from, PhaseId to) {
  const auto records_of = [](const std::vector<df::core::SinkRecord>& v,
                             PhaseId p) {
    const auto lo = std::lower_bound(
        v.begin(), v.end(), p,
        [](const df::core::SinkRecord& r, PhaseId q) { return r.phase < q; });
    auto hi = lo;
    while (hi != v.end() && hi->phase == p) {
      ++hi;
    }
    return std::make_pair(lo, hi);
  };
  std::vector<PhaseId> phases;
  for (const auto* v : {&ref, &cand}) {
    for (const auto& r : *v) {
      if (v == &cand || (r.phase >= from && r.phase <= to)) {
        phases.push_back(r.phase);
      }
    }
  }
  std::sort(phases.begin(), phases.end());
  phases.erase(std::unique(phases.begin(), phases.end()), phases.end());
  std::uint64_t failed = 0;
  for (const PhaseId p : phases) {
    const auto [a0, a1] = records_of(ref, p);
    const auto [b0, b1] = records_of(cand, p);
    const bool owned = p >= from && p <= to;
    if (!owned || !std::equal(a0, a1, b0, b1)) {
      ++failed;
    }
  }
  return std::min<std::uint64_t>(failed, to - from + 1);
}

void fill_store(df::core::SinkStore& store,
                const std::vector<df::core::SinkRecord>& records, PhaseId from,
                PhaseId to) {
  std::vector<df::core::SinkRecord> kept;
  for (const auto& r : records) {
    if (r.phase >= from && r.phase <= to) {
      kept.push_back(r);
    }
  }
  store.record_batch(std::move(kept));
}

/// Test seam: alters the sink set in phase p (flips a record, or adds one
/// where the phase had none).
void corrupt(std::vector<df::core::SinkRecord>& sinks, PhaseId p) {
  for (auto& r : sinks) {
    if (r.phase == p) {
      r.value = df::event::Value(std::string("altered"));
      return;
    }
  }
  df::core::SinkRecord extra;
  extra.phase = p;
  extra.value = df::event::Value(std::string("altered"));
  sinks.insert(std::lower_bound(sinks.begin(), sinks.end(), p,
                                [](const df::core::SinkRecord& r, PhaseId q) {
                                  return r.phase < q;
                                }),
               extra);
}

/// Checks one repetition against the reference: a throw fails every phase;
/// on the transport, replays or dropped duplicates fail it too (no faults
/// are injected, so either means the protocol misbehaved).
void check(Rep& r, const std::vector<df::core::SinkRecord>& ref) {
  const PhaseId owned = r.phases - r.sink_from + 1;
  if (!r.error.empty()) {
    r.failed = owned;
    r.mismatch = "threw: " + r.error;
    return;
  }
  if (r.kind == Kind::kTransport &&
      (r.tstats.duplicates_dropped != 0 || r.tstats.frames_replayed != 0)) {
    r.failed = owned;
    r.mismatch = "transport replayed or dropped frames without faults";
    return;
  }
  df::core::SinkStore expected, actual;
  fill_store(expected, ref, r.sink_from, r.phases);
  fill_store(actual, r.sinks, 1, std::numeric_limits<PhaseId>::max());
  const auto report = df::trace::compare_sinks(expected, actual);
  r.failed = differing_phases(ref, r.sinks, r.sink_from, r.phases);
  if (!report.equivalent) {
    r.failed = std::max<std::uint64_t>(r.failed, 1);
    r.mismatch = report.summary();
  }
}

// --- layer probes -----------------------------------------------------------------

struct Replay {
  std::uint64_t phases = 0;
  std::uint64_t pairs = 0;
  std::int64_t scheduler_ns = 0;
  Rep rep;  // sinks of the replay, checked like any repetition
};

/// Single-threaded replay of the workload's inputs through the Scheduler:
/// up to 64 phases in flight, each wave of ready pairs executed (untimed)
/// and applied as one finish_execution_batch, like an engine drain.
Replay replay_scheduler(const Context& c, PhaseId phases) {
  Replay out;
  out.phases = phases;
  out.rep.label = "scheduler_replay";
  out.rep.run = kRunReplay;
  out.rep.phases = phases;
  try {
    df::core::ProgramInstance instance(
        build_program(c.w.graph, c.seed, ModuleProbe{}, nullptr));
    df::core::Scheduler scheduler(instance.m());
    std::vector<df::event::InputBundle> bundles;
    std::vector<df::core::Scheduler::ReadyPair> ready;
    std::vector<df::core::Scheduler::StagedFinish> batch;
    df::core::SinkStore sinks;
    PhaseId next = 1;
    while (next <= phases || !scheduler.all_started_phases_complete()) {
      while (next <= phases && scheduler.active_phase_count() < 64) {
        bundles.assign(instance.source_count(), {});
        for (auto& ev : c.events(next)) {
          const std::uint32_t index = instance.internal_index(ev.vertex);
          bundles[index - 1].push_back({ev.port, std::move(ev.value)});
        }
        const std::int64_t t0 = now_ns();
        scheduler.start_phase(next, bundles, ready);
        const std::int64_t t1 = now_ns();
        out.scheduler_ns += t1 - t0;
        g_spans.record(kSchedStart, kRunReplay, 0, next, t0, t1);
        ++next;
      }
      DF_CHECK(!ready.empty(), "scheduler replay stalled with no ready pair");
      batch.clear();
      for (auto& pair : ready) {
        auto result = df::core::execute_vertex(instance, pair.vertex,
                                               pair.phase, pair.bundle);
        sinks.record_batch(std::move(result.sink_records));
        batch.push_back({pair.vertex, pair.phase,
                         std::move(result.deliveries),
                         std::move(pair.bundle)});
      }
      out.pairs += batch.size();
      ready.clear();
      const std::int64_t t0 = now_ns();
      scheduler.finish_execution_batch(batch, ready);
      const std::int64_t t1 = now_ns();
      out.scheduler_ns += t1 - t0;
      g_spans.record(kSchedFinish, kRunReplay,
                     static_cast<std::uint32_t>(batch.size()),
                     batch.front().phase, t0, t1);
    }
    out.rep.sinks = sinks.canonical();
  } catch (const std::exception& e) {
    out.rep.error = e.what();
  }
  return out;
}

struct CheckpointProbe {
  std::vector<std::int64_t> quiesce_ns, snapshot_ns, restore_ns;
  std::vector<std::uint64_t> image_bytes;
  Rep rep;  // the engine restored mid-run, checked for the later phases
};

/// Checkpoints a core::Engine on the workload's inputs every 16 phases,
/// then restores each image into a fresh engine; the one restored at the
/// middle runs on to the end and its sinks are checked.
CheckpointProbe probe_checkpoint(const Context& c, PhaseId phases,
                                 std::size_t threads) {
  CheckpointProbe out;
  out.rep.label = "checkpoint_restore";
  out.rep.run = kRunCheckpoint;
  out.rep.phases = phases;
  try {
    const df::core::Program program =
        build_program(c.w.graph, c.seed, ModuleProbe{}, nullptr);
    df::core::EngineOptions options;
    options.threads = threads;
    std::vector<std::pair<PhaseId, std::vector<std::uint8_t>>> images;
    {
      df::core::Engine engine(program, options);
      engine.start();
      for (PhaseId p = 1; p <= phases; ++p) {
        engine.start_phase(c.events(p));
        if (p % 16 == 0) {
          const std::int64_t t0 = now_ns();
          engine.quiesce();
          const std::int64_t t1 = now_ns();
          images.push_back({p, engine.snapshot_state()});
          const std::int64_t t2 = now_ns();
          g_spans.record(kQuiesce, kRunCheckpoint, 0, p, t0, t1);
          g_spans.record(kSnapshot, kRunCheckpoint, 0, p, t1, t2);
          out.quiesce_ns.push_back(t1 - t0);
          out.snapshot_ns.push_back(t2 - t1);
          out.image_bytes.push_back(images.back().second.size());
        }
      }
      engine.finish();
    }
    DF_CHECK(!images.empty(), "checkpoint probe took no image");
    const PhaseId middle = images[images.size() / 2].first;
    for (const auto& [at, image] : images) {
      df::core::Engine engine(program, options);
      engine.start();
      const std::int64_t t0 = now_ns();
      engine.restore_state(image);
      const std::int64_t t1 = now_ns();
      g_spans.record(kRestore, kRunCheckpoint, 0, at, t0, t1);
      out.restore_ns.push_back(t1 - t0);
      if (at == middle) {
        for (PhaseId p = at + 1; p <= phases; ++p) {
          engine.start_phase(c.events(p));
        }
        engine.finish();
        out.rep.sinks = engine.sinks().canonical();
        out.rep.sink_from = at + 1;
      } else {
        engine.finish();
      }
    }
  } catch (const std::exception& e) {
    out.rep.error = e.what();
  }
  return out;
}

struct WireProbe {
  std::uint64_t frames = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t batch_bytes = 0;
  std::int64_t encode_ns = 0;  // median pass over every captured frame
  std::int64_t decode_ns = 0;
  std::uint64_t reencoded_identical = 0;
  std::uint64_t decode_errors = 0;
};

/// Decodes and re-encodes the run's own captured frames, five passes each,
/// and keeps the median pass time.
WireProbe probe_wire(const FrameCapture& capture) {
  namespace wire = df::distrib::wire;
  WireProbe out;
  std::vector<wire::Frame> decoded(capture.frames.size());
  std::vector<std::int64_t> decode_passes, encode_passes;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < capture.frames.size(); ++i) {
      if (wire::decode_frame(capture.frames[i], decoded[i]) !=
          wire::DecodeStatus::kOk) {
        ++out.decode_errors;
      }
    }
    decode_passes.push_back(now_ns() - t0);
  }
  std::vector<std::uint8_t> buffer;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t identical = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      const wire::Frame& f = decoded[i];
      if (f.type == wire::FrameType::kDeliveryBatch) {
        wire::encode_delivery_batch(f.seq, f.phase, f.batch, buffer);
      } else if (f.type == wire::FrameType::kWatermark) {
        wire::encode_watermark(f.seq, f.phase, buffer);
      } else {
        wire::encode_delivery(f.seq, f.phase, f.delivery, buffer);
      }
      identical += buffer == capture.frames[i] ? 1 : 0;
    }
    encode_passes.push_back(now_ns() - t0);
    out.reencoded_identical = identical;
  }
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (decoded[i].type == wire::FrameType::kDeliveryBatch) {
      out.deliveries += decoded[i].batch.size();
      out.batch_bytes += capture.frames[i].size();
    } else if (decoded[i].type == wire::FrameType::kDelivery) {
      out.deliveries += 1;
      out.batch_bytes += capture.frames[i].size();
    }
  }
  out.frames = capture.frames.size();
  std::sort(decode_passes.begin(), decode_passes.end());
  std::sort(encode_passes.begin(), encode_passes.end());
  out.decode_ns = decode_passes[2];
  out.encode_ns = encode_passes[2];
  return out;
}

struct HostSample {
  std::size_t threads = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
};

/// Host calibration: `threads` threads each run the same fixed work;
/// their summed CPU time over the wall time is the number of cores the
/// run actually had. Each thread is pinned to its own CPU: after an idle
/// stretch (the open loop) the kernel otherwise starts both on one CPU and
/// the sample reads one core however many the host gives.
HostSample calibrate_host(std::size_t threads) {
  HostSample s;
  s.threads = threads;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  std::vector<std::int64_t> cpu(threads, 0);
  std::vector<std::thread> pool;
  std::atomic<std::uint64_t> sink{0};
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([i, &cpu, &cpus, &sink] {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      const std::int64_t c0 = thread_cpu_ns();
      sink += fixed_work(i + 1, 8 * kGrainIterations * 16);
      cpu[i] = thread_cpu_ns() - c0;
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  s.wall_ns = now_ns() - t0;
  for (const auto v : cpu) {
    s.cpu_ns += v;
  }
  return s;
}

// --- output -------------------------------------------------------------------------

/// Minimal streaming JSON writer: repetitions are written as they finish,
/// so memory does not grow with the number of repetitions.
class Json {
 public:
  explicit Json(std::ostream& out) : out_(out) {}

  Json& key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  template <typename T>
  Json& num(T v) {
    comma();
    out_ << v;
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    out_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        out_ << '\\' << ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        out_ << ' ';
      } else {
        out_ << ch;
      }
    }
    out_ << '"';
    return *this;
  }
  template <typename T>
  Json& field(const std::string& k, T v) {
    key(k);
    if constexpr (std::is_convertible_v<T, std::string>) {
      return str(v);
    } else {
      return num(v);
    }
  }
  template <typename T>
  Json& array(const std::string& k, const std::vector<T>& values,
              std::size_t from = 0) {
    key(k).open('[');
    for (std::size_t i = from; i < values.size(); ++i) {
      num(values[i]);
    }
    return close(']');
  }
 private:
  void comma() {
    if (!fresh_) {
      out_ << ',';
    }
    fresh_ = false;
  }
  std::ostream& out_;
  bool fresh_ = true;
};

void write_rep(Json& j, const Rep& r) {
  j.open('{');
  j.field("label", r.label).field("run", static_cast<int>(r.run));
  j.field("kind", r.kind == Kind::kEngine ? "engine" : "transport");
  j.field("phases", r.phases).field("open", r.open ? 1 : 0);
  j.field("build_ns", r.build_ns).field("executor_ns", r.executor_ns);
  j.field("first_start_ns", r.first_start).field("end_ns", r.end);
  j.field("cpu_ns", r.cpu_ns).field("wait_cpu_ns", r.wait_cpu_ns);
  j.field("failed", r.failed).field("sink_from", r.sink_from);
  j.field("error", r.error).field("mismatch", r.mismatch);
  j.array("due_ns", r.due, 1).array("issue_ns", r.issue, 1);
  j.array("ret_ns", r.ret, 1);
  j.key("completions").open('[');
  for (const auto& [v, t] : r.completions) {
    j.open('[').num(v).num(t).close(']');
  }
  j.close(']');
  const auto& s = r.stats;
  j.key("stats").open('{');
  j.field("executed_pairs", s.executed_pairs)
      .field("messages_delivered", s.messages_delivered)
      .field("sink_records", s.sink_records)
      .field("compute_ns", s.compute_ns)
      .field("bookkeeping_ns", s.bookkeeping_ns)
      .field("steals_ok", s.steals_ok)
      .field("parks", s.parks)
      .field("wall_seconds", s.wall_seconds);
  j.close('}');
  const auto& t = r.tstats;
  j.key("tstats").open('{');
  j.field("frames_sent", t.frames_sent)
      .field("bytes_sent", t.bytes_sent)
      .field("watermarks_sent", t.watermarks_sent)
      .field("remote_messages", t.remote_messages)
      .field("local_messages", t.local_messages)
      .field("duplicates_dropped", t.duplicates_dropped)
      .field("frames_replayed", t.frames_replayed)
      .field("checkpoints_taken", t.checkpoints_taken)
      .field("checkpoint_bytes", t.checkpoint_bytes);
  j.close('}');
  j.close('}');
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
  std::int64_t stall_ms = 0;
  PhaseId stall_phase = 0;
  PhaseId corrupt_phase = 0;
  PhaseId drop_phase = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--stall-ms") {
      a.stall_ms = std::stoll(v);
    } else if (k == "--stall-phase") {
      a.stall_phase = std::stoull(v);
    } else if (k == "--corrupt-phase") {
      a.corrupt_phase = std::stoull(v);
    } else if (k == "--drop-phase") {
      a.drop_phase = std::stoull(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
         a.seconds > 0 && (!a.trace || !a.spans.empty());
}

int main_impl(const Args& a) {
  Context c;
  bool found = false;
  for (const auto& w : workloads()) {
    if (w.name == a.workload) {
      c.w = w;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  c.seed = a.seed;
  c.seams.stall_ms = a.stall_ms;
  c.seams.stall_phase = a.stall_phase;
  c.seams.drop_from = a.drop_phase;
  std::vector<df::graph::VertexId> sensors;
  build_program(c.w.graph, c.seed, ModuleProbe{}, &sensors);
  c.inputs = SensorInputs(a.seed, std::move(sensors));

  const std::size_t worker_threads =
      c.w.kind == Kind::kTransport ? c.w.machines * c.w.threads : c.w.threads;
  const std::int64_t run_start = now_ns();
  const std::int64_t cpu_start = process_cpu_ns();
  std::vector<HostSample> host;
  std::vector<std::pair<std::int64_t, std::int64_t>> setups;
  FrameCapture capture;
  std::ofstream file(a.out);
  Json j(file);
  j.open('{').key("reps").open('[');

  // The reference runs first, over every phase any repetition or probe
  // will run; each repetition is checked as soon as it ends and its sinks
  // written out, so memory does not grow with the number of repetitions.
  const PhaseId max_phases =
      std::max(c.w.rep_phases, kCheckpointPhases);
  df::baseline::SequentialExecutor reference(
      build_program(c.w.graph, c.seed, ModuleProbe{}, nullptr));
  df::core::CallbackFeed feed([&c](PhaseId p) { return c.events(p); });
  const std::int64_t ref0 = now_ns();
  reference.run(max_phases, &feed);
  const std::int64_t ref_ns = now_ns() - ref0;
  const auto ref_sinks = reference.sinks().canonical();
  bool corrupted = false;
  const auto keep = [&](Rep r) {
    if (a.corrupt_phase > 0 && !corrupted && r.label == "measure") {
      corrupt(r.sinks, a.corrupt_phase);
      corrupted = true;
    }
    check(r, ref_sinks);
    if (r.label == "measure" && r.error.empty()) {
      setups.push_back({r.build_ns, r.executor_ns});
    }
    write_rep(j, r);
  };

  // Extra set-ups: build, construct and start, then tear down unused.
  const auto sample_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::int64_t t0 = now_ns();
      const auto program =
          build_program(c.w.graph, c.seed, ModuleProbe{}, nullptr);
      const std::int64_t t1 = now_ns();
      if (c.w.kind == Kind::kTransport) {
        df::distrib::TransportEngine transport(program,
                                               transport_options(c.w));
        setups.push_back({t1 - t0, now_ns() - t1});
      } else {
        df::core::EngineOptions options;
        options.threads = c.w.threads;
        df::core::Engine engine(program, options);
        engine.start();
        setups.push_back({t1 - t0, now_ns() - t1});
        engine.finish();
      }
    }
  };

  // Warm-up (caches, allocator, lazy set-up), then fixed-size repetitions
  // until the measured time is used up. The host's speed and core count
  // change within seconds, so many short repetitions, each followed by a
  // few set-up samples, spread every median over the whole run.
  host.push_back(calibrate_host(worker_threads));
  keep(run_rep(c, c.w.rep_phases, false, "warmup", &capture));
  sample_setups(kSetupsPerRep);
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::int64_t measure_end =
      now_ns() + static_cast<std::int64_t>(measure_s * 1e9);
  std::int64_t longest = 0;
  for (int measured = 0;
       measured < kMinReps ||
       (measured < kMaxReps && now_ns() + longest < measure_end);
       ++measured) {
    const std::int64_t t0 = now_ns();
    keep(run_rep(c, c.w.rep_phases, false, "measure", &capture));
    host.push_back(calibrate_host(worker_threads));
    sample_setups(kSetupsPerRep);
    longest = std::max(longest, now_ns() - t0);
  }

  Replay replay;
  CheckpointProbe checkpoint;
  WireProbe wire;
  if (a.trace) {
    capture.frames.clear();
    keep(run_rep(c, c.w.rep_phases, true, "traced", &capture));
    if (c.w.kind == Kind::kTransport) {
      keep(run_engine(c, c.w.rep_phases, 0.0, 2, true, kRunComplement,
                      "complement_engine"));
    } else {
      keep(run_transport(c, c.w.rep_phases, true, kRunComplement,
                         "complement_transport", &capture));
    }
    wire = probe_wire(capture);
    replay = replay_scheduler(c, c.w.rep_phases);
    keep(std::move(replay.rep));
    checkpoint = probe_checkpoint(c, kCheckpointPhases, c.w.threads);
    keep(std::move(checkpoint.rep));
  }

  j.close(']');
  j.field("workload", c.w.name).field("seed", c.seed);
  j.field("seconds", a.seconds).field("trace", a.trace ? 1 : 0);
  j.field("rate", c.w.rate).field("threads", c.w.threads);
  j.field("machines", c.w.machines);
  j.field("kind", c.w.kind == Kind::kEngine ? "engine" : "transport");
  j.field("worker_threads", worker_threads);
  j.field("grain_iterations", kGrainIterations);
  j.field("hw_concurrency", std::thread::hardware_concurrency());
  j.key("reference").open('{');
  j.field("phases", max_phases).field("wall_ns", ref_ns);
  j.field("sink_records", ref_sinks.size());
  std::uint64_t phases_with_sinks = 0;
  for (std::size_t i = 0; i < ref_sinks.size(); ++i) {
    if (i == 0 || ref_sinks[i].phase != ref_sinks[i - 1].phase) {
      ++phases_with_sinks;
    }
  }
  j.field("phases_with_sinks", phases_with_sinks);
  j.close('}');
  j.key("setups").open('[');
  for (const auto& [b, e] : setups) {
    j.open('[').num(b).num(e).close(']');
  }
  j.close(']');
  j.key("host").open('[');
  for (const auto& h : host) {
    j.open('{').field("threads", h.threads).field("cpu_ns", h.cpu_ns);
    j.field("wall_ns", h.wall_ns).close('}');
  }
  j.close(']');
  if (a.trace) {
    j.key("replay").open('{');
    j.field("phases", replay.phases).field("pairs", replay.pairs);
    j.field("scheduler_ns", replay.scheduler_ns).close('}');
    j.key("checkpoint").open('{');
    j.array("quiesce_ns", checkpoint.quiesce_ns);
    j.array("snapshot_ns", checkpoint.snapshot_ns);
    j.array("restore_ns", checkpoint.restore_ns);
    j.array("image_bytes", checkpoint.image_bytes).close('}');
    j.key("wire").open('{');
    j.field("frames", wire.frames).field("deliveries", wire.deliveries);
    j.field("batch_bytes", wire.batch_bytes);
    j.field("encode_ns", wire.encode_ns).field("decode_ns", wire.decode_ns);
    j.field("reencoded_identical", wire.reencoded_identical);
    j.field("decode_errors", wire.decode_errors).close('}');
  }
  j.field("run_wall_ns", now_ns() - run_start);
  j.field("run_cpu_ns", process_cpu_ns() - cpu_start);
  j.field("peak_rss_kb", peak_rss_kb());
  j.close('}');
  file << '\n';
  if (a.trace) {
    g_spans.write(a.spans);
  }
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  if (!pb::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE [--spans FILE] [--stall-ms M "
                 "--stall-phase K] [--corrupt-phase K] [--drop-phase K]\n");
    return 2;
  }
  try {
    return pb::main_impl(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
