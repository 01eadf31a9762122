// The parallel event-correlation engine (paper section 3.2).
//
// Structure mirrors the paper exactly:
//   * an arbitrary number of *computation processes* (worker threads), each
//     an infinite loop: dequeue ready vertex-phase pairs from the run
//     queue, execute them, lock, update the scheduler's sets, unlock
//     (Listing 1, per batch — see below);
//   * an *environment* that starts phases by injecting source vertex-phase
//     pairs into the full set (Listing 2). Here the environment runs on the
//     caller's thread — run() drives it from a PhaseFeed, or the streaming
//     API (start / start_phase / finish) lets applications start phases as
//     real event batches arrive (event/phase.hpp assembles those);
//   * one global lock guards all scheduler state; module execution happens
//     outside the lock with the sealed input bundle from the queue item.
//
// Scheduling granularity (DESIGN.md, "Operator fusion"): the scheduler's
// "vertices" are the units of the engine's ProgramInstance — each
// single-predecessor path of the engine's scope runs as one pair, members
// in path order — unless the scope has fewer roots than workers or an
// observer is attached; then every vertex is its own unit.
//
// Deviations from the listings, documented in DESIGN.md:
//   * termination: the paper's loops never exit; we close the run queue
//     once every started phase has completed, and workers exit on a drained
//     closed queue;
//   * backpressure: the paper's environment "sleeps for some amount of
//     time"; we bound the number of in-flight phases instead so memory use
//     is bounded at any event rate;
//   * per-batch tail: a worker dequeues a fair share of the run queue
//     (max(1, queued / threads) pairs) under one queue lock, executes the
//     whole batch outside every lock, then takes the global lock once and
//     applies the batch with a single frontier/promotion/collect pass. One
//     lock acquisition per batch instead of per pair, and no executed pair
//     ever waits outside the lock while its worker sleeps (DESIGN.md,
//     "Batched worker loop").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/annotations.hpp"
#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "core/executor.hpp"
#include "core/observer.hpp"
#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "core/sink_store.hpp"
#include "support/histogram.hpp"

namespace df::core {

struct EngineOptions {
  /// Computation threads (the paper's thread pool size). The environment
  /// runs on the calling thread, matching the paper's "always at least two
  /// threads contending for the data structures".
  std::size_t threads = 2;
  /// Maximum phases in flight before start_phase blocks; 0 = unbounded.
  std::size_t max_inflight_phases = 64;
  /// Optional set-membership observer (tracing); see core/observer.hpp.
  /// Batches are then applied one finish_execution per pair, each followed
  /// by a snapshot, inside the same lock acquisition — the observer still
  /// sees exactly one kPairFinished per executed pair. An observed engine
  /// schedules single vertices (no fusion), so the trace is vertex-level.
  SchedulerObserver* observer = nullptr;
  /// When true, records a histogram of in-flight phase counts, one sample
  /// per pair completion (the Figure 1 pipelining measurement). Without an
  /// observer a batch's samples are all taken at its post-batch state.
  bool sample_inflight = false;

  /// Restricts the engine to one contiguous block [begin, end] of the
  /// program's satisfactory numbering (the transport's two-level mode: a
  /// full worker pool inside every partition block). The engine still
  /// instantiates the complete ProgramInstance — module state and rng
  /// streams fork by *global* internal index, bit-identical to the
  /// sequential reference — but schedules only the block: its Scheduler
  /// tables, bitsets and FIFOs are sized and indexed to the block's units,
  /// local indices 1..B, via ProgramInstance::block_m. Paths fuse only
  /// inside the block.
  ///
  /// Seam contracts (both in global internal vertex indices):
  ///  * deliveries an executed pair addresses beyond `end` are handed to
  ///    `egress` (global index preserved) instead of entering the
  ///    scheduler — the transport routes them onto the wire;
  ///  * remote deliveries for a phase are injected through the
  ///    start_phase(events, remote) overload when the phase window opens
  ///    (the caller guarantees completeness — the watermark handshake);
  ///  * when `sinks` is non-null, workers record sink batches there
  ///    (shared across the block engines of one transport run) instead of
  ///    the engine's own store.
  /// begin > end describes an empty block (B = 0): every phase retires at
  /// start and the engine only paces watermarks.
  struct BlockScope {
    std::uint32_t begin = 1;
    std::uint32_t end = 0;
    std::function<void(Delivery&&, event::PhaseId)> egress;
    SinkStore* sinks = nullptr;
  };
  std::optional<BlockScope> block;

  /// Fired (outside every engine lock, possibly concurrently from several
  /// worker threads and the environment thread) each time
  /// completed_phases() advances, with the new completed-through value.
  /// Values may arrive out of order across threads; consumers needing
  /// monotonicity (e.g. the transport's watermark flush) must impose it
  /// themselves. The callback may block (it sends on channels); it must
  /// not call back into the engine.
  std::function<void(event::PhaseId)> on_phase_complete;
};

class Engine final : public Executor {
 public:
  Engine(const Program& program, EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executor interface: drives the environment from `feed` for
  /// `num_phases` phases and blocks until all of them complete.
  void run(event::PhaseId num_phases, PhaseFeed* feed) override;

  // Streaming interface --------------------------------------------------
  /// Spawns the computation threads. Idempotent.
  void start();
  /// Starts the next phase carrying `events` (may be empty: pure phase
  /// signal). Blocks while max_inflight_phases are active. The rvalue
  /// overload moves the event payloads into the source bundles instead of
  /// copying them.
  void start_phase(const std::vector<event::ExternalEvent>& events);
  void start_phase(std::vector<event::ExternalEvent>&& events);
  /// Block-mode phase start (requires EngineOptions::block): `remote`
  /// carries the reassembled cross-boundary deliveries for this phase,
  /// addressed by *global* internal index inside the block; they are
  /// translated to local indices and injected as the phase's virtual
  /// index-0 inputs before any in-block pair of the phase executes (the
  /// watermark handshake makes the set complete at call time). The vector
  /// is consumed (payloads moved out).
  void start_phase(const std::vector<event::ExternalEvent>& events,
                   std::vector<Scheduler::Delivery>& remote);
  /// Blocks until every started phase has completed, then stops workers.
  /// If any module threw during execution, the first exception is rethrown
  /// here (the failed pair is treated as having produced no output, so the
  /// rest of the computation still drains deterministically).
  void finish();

  /// Phases fully completed so far (prefix 1..k).
  event::PhaseId completed_phases() const;

  // Checkpointing (crash-restart recovery; DESIGN.md "Crash-restart
  // recovery").
  /// Blocks until every started phase has completed (a worker applies its
  /// whole batch before it dequeues again, so nothing executed is ever left
  /// unapplied and this needs no help from the caller). The engine stays
  /// running; this is the quiescent point snapshots are taken at.
  void quiesce();
  /// Serializes the block's full execution state into a self-validating
  /// "DFEG" image: the scheduler image (nested "DFSC" blob) plus, for every
  /// owned vertex, the module state (Module::persist_state), the rng stream,
  /// and the latest-value cache. Call only at a quiescent point (after
  /// quiesce(), with no concurrent start_phase) — module state is read
  /// without locks on the guarantee that no worker is executing.
  std::vector<std::uint8_t> snapshot_state();
  /// Rebuilds state from a snapshot_state image. Must be called after
  /// start() (reserve_steady_state precedes the first phase) and before any
  /// start_phase on this engine. Magic, version, checksum, contraction
  /// (the image's units must be this engine's), block range, and
  /// scheduler geometry are all validated; failure throws
  /// support::check_error and leaves the engine unusable — discard it and
  /// retry with an older image.
  void restore_state(const std::vector<std::uint8_t>& image);

  const SinkStore& sinks() const override { return sinks_; }
  ExecStats stats() const override;

  /// In-flight phase distribution (only populated with sample_inflight).
  const support::CountHistogram& inflight_histogram() const {
    return inflight_;
  }

  const ProgramInstance& instance() const { return instance_; }

 private:
  /// Listing 1, per batch: pop a fair share of the run queue, execute it
  /// outside every lock, apply it with apply_batch, repeat until the queue
  /// is closed and drained.
  void worker_main();
  /// Executes one dequeued pair outside every lock — sinks recorded,
  /// deliveries routed, a module exception captured as the run's first
  /// error with an empty result — and appends its finish record to `batch`.
  /// Adds the modules it ran to `executed` and returns their compute time
  /// in nanoseconds.
  std::uint64_t execute_pair(Scheduler::ReadyPair& item,
                             std::vector<Scheduler::StagedFinish>& batch,
                             std::uint64_t& executed);
  /// Applies a worker's whole batch under one acquisition of the global
  /// lock, appending the issued pairs to `ready`. Returns the new
  /// completed-through value if a phase retired, else 0.
  event::PhaseId apply_batch(std::vector<Scheduler::StagedFinish>& batch,
                             std::vector<Scheduler::ReadyPair>& ready);
  /// With sample_inflight, records `pairs` in-flight samples at the current
  /// window depth (one per pair just completed).
  void record_inflight_samples(std::size_t pairs) DF_REQUIRES(mutex_);
  /// Hands every pair to the run queue with one lock acquisition for the
  /// whole batch and clears `ready` so the caller can reuse the buffer.
  void enqueue_ready(std::vector<Scheduler::ReadyPair>& ready);
  /// Shared tail of the start_phase overloads: `bundles` holds one
  /// pre-reserved bundle per signal source; `injected` carries block-mode
  /// remote deliveries already translated to local indices.
  void start_phase_bundles(std::vector<event::InputBundle>& bundles,
                           std::span<Scheduler::Delivery> injected = {});
  /// Sizes env_bundles_ and reserves per-source counts for `events`.
  void reserve_source_bundles(const std::vector<event::ExternalEvent>& events);
  /// Block mode: splits an executed pair's deliveries into in-block ones
  /// (translated global -> local unit in place, compacted to the vector
  /// front) and egress ones (handed to the BlockScope::egress hook with
  /// their global vertex index). No-op pass-through when no block scope is set. Called
  /// from the worker loop outside any engine lock.
  void route_deliveries(std::vector<Scheduler::Delivery>& deliveries,
                        event::PhaseId phase);

  /// Scheduling geometry resolved from options before member construction:
  /// the instance with the scope's paths fused (DESIGN.md, "Operator
  /// fusion"), the m-vector the scheduler indexes by (over the scope's
  /// units, block-local in block mode), how many leading local units are
  /// environment-signalled sources and which of them are input-driven,
  /// the local<->global unit translation, and the internal-index range of
  /// the vertices the engine owns.
  struct BlockPlan {
    ProgramInstance instance;
    std::vector<std::uint32_t> m;
    std::uint32_t signal_sources = Scheduler::kAllSources;
    std::vector<bool> input_driven;
    std::uint32_t offset = 0;     // global unit == local unit + offset
    std::uint32_t block_end = 0;  // global unit index of the last block unit
    std::uint32_t first_vertex = 1;
    std::uint32_t last_vertex = 0;
  };
  static BlockPlan plan_scope(const Program& program,
                              const EngineOptions& options);
  Engine(EngineOptions options, BlockPlan plan);
  /// Identifies how the block was contracted into units; checkpoint images
  /// carry it so one restores only into the same contraction.
  std::uint64_t contraction_digest() const;

  ProgramInstance instance_;
  EngineOptions options_;
  /// The flat scheduler is passive: every call happens under mutex_ (the
  /// paper's single global lock), which the annotation now enforces.
  Scheduler scheduler_ DF_GUARDED_BY(mutex_);
  SinkStore sinks_;
  std::uint32_t offset_ = 0;     // block mode: global == local + offset_
  std::uint32_t block_end_ = 0;  // last owned global unit index
  std::uint32_t first_vertex_ = 1;  // owned internal indices, for images
  std::uint32_t last_vertex_ = 0;   // and the remote-delivery check
  SinkStore* sink_target_ = nullptr;  // where workers record (usually own)

  // Environment-thread scratch (start_phase is called by one thread only):
  // reused across phases so steady-state phase starts stay allocation-light.
  std::vector<event::InputBundle> env_bundles_;
  std::vector<std::uint32_t> env_indices_;
  std::vector<std::size_t> env_counts_;
  std::vector<Scheduler::ReadyPair> env_ready_;

  mutable conc::Mutex mutex_;  // the paper's single global lock
  conc::CondVar progress_cv_;
  conc::BlockingQueue<Scheduler::ReadyPair> run_queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool finished_ = false;
  /// Set by the destructor when tearing down with work outstanding; lets
  /// workers drop ready pairs instead of treating a closed queue as a bug.
  /// Ordering: the destructor stores this *before* closing the run queue,
  /// and a worker reads it only after observing the closed queue, so the
  /// queue mutex's release/acquire edge makes the store visible — a late
  /// rejected push can never see abandoning_ == false (see ~Engine).
  std::atomic<bool> abandoning_{false};
  std::exception_ptr first_error_ DF_GUARDED_BY(mutex_);

  // Statistics. bookkeeping_ns_ is timed per batch: the batch's wall time
  // minus its module compute, so it covers sink recording, routing, the
  // wait for the global lock, the apply, and the run-queue push.
  conc::ShardedCounter executed_pairs_;
  conc::ShardedCounter messages_delivered_;
  conc::ShardedCounter sink_records_;
  conc::ShardedCounter compute_ns_;
  conc::ShardedCounter bookkeeping_ns_;
  std::uint64_t max_inflight_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t inflight_samples_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t inflight_sum_ DF_GUARDED_BY(mutex_) = 0;
  // Written under mutex_; inflight_histogram() hands out a const reference
  // for post-run inspection, so this stays outside the static annotation.
  support::CountHistogram inflight_{256};
  double wall_seconds_ = 0.0;
};

}  // namespace df::core
