#include "core/engine.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "support/check.hpp"
#include "support/state_archive.hpp"
#include "support/stopwatch.hpp"

namespace df::core {

Engine::BlockPlan Engine::plan_scope(const Program& program,
                                     const EngineOptions& options) {
  const auto n = static_cast<std::uint32_t>(program.numbering.size());
  std::uint32_t begin = 1;
  std::uint32_t end = n;
  std::uint32_t signal_sources = Scheduler::kAllSources;
  if (options.block.has_value()) {
    const EngineOptions::BlockScope& scope = *options.block;
    DF_CHECK(scope.egress != nullptr,
             "block-scoped engine needs an egress hook");
    DF_CHECK(scope.begin > scope.end || (scope.begin >= 1 && scope.end <= n),
             "block [", scope.begin, ", ", scope.end,
             "] outside internal index range 1..", n);
    begin = scope.begin;
    end = scope.end;
    // The block's environment-signalled sources are exactly the global
    // sources it owns: global indices [begin, min(end, m[0])], i.e. a local
    // prefix (sources are one-vertex units numbered like their vertex).
    // m_loc[0] may be larger (units whose predecessors are all remote are
    // locally release-0) — those are fed by injected remote deliveries,
    // never by the environment. An empty block (a machine owning no
    // vertices) has none, so every phase retires at start and the engine
    // only paces phase windows / watermark forwarding.
    const std::uint32_t m0 = program.numbering.m[0];
    signal_sources =
        begin <= end && begin <= m0 ? std::min(end, m0) - begin + 1 : 0;
  }
  // Paths fuse inside the scope, except under an observer: Figure 3 traces
  // vertex-level set membership.
  const FusionScope fusion = options.observer == nullptr
                                 ? FusionScope{begin, end, options.threads}
                                 : FusionScope::none();
  ProgramInstance instance(program, fusion);
  std::vector<std::uint32_t> m = instance.block_m(begin, end);
  // The signal sources are global indices begin, begin + 1, ...; the
  // scheduler skips an input-driven one in a phase without its events.
  std::vector<bool> input_driven(
      signal_sources == Scheduler::kAllSources ? m[0] : signal_sources);
  for (std::uint32_t s = 0; s < input_driven.size(); ++s) {
    input_driven[s] = instance.input_driven(begin + s);
  }
  // An empty block (begin > end, so begin >= 1) has no units; its vertex
  // and unit offsets agree.
  const std::uint32_t offset =
      begin > end ? begin - 1 : instance.unit_of(begin) - 1;
  const auto block_end = offset + static_cast<std::uint32_t>(m.size() - 1);
  return BlockPlan{std::move(instance),     std::move(m),
                   signal_sources,          std::move(input_driven),
                   offset,                  block_end,
                   begin,                   std::max(end, begin - 1)};
}

Engine::Engine(const Program& program, EngineOptions options)
    : Engine(options, plan_scope(program, options)) {}

Engine::Engine(EngineOptions options, BlockPlan plan)
    : instance_(std::move(plan.instance)),
      options_(std::move(options)),
      scheduler_(std::move(plan.m), plan.signal_sources,
                 std::move(plan.input_driven)),
      offset_(plan.offset),
      block_end_(plan.block_end),
      first_vertex_(plan.first_vertex),
      last_vertex_(plan.last_vertex) {
  sink_target_ = options_.block.has_value() && options_.block->sinks != nullptr
                     ? options_.block->sinks
                     : &sinks_;
  DF_CHECK(options_.threads >= 1, "engine needs at least one worker thread");
}

Engine::~Engine() {
  if (started_ && !finished_) {
    // Abandoned engine: stop workers without waiting for phase completion.
    // Workers may still try to enqueue newly ready pairs; the flag lets
    // them drop those instead of flagging the closed queue as a bug.
    //
    // Ordering argument (the teardown race this guards against): a worker
    // decides "the queue rejected my push" only inside push_all, under the
    // queue's mutex, after reading closed_ == true. close() sets closed_
    // under that same mutex, and this thread stores abandoning_ *before*
    // calling close(), so the mutex release/acquire edge publishes the
    // store to any worker that observes the rejection — the subsequent
    // abandoning_ check cannot read a stale false. The only other closer is
    // finish(), which runs after every started phase completed, when no
    // nonempty ready batch can exist anymore (an issued-but-unfinished pair
    // keeps its phase active, so finish() would still be waiting). Pairs
    // still queued at close are executed and applied by the workers before
    // they exit (close-then-drain); their issued successors are dropped.
    abandoning_.store(true, std::memory_order_release);
    run_queue_.close();
    for (auto& worker : workers_) {
      worker.join();
    }
  }
}

void Engine::start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Warm the scheduler's flat structures to the run's expected footprint so
  // the locked bookkeeping path is allocation-free from the first phase
  // (unbounded windows get a representative depth; the structures still
  // grow organically past it).
  const std::size_t window = options_.max_inflight_phases == 0
                                 ? 64
                                 : options_.max_inflight_phases;
  {
    // No worker exists yet; taking the lock here is free and keeps the
    // scheduler_-under-mutex_ contract unconditional for the analysis.
    conc::MutexLock lock(mutex_);
    scheduler_.reserve_steady_state(
        std::min<std::size_t>(window, 64),
        std::min<std::size_t>(2 * scheduler_.n(), 65536));
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void Engine::reserve_source_bundles(
    const std::vector<event::ExternalEvent>& events) {
  // Group the batch into per-source input bundles (Listing 2's "phase
  // signal" is implicit: every source gets a pair, with or without events,
  // except an input-driven source without events, which the scheduler
  // skips). Resolve indices once, then reserve exact per-source counts so
  // each bundle is built with at most one allocation.
  env_bundles_.clear();
  env_bundles_.resize(scheduler_.source_count());
  env_indices_.clear();
  for (const event::ExternalEvent& ev : events) {
    const std::uint32_t index = instance_.internal_index(ev.vertex);
    DF_CHECK(instance_.is_source(index),
             "external events may only target source vertices, got '",
             instance_.name(index), "'");
    // Block mode: the transport routes each event to the block owning its
    // target, so the global index must sit in this block's source prefix;
    // translate it to the scheduler's local indexing (a source is its own
    // unit, with the same index).
    DF_CHECK(index > offset_ && index - offset_ <= scheduler_.source_count(),
             "external event for '", instance_.name(index),
             "' (index ", index, ") is outside this block's source range");
    env_indices_.push_back(index - offset_);
  }
  env_counts_.assign(scheduler_.source_count(), 0);
  for (const std::uint32_t index : env_indices_) {
    ++env_counts_[index - 1];
  }
  for (std::size_t s = 0; s < env_counts_.size(); ++s) {
    if (env_counts_[s] != 0) {
      env_bundles_[s].reserve(env_counts_[s]);
    }
  }
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, events[i].value});
  }
  start_phase_bundles(env_bundles_);
}

void Engine::start_phase(std::vector<event::ExternalEvent>&& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, std::move(events[i].value)});
  }
  start_phase_bundles(env_bundles_);
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events,
                         std::vector<Scheduler::Delivery>& remote) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  DF_CHECK(options_.block.has_value(),
           "remote-injection start_phase requires a block-scoped engine");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, events[i].value});
  }
  // Translate the reassembled cross-boundary deliveries to local indexing
  // up front; the scheduler overload below injects them before any pair of
  // the phase is issued, and additionally DF_CHECKs each target sits above
  // the signal-source prefix (remote senders are lower-numbered than every
  // in-block non-source, so a remote delivery can never target a source).
  // The wire addresses vertices; a vertex with a remote predecessor always
  // heads its unit, because fusion never crosses the block boundary.
  for (Scheduler::Delivery& d : remote) {
    DF_CHECK(d.to_index >= first_vertex_ && d.to_index <= last_vertex_,
             "remote delivery for index ", d.to_index, " does not belong to "
             "block [", first_vertex_, ", ", last_vertex_, "]");
    const std::uint32_t unit = instance_.unit_of(d.to_index);
    DF_CHECK(instance_.head(unit) == d.to_index, "remote delivery for index ",
             d.to_index, " targets a fused unit past its head");
    d.to_index = unit - offset_;
  }
  start_phase_bundles(env_bundles_, std::span<Scheduler::Delivery>(remote));
}

void Engine::start_phase_bundles(std::vector<event::InputBundle>& bundles,
                                 std::span<Scheduler::Delivery> injected) {
  env_ready_.clear();
  // Starting a phase can also *complete* it (block mode: an empty block,
  // or a phase whose in-block work is finished by the injected deliveries
  // alone — e.g. sink-only blocks with no local sources). Both scheduler
  // overloads then retire inside the start call, so this is a completion
  // site like the apply paths: notify under the lock, fire the completion
  // hook after releasing it.
  event::PhaseId completed_now = 0;
  {
    conc::UniqueLock lock(mutex_);
    // Backpressure wait. Every transition that shrinks the window is a
    // phase retirement inside retire_completed(), which always advances
    // completed_through — and apply_batch notifies progress_cv_ exactly
    // when that happens, so this wait
    // cannot miss a shrink even with max_inflight_phases == 1. Written as
    // an explicit loop (not a wait-with-predicate lambda) because the
    // predicate reads the mutex_-guarded scheduler_.
    while (!(options_.max_inflight_phases == 0 ||
             scheduler_.active_phase_count() < options_.max_inflight_phases)) {
      progress_cv_.wait(lock);
    }
    const event::PhaseId p = scheduler_.pmax() + 1;
    const event::PhaseId completed_before = scheduler_.completed_through();
    scheduler_.start_phase(p, std::span<event::InputBundle>(bundles), injected,
                           env_ready_);
    if (scheduler_.completed_through() != completed_before) {
      completed_now = scheduler_.completed_through();
      progress_cv_.notify_all();
    }
    max_inflight_ = std::max<std::uint64_t>(max_inflight_,
                                            scheduler_.active_phase_count());
    if (options_.observer != nullptr) {
      options_.observer->on_transition(
          SchedulerObserver::Transition::kPhaseStarted, 0, p,
          scheduler_.snapshot());
    }
  }
  // Feed the workers before the completion hook: the hook may block on a
  // channel send and must not starve the pool of the pairs just issued.
  enqueue_ready(env_ready_);
  if (completed_now != 0 && options_.on_phase_complete) {
    options_.on_phase_complete(completed_now);
  }
}

void Engine::finish() {
  DF_CHECK(started_, "finish() before start()");
  if (finished_) {
    return;
  }
  {
    conc::UniqueLock lock(mutex_);
    // Explicit loop: the predicate reads the guarded scheduler_.
    while (!scheduler_.all_started_phases_complete()) {
      progress_cv_.wait(lock);
    }
  }
  run_queue_.close();
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  finished_ = true;
  std::exception_ptr error;
  {
    conc::MutexLock lock(mutex_);
    error = first_error_;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void Engine::run(event::PhaseId num_phases, PhaseFeed* feed) {
  support::Stopwatch wall;
  NullFeed null_feed;
  PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  start();
  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    start_phase(source.events_for(p));
  }
  finish();
  wall_seconds_ = wall.elapsed_s();
}

namespace {

constexpr std::uint32_t kEngineImageMagic = 0x44464547u;  // "DFEG"
constexpr std::uint32_t kEngineImageVersion = 2;

}  // namespace

std::uint64_t Engine::contraction_digest() const {
  // FNV-1a over the unit count and each unit's head, block-local order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint32_t word) {
    digest = (digest ^ word) * 0x100000001b3ULL;
  };
  mix(block_end_ - offset_);
  for (std::uint32_t unit = offset_ + 1; unit <= block_end_; ++unit) {
    mix(instance_.head(unit));
  }
  return digest;
}

void Engine::quiesce() {
  DF_CHECK(started_ && !finished_, "quiesce outside start()/finish()");
  conc::UniqueLock lock(mutex_);
  // Explicit loop: the predicate reads the guarded scheduler_.
  // A worker applies its whole batch before it dequeues again, so the last
  // started phase always completes and is notified without caller help.
  while (!scheduler_.all_started_phases_complete()) {
    progress_cv_.wait(lock);
  }
}

std::vector<std::uint8_t> Engine::snapshot_state() {
  DF_CHECK(started_ && !finished_, "snapshot_state outside start()/finish()");
  auto ar = support::StateArchive::saver();
  std::uint32_t magic = kEngineImageMagic;
  std::uint32_t version = kEngineImageVersion;
  ar.u32(magic);
  ar.u32(version);
  std::uint64_t contraction = contraction_digest();
  ar.u64(contraction);
  std::vector<std::uint8_t> sched;
  {
    conc::MutexLock lock(mutex_);
    sched = scheduler_.snapshot_state();
  }
  ar.sequence(sched,
              [](support::StateArchive& a, std::uint8_t& b) { a.u8(b); });
  // Module/rng/latest state for every owned vertex, by global index. Read
  // without locks: the quiescent-point precondition guarantees no worker is
  // executing (an issued-but-unfinished pair would keep its phase active).
  std::uint32_t begin = first_vertex_;
  std::uint32_t end = last_vertex_;
  ar.u32(begin);
  ar.u32(end);
  for (std::uint32_t v = begin; v <= end; ++v) {
    VertexRuntime& rt = instance_.runtime(v);
    rt.rng.persist(ar);
    ar.sequence(rt.latest, [](support::StateArchive& a, event::Value& value) {
      persist_value(a, value);
    });
    ar.bool_vector(rt.has_latest);
    rt.module->persist_state(ar);
  }
  return seal_image(std::move(ar).take());
}

void Engine::restore_state(const std::vector<std::uint8_t>& image) {
  DF_CHECK(started_ && !finished_,
           "restore_state requires a started engine (before any phase)");
  auto ar = support::StateArchive::loader(open_image(image, "engine"));
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  ar.u32(magic);
  DF_CHECK(magic == kEngineImageMagic,
           "engine checkpoint: bad magic (not a DFEG image)");
  ar.u32(version);
  DF_CHECK(version == kEngineImageVersion,
           "engine checkpoint: unsupported version ", version);
  // The scheduler section is per unit: it restores only into an engine
  // that contracted its block the same way.
  std::uint64_t contraction = 0;
  ar.u64(contraction);
  DF_CHECK(contraction == contraction_digest(),
           "engine checkpoint: image was taken under a different contraction "
           "of the block into scheduling units");
  std::vector<std::uint8_t> sched;
  ar.sequence(sched,
              [](support::StateArchive& a, std::uint8_t& b) { a.u8(b); });
  {
    conc::MutexLock lock(mutex_);
    scheduler_.restore_state(sched);
  }
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ar.u32(begin);
  ar.u32(end);
  DF_CHECK(begin == first_vertex_ && end == last_vertex_,
           "engine checkpoint: block range mismatch");
  for (std::uint32_t v = begin; v <= end; ++v) {
    VertexRuntime& rt = instance_.runtime(v);
    rt.rng.persist(ar);
    ar.sequence(rt.latest, [](support::StateArchive& a, event::Value& value) {
      persist_value(a, value);
    });
    ar.bool_vector(rt.has_latest);
    DF_CHECK(rt.latest.size() == rt.has_latest.size(),
             "engine checkpoint: latest-value cache size mismatch");
    rt.module->persist_state(ar);
  }
  ar.finish();
}

event::PhaseId Engine::completed_phases() const {
  conc::MutexLock lock(mutex_);
  return scheduler_.completed_through();
}

void Engine::enqueue_ready(std::vector<Scheduler::ReadyPair>& ready) {
  if (ready.empty()) {
    return;
  }
  // One lock acquisition and a bounded number of wakeups for the whole
  // batch, instead of a push per pair.
  const bool accepted = run_queue_.push_all(ready);
  DF_CHECK(accepted || abandoning_.load(std::memory_order_acquire),
           "run queue closed while work was outstanding");
  ready.clear();
}

void Engine::record_inflight_samples(std::size_t pairs) {
  if (!options_.sample_inflight) {
    return;
  }
  // One sample per completed pair keeps the Figure 1 histogram weighted
  // per completion.
  const std::uint64_t active = scheduler_.active_phase_count();
  for (std::size_t i = 0; i < pairs; ++i) {
    inflight_.add(active);
  }
  inflight_sum_ += active * pairs;
  inflight_samples_ += pairs;
}

event::PhaseId Engine::apply_batch(
    std::vector<Scheduler::StagedFinish>& batch,
    std::vector<Scheduler::ReadyPair>& ready) {
  conc::MutexLock lock(mutex_);
  const event::PhaseId completed_before = scheduler_.completed_through();
  if (options_.observer == nullptr) {
    scheduler_.finish_execution_batch(
        std::span<Scheduler::StagedFinish>(batch), ready);
    record_inflight_samples(batch.size());
  } else {
    // A tracing observer needs a snapshot per transition: apply the batch
    // pair by pair, still inside this one lock acquisition.
    for (Scheduler::StagedFinish& finished : batch) {
      scheduler_.finish_execution(
          finished.vertex, finished.phase,
          std::span<Scheduler::Delivery>(finished.deliveries),
          std::move(finished.recycled), ready);
      record_inflight_samples(1);
      options_.observer->on_transition(
          SchedulerObserver::Transition::kPairFinished, finished.vertex,
          finished.phase, scheduler_.snapshot());
    }
  }
  if (scheduler_.completed_through() == completed_before) {
    return 0;
  }
  // Phase retirement is the only transition that shrinks the in-flight
  // window (retire_completed always advances completed_through when it
  // drops a slot), so this one notify covers both waiters on progress_cv_:
  // finish() waiting for all phases and start_phase waiting for window
  // room — including the max_inflight_phases == 1 case, where every
  // retirement must wake the environment.
  progress_cv_.notify_all();
  return scheduler_.completed_through();
}

void Engine::route_deliveries(std::vector<Scheduler::Delivery>& deliveries,
                              event::PhaseId phase) {
  if (!options_.block.has_value()) {
    return;  // whole-program engine: every delivery is local, untranslated
  }
  // Split an executed pair's output at the block boundary: deliveries for
  // indices beyond the block leave through the egress hook with their
  // global index intact (the transport routes them by the partition cut);
  // in-block ones are translated to local unit indices and compacted to the
  // front so the vector feeds the scheduler unchanged. Runs on worker
  // threads outside every engine lock — the hook does its own locking.
  // Units beyond the block are single vertices (fusion stops at the
  // boundary), so the egress index is that vertex's.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    Scheduler::Delivery& d = deliveries[i];
    if (d.to_index > block_end_) {
      d.to_index = instance_.head(d.to_index);
      options_.block->egress(std::move(d), phase);
      continue;
    }
    d.to_index -= offset_;
    if (keep != i) {
      deliveries[keep] = std::move(d);
    }
    ++keep;
  }
  deliveries.resize(keep);
}

std::uint64_t Engine::execute_pair(Scheduler::ReadyPair& item,
                                   std::vector<Scheduler::StagedFinish>& batch,
                                   std::uint64_t& executed) {
  support::Stopwatch compute_timer;
  ExecutionResult result;
  try {
    // The scheduler speaks block-local unit indices; the instance is always
    // the full program, so execution (module state, rng forks, routing)
    // happens at the global unit — bit-identical to the sequential
    // reference. offset_ is 0 outside block mode.
    result = execute_vertex(instance_, item.vertex + offset_, item.phase,
                            item.bundle);
  } catch (...) {
    // Record the first failure and let the pair complete with no output,
    // so the remaining phases drain and finish() can rethrow cleanly.
    conc::MutexLock lock(mutex_);
    if (first_error_ == nullptr) {
      first_error_ = std::current_exception();
    }
    result = ExecutionResult{};
    result.executed = 1;
  }
  const std::uint64_t compute_ns = compute_timer.elapsed_ns();
  executed += result.executed;

  if (!result.sink_records.empty()) {
    sink_records_.add(result.sink_records.size());
    sink_target_->record_batch(std::move(result.sink_records));
  }
  // Delivered-message accounting is pre-routing: cross-boundary messages
  // count here and are reclassified remote by the transport's stats fold.
  messages_delivered_.add(result.deliveries.size() + result.fused_messages);
  route_deliveries(result.deliveries, item.phase);
  // The executor's output vector moves straight into the finish record and
  // the executed bundle goes back to the scheduler's pool: no per-message
  // repack, no allocation on the locked path at steady state.
  batch.push_back(Scheduler::StagedFinish{item.vertex, item.phase,
                                          std::move(result.deliveries),
                                          std::move(item.bundle)});
  return compute_ns;
}

void Engine::worker_main() {
  // Listing 1 with a per-batch tail: dequeue a fair share of the run queue
  // under one queue lock, execute it outside every lock, then lock once,
  // update the sets for the whole batch, unlock, and enqueue what it
  // issued. The buffers are reused across iterations.
  std::vector<Scheduler::ReadyPair> items;
  std::vector<Scheduler::StagedFinish> batch;
  std::vector<Scheduler::ReadyPair> ready;
  while (run_queue_.pop_share(items, options_.threads)) {
    support::Stopwatch batch_timer;
    std::uint64_t compute_ns = 0;
    std::uint64_t executed = 0;
    for (Scheduler::ReadyPair& item : items) {
      compute_ns += execute_pair(item, batch, executed);
    }
    items.clear();
    const event::PhaseId completed_now = apply_batch(batch, ready);
    batch.clear();
    // Feed the pool before the completion hook: the hook may block on a
    // channel send and must not starve the workers of the pairs just
    // issued. Both run outside the lock; the hook may not re-enter the
    // engine.
    enqueue_ready(ready);
    compute_ns_.add(compute_ns);
    bookkeeping_ns_.add(batch_timer.elapsed_ns() - compute_ns);
    executed_pairs_.add(executed);
    if (completed_now != 0 && options_.on_phase_complete) {
      options_.on_phase_complete(completed_now);
    }
  }
}

ExecStats Engine::stats() const {
  ExecStats stats;
  stats.executed_pairs = executed_pairs_.value();
  stats.messages_delivered = messages_delivered_.value();
  stats.sink_records = sink_records_.value();
  stats.compute_ns = compute_ns_.value();
  stats.bookkeeping_ns = bookkeeping_ns_.value();
  stats.wall_seconds = wall_seconds_;
  {
    conc::MutexLock lock(mutex_);
    stats.phases_completed = scheduler_.completed_through();
    stats.max_inflight_phases = max_inflight_;
    stats.mean_inflight_phases =
        inflight_samples_ == 0
            ? 0.0
            : static_cast<double>(inflight_sum_) /
                  static_cast<double>(inflight_samples_);
  }
  return stats;
}

}  // namespace df::core
