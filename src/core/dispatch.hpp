// Work-stealing dispatch: the engine's opt-in replacement for the central
// blocking run queue (DESIGN.md, "Work-stealing dispatch").
//
// One Lane per worker:
//   * a bounded Chase–Lev WsDeque — the owner pushes/pops ready pairs at
//     the bottom (LIFO, cache-warm), thieves steal from the top;
//   * an inbox (a small mutex-protected Injector) — the cross-thread
//     half of "distribute ready batches round-robin into worker deques":
//     a Chase–Lev bottom is single-owner by construction, so a foreign
//     producer (the environment thread in start_phase, or the drainer
//     handing out a ready batch) cannot write another worker's deque
//     directly; it pushes the chunk into the target's inbox under one
//     lock acquisition and unparks exactly that worker. The owner moves
//     inbox chunks into its deque before stealing from anyone else, so
//     inbox traffic stays batch-granular and lane-local;
//   * a Parker — one-permit semaphore for the spin-then-park idle policy.
//
// Plus one shared global Injector: the overflow pool a full deque spills
// to, and the refill source of last resort before parking.
//
// Worker acquire order: own deque pop -> inbox refill -> steal sweep over
// the other lanes -> global injector -> (drain staged finishes via the
// caller's pre-block hook) -> adaptive spin -> park. See the header
// comments in concurrency/ws_deque.hpp and concurrency/parker.hpp for the
// memory-order and wakeup arguments; the no-lost-wakeup contract is:
//
//   every enqueued item lives in a structure whose responsible consumer
//   is either awake or has a parker permit banked.
//
//   * own-deque items: pushed by the owner while running, and a worker
//     never parks before its own deque is empty;
//   * inbox items: every inbox push is followed unconditionally by
//     unpark(target) — if the target was mid-park-decision the permit is
//     banked and its park() returns immediately for another sweep;
//   * injector items: the spilling worker itself sweeps the injector
//     before it can park, so the spiller is the guaranteed consumer; the
//     idle-mask unparks on spill (and the wake-another chain when a
//     refill leaves items behind) only add parallelism, they are not
//     load-bearing for liveness.
//
// Thread-safety annotations: the lock-free deque/parker/idle-mask
// protocols are beyond clang's lock-based analysis (documented there);
// the mutex-guarded pieces (Injector) are annotated. The TSan stress
// suite (ctest -L concurrency) is the checker for the lock-free parts.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "concurrency/parker.hpp"
#include "concurrency/ws_deque.hpp"
#include "support/check.hpp"

namespace df::core {

template <typename T>
class StealDispatch {
 public:
  /// Producer id used by threads that own no lane (the environment
  /// thread): every chunk they dispatch goes through inboxes.
  static constexpr std::size_t kExternalProducer =
      static_cast<std::size_t>(-1);

  struct Counters {
    std::uint64_t steals_ok = 0;     // successful steals from another lane
    std::uint64_t steals_empty = 0;  // steal sweeps that found nothing
    std::uint64_t parks = 0;         // times a worker actually slept
  };

  /// `chunk` is the batch-affine dispatch granule; 0 picks
  /// ceil(batch/workers) per push so a batch wakes at most
  /// min(batch, workers) workers. Deque capacity is rounded up to a
  /// power of two.
  StealDispatch(std::size_t workers, std::size_t deque_capacity,
                std::size_t chunk)
      : chunk_(chunk) {
    DF_CHECK(workers >= 1 && workers <= 64,
             "work-stealing dispatch supports 1..64 workers, got ", workers);
    std::size_t capacity = 2;
    while (capacity < deque_capacity) {
      capacity *= 2;
    }
    lanes_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      lanes_.push_back(std::make_unique<Lane>(capacity));
    }
  }

  /// Distributes `batch` in chunks: the producing worker's first chunk is
  /// owner-pushed into its own deque (cache-warm pairs stay local, one
  /// release store per item, no lock); every other chunk goes to a
  /// round-robin lane's inbox under one lock acquisition, followed by a
  /// targeted unpark of exactly that lane. Elements are moved out;
  /// callers clear() and reuse the vector. Returns false once closed —
  /// like BlockingQueue::push_all, the caller treats that as "dropped,
  /// legal only while abandoning".
  bool push_batch(std::vector<T>& batch, std::size_t producer) {
    if (batch.empty()) {
      return true;
    }
    if (closed_.load(std::memory_order_acquire)) {
      return false;
    }
    const std::size_t workers = lanes_.size();
    const std::size_t chunk =
        chunk_ != 0 ? chunk_ : (batch.size() + workers - 1) / workers;
    std::size_t i = 0;
    if (producer < workers) {
      Lane& self = *lanes_[producer];
      const std::size_t own_end =
          chunk < batch.size() ? chunk : batch.size();
      while (i < own_end && self.deque.push(batch[i])) {
        ++i;
      }
      // A refused push means the deque is full: fall through and let the
      // remainder (this chunk's tail included) spill through the inbox /
      // injector machinery below.
    }
    bool ok = true;
    while (i < batch.size()) {
      const std::size_t end =
          i + chunk < batch.size() ? i + chunk : batch.size();
      Lane& target =
          *lanes_[rr_.fetch_add(1, std::memory_order_relaxed) % workers];
      if (target.inbox.push_batch(
              std::span<T>(batch).subspan(i, end - i))) {
        target.parker.unpark();
      } else {
        ok = false;  // closed mid-distribution (abandoning teardown)
      }
      i = end;
    }
    return ok;
  }

  /// Worker side: returns the next item to execute, or nullopt once the
  /// dispatch is closed and this worker's sweep finds nothing left.
  /// `pre_block` runs every time the worker is about to give up on a
  /// sweep — the engine drains its staged finishes there (the same
  /// "drain everything before you block" contract the central queue's
  /// pre-block hook honors), which may enqueue fresh work.
  template <typename PreBlock>
  std::optional<T> acquire(std::size_t worker, PreBlock&& pre_block) {
    Lane& lane = *lanes_[worker];
    for (;;) {
      // Read closed_ *before* the sweep: every batch pushed before close()
      // is then visible to it, so an empty sweep after a closed read means
      // this lane is drained. Read after the sweep instead, a batch could
      // land in the inbox between the two and be stranded.
      const bool closed = closed_.load(std::memory_order_acquire);
      if (std::optional<T> item = lane.deque.pop()) {
        return item;
      }
      if (std::optional<T> item = refill_from_inbox(lane)) {
        return item;
      }
      if (std::optional<T> item = steal_sweep(worker, lane)) {
        return item;
      }
      if (std::optional<T> item = refill_from_injector(lane)) {
        return item;
      }
      if (closed) {
        // Closed and this worker's full sweep came up empty: exit. Other
        // lanes' leftovers (abandoning teardown only) are drained or
        // destroyed by their own owners — a worker never exits with items
        // in its own lane.
        return std::nullopt;
      }
      pre_block();
      // The drain may have fed our own lane (producer == this worker) or
      // the injector; re-sweep before spending any spin budget.
      if (anything_local(lane)) {
        continue;
      }
      if (spin_for_work(worker, lane)) {
        lane.spin.spin_succeeded();
        continue;
      }
      // Advertise idleness, then re-check, then park. The idle bit only
      // gates the *optional* spill-path wakeups (see file comment); the
      // re-check after setting it closes the obvious window, and inbox
      // pushes need no window at all (their permits are sticky).
      idle_.fetch_or(bit(worker), std::memory_order_seq_cst);
      if (closed_.load(std::memory_order_acquire) ||
          anything_visible(worker, lane)) {
        idle_.fetch_and(~bit(worker), std::memory_order_relaxed);
        continue;
      }
      lane.spin.spin_failed();
      lane.parks.fetch_add(1, std::memory_order_relaxed);
      lane.parker.park();
      idle_.fetch_and(~bit(worker), std::memory_order_relaxed);
    }
  }

  /// Closes the dispatch: future pushes are rejected, every worker is
  /// unparked and exits once its sweep runs dry. The caller orders any
  /// abandoning flag *before* this call; the closed_ release store (and
  /// the inbox mutexes) publish it to workers that observe a rejected
  /// push, mirroring BlockingQueue::close.
  void close() {
    closed_.store(true, std::memory_order_release);
    // The global injector stays open: only workers feed it (deque
    // overflow in take_first_stash_rest), and a spill that lands after
    // close must not drop items the dispatch already accepted. The
    // spiller sweeps the injector before it can exit, so nothing strands.
    for (auto& lane : lanes_) {
      lane->inbox.close();
    }
    for (auto& lane : lanes_) {
      lane->parker.unpark();
    }
  }

  Counters counters() const {
    Counters total;
    for (const auto& lane : lanes_) {
      total.steals_ok += lane->steals_ok.load(std::memory_order_relaxed);
      total.steals_empty +=
          lane->steals_empty.load(std::memory_order_relaxed);
      total.parks += lane->parks.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::size_t workers() const { return lanes_.size(); }

 private:
  struct Lane {
    explicit Lane(std::size_t capacity) : deque(capacity) {}

    conc::WsDeque<T> deque;
    conc::Injector<T> inbox;
    conc::Parker parker;
    conc::SpinBudget spin;           // owner-only
    std::vector<T> refill_scratch;   // owner-only, reused across refills
    std::size_t next_victim = 0;     // owner-only steal-sweep rotation
    // Relaxed counters: written by the owner, read by stats() snapshots.
    std::atomic<std::uint64_t> steals_ok{0};
    std::atomic<std::uint64_t> steals_empty{0};
    std::atomic<std::uint64_t> parks{0};
  };

  static std::uint64_t bit(std::size_t worker) {
    return std::uint64_t{1} << worker;
  }

  /// Moves one inbox chunk into the owner's deque; returns the first
  /// item. Overflow (a slow thief still vacating a slot) spills the
  /// remainder to the global injector, so nothing is ever dropped.
  std::optional<T> refill_from_inbox(Lane& lane) {
    std::vector<T>& scratch = lane.refill_scratch;
    scratch.clear();
    if (lane.inbox.try_pop_batch(scratch, lane.deque.capacity()) == 0) {
      return std::nullopt;
    }
    return take_first_stash_rest(lane, scratch);
  }

  /// Pulls a chunk from the global injector. If items remain behind,
  /// wakes one more idle worker so a deep backlog drains in parallel
  /// (wake-chaining; each woken worker wakes at most one more).
  std::optional<T> refill_from_injector(Lane& lane) {
    std::vector<T>& scratch = lane.refill_scratch;
    scratch.clear();
    const std::size_t chunk =
        chunk_ != 0 ? chunk_ : lane.deque.capacity() / 4 + 1;
    if (injector_.try_pop_batch(scratch, chunk) == 0) {
      return std::nullopt;
    }
    if (!injector_.empty()) {
      unpark_one_idle();
    }
    return take_first_stash_rest(lane, scratch);
  }

  std::optional<T> take_first_stash_rest(Lane& lane,
                                         std::vector<T>& scratch) {
    T first = std::move(scratch.front());
    std::size_t kept = 1;
    for (std::size_t i = 1; i < scratch.size(); ++i) {
      if (lane.deque.push(scratch[i])) {
        ++kept;
        continue;
      }
      // Deque full (possible only through seq lag or a tiny capacity):
      // spill the tail back to the injector in one batch (never closed,
      // so the spill cannot be rejected).
      scratch.erase(scratch.begin(),
                    scratch.begin() + static_cast<std::ptrdiff_t>(kept));
      injector_.push_batch(std::span<T>(scratch));
      scratch.clear();
      // Parallelism-only wakeup (liveness never depends on it: this worker
      // sweeps the injector itself before it can park): let an idle worker
      // help with the spilled backlog.
      unpark_one_idle();
      return first;
    }
    scratch.clear();
    return first;
  }

  std::optional<T> steal_sweep(std::size_t worker, Lane& lane) {
    const std::size_t workers = lanes_.size();
    if (workers == 1) {
      return std::nullopt;
    }
    // One full rotation over the other lanes, resuming where the last
    // sweep left off so repeat thieves spread across victims.
    for (std::size_t probe = 0; probe + 1 < workers; ++probe) {
      lane.next_victim = (lane.next_victim + 1) % workers;
      if (lane.next_victim == worker) {
        lane.next_victim = (lane.next_victim + 1) % workers;
      }
      if (std::optional<T> item = lanes_[lane.next_victim]->deque.steal()) {
        lane.steals_ok.fetch_add(1, std::memory_order_relaxed);
        return item;
      }
    }
    lane.steals_empty.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Cheap polling probe for the spin phase: no stealing, just emptiness
  /// checks, so a spinning worker does not bounce victims' cache lines
  /// with failed CASes.
  bool spin_for_work(std::size_t worker, Lane& lane) {
    const std::uint32_t budget = lane.spin.budget();
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (anything_visible(worker, lane)) {
        return true;
      }
      conc::cpu_relax();
    }
    return false;
  }

  bool anything_local(const Lane& lane) const {
    return !lane.deque.empty() || !lane.inbox.empty() ||
           !injector_.empty();
  }

  bool anything_visible(std::size_t worker, const Lane& lane) const {
    if (anything_local(lane)) {
      return true;
    }
    for (std::size_t v = 0; v < lanes_.size(); ++v) {
      if (v != worker && !lanes_[v]->deque.empty()) {
        return true;
      }
    }
    return false;
  }

  void unpark_one_idle() {
    std::uint64_t idle = idle_.load(std::memory_order_seq_cst);
    while (idle != 0) {
      const std::size_t victim = static_cast<std::size_t>(
          std::countr_zero(idle));
      // Claim the bit so concurrent spillers fan out over distinct
      // sleepers instead of dogpiling one.
      if (idle_.compare_exchange_weak(idle, idle & ~bit(victim),
                                      std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
        lanes_[victim]->parker.unpark();
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Lane>> lanes_;
  conc::Injector<T> injector_;
  std::size_t chunk_;
  std::atomic<std::size_t> rr_{0};
  std::atomic<std::uint64_t> idle_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace df::core
