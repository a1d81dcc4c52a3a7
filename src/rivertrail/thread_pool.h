#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rivertrail/fault_injection.h"
#include "rivertrail/task.h"
#include "rivertrail/ws_deque.h"
#include "support/obs.h"

namespace jsceres::rivertrail {

#if defined(__x86_64__) || defined(__i386__)
inline void cpu_relax() { __builtin_ia32_pause(); }
#else
inline void cpu_relax() { std::this_thread::yield(); }
#endif

/// Fixed pool of task slots, one per worker. The owning worker allocates
/// (single consumer); any thread that finishes a stolen task frees (multiple
/// producers). The free list is a Treiber stack over slot indices — safe
/// from ABA precisely because there is exactly one popper: a node the owner
/// is inspecting cannot be re-pushed underneath it, since only the owner
/// ever pops.
///
/// The acquire/release pair on the head CAS is load-bearing beyond the list
/// itself: it orders a thief's reads of a task's payload before the owner's
/// rewrite of the recycled slot.
class TaskSlab {
 public:
  explicit TaskSlab(std::size_t capacity) : slots_(capacity), next_(capacity) {
    for (std::size_t i = 0; i < capacity; ++i) {
      next_[i].store(std::int32_t(i) + 1 < std::int32_t(capacity) ? std::int32_t(i) + 1
                                                                  : -1,
                     std::memory_order_relaxed);
    }
    free_head_.store(0, std::memory_order_relaxed);
  }

  /// Owner thread only. nullptr when exhausted (caller stops splitting).
  Task* acquire() {
    std::int32_t head = free_head_.load(std::memory_order_acquire);
    while (head >= 0 &&
           !free_head_.compare_exchange_weak(
               head, next_[std::size_t(head)].load(std::memory_order_relaxed),
               std::memory_order_acquire, std::memory_order_acquire)) {
    }
    return head < 0 ? nullptr : &slots_[std::size_t(head)];
  }

  /// Any thread.
  void release(Task* task) {
    const auto index = std::int32_t(task - slots_.data());
    std::int32_t head = free_head_.load(std::memory_order_relaxed);
    do {
      next_[std::size_t(index)].store(head, std::memory_order_relaxed);
    } while (!free_head_.compare_exchange_weak(head, index, std::memory_order_release,
                                               std::memory_order_relaxed));
  }

 private:
  std::vector<Task> slots_;
  std::vector<std::atomic<std::int32_t>> next_;
  std::atomic<std::int32_t> free_head_{-1};
};

/// Work-stealing worker pool. Each worker owns a Chase–Lev deque (ws_deque.h)
/// fed by its own recursive splits, plus a mutex-protected injection ring for
/// external submissions (round-robin across workers, so no single shared
/// queue serializes dispatch the way the old mutex+condvar pool did).
///
/// Work discovery order per worker: own deque (LIFO — cache-warm splits
/// first), own injection ring, then randomized stealing from other workers
/// with exponential backoff (pause → yield → park on the idle condvar).
/// Parking is missed-wakeup-free: a worker records the work epoch, rescans
/// everything, and only sleeps if the epoch is still current; producers bump
/// the epoch before checking for sleepers.
///
/// The destructor drains: workers only exit once stopping is set AND a full
/// scan (own deque, every injection ring, every victim) finds nothing.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned thread_count = 0) {
    if (thread_count == 0) {
      thread_count = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(thread_count);
    for (unsigned i = 0; i < thread_count; ++i) {
      workers_.push_back(std::make_unique<Worker>(this, i));
    }
    threads_.reserve(thread_count);
    for (unsigned i = 0; i < thread_count; ++i) {
      threads_.emplace_back([this, i] { worker_main(*workers_[i]); });
    }
  }

  ~ThreadPool() {
    stopping_.store(true, std::memory_order_seq_cst);
    {
      const std::lock_guard lock(idle_mutex_);
      idle_cv_.notify_all();
    }
    for (auto& thread : threads_) thread.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // --- submission ----------------------------------------------------------

  /// Generic fire-and-forget submission (cold path: boxes the callable).
  void submit(std::function<void()> fn) { inject(Task::boxed(std::move(fn))); }

  /// Inject one prebuilt task round-robin.
  void inject(Task task) {
    Worker& target = *workers_[next_inject_.fetch_add(1, std::memory_order_relaxed) %
                               workers_.size()];
    {
      const std::lock_guard lock(target.inject_mutex);
      target.inject.push_back(task);
      target.inject_nonempty.store(true, std::memory_order_release);
    }
    signal_work();
  }

  /// Inject `count` prebuilt tasks round-robin under one wakeup. This is the
  /// batched path parallel_for and par_reduce use to launch their roots.
  void inject_bulk(const Task* tasks, std::size_t count) {
    if (count == 0) return;
    const std::size_t start =
        next_inject_.fetch_add(count, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      Worker& target = *workers_[(start + i) % workers_.size()];
      const std::lock_guard lock(target.inject_mutex);
      target.inject.push_back(tasks[i]);
      target.inject_nonempty.store(true, std::memory_order_release);
    }
    signal_work();
  }

  // --- worker-context services (used by parallel_for) ----------------------

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const {
    return tls_worker_ != nullptr && tls_worker_->pool == this;
  }

  /// Push a task onto the calling worker's own deque (splitting hot path —
  /// no locks, no allocation; the slot comes from the worker's slab). False
  /// when not on a worker thread or when slab/deque are full: the caller
  /// keeps the work and runs it inline instead.
  template <typename F>
  bool try_push_local(F fn) {
    if (!on_worker_thread()) return false;
    Worker& self = *tls_worker_;
    Task* slot = self.slab.acquire();
    if (slot == nullptr) return false;
    *slot = Task::inline_of(fn);
    if (!self.deque.push(slot)) {
      self.slab.release(slot);
      return false;
    }
    JSCERES_OBS_COUNT("sched.splits", 1);
    // Unconditional, like inject(): the epoch bump must precede the
    // sleepers check or a worker parking between its rescan and its
    // sleepers_ increment sleeps through this push. Splits only happen
    // while somebody is hungry, so the seq_cst RMW here is rare.
    signal_work();
    return true;
  }

  /// Somebody is out of work right now (scanning for a steal, helping at a
  /// join, or parked). parallel_for's adaptive splitter keys off this: split
  /// while thieves are hungry, run the rest of the range inline once
  /// everyone is busy.
  [[nodiscard]] bool has_hungry_thief() const {
    return hungry_.load(std::memory_order_relaxed) > 0 ||
           sleepers_.load(std::memory_order_relaxed) > 0;
  }

  /// Run one pending task if any can be found (own deque when on a worker
  /// thread, else injection rings / steals). Used by join loops so a thread
  /// waiting on a gate helps instead of blocking — which is also what makes
  /// nested parallel_for deadlock-free. The scan counts as hungry so that
  /// running ranges split for the helper to steal.
  bool try_run_one() {
    if (on_worker_thread()) {
      Worker& self = *tls_worker_;
      if (Task* task = self.deque.pop()) {
        run_owned(self, task);
        return true;
      }
    }
    Task task;
    hungry_.fetch_add(1, std::memory_order_relaxed);
    const bool found = find_nonlocal(scan_origin(), &task);
    hungry_.fetch_sub(1, std::memory_order_relaxed);
    if (found) {
      sched_faults::event_nothrow();  // claim-by-helper scheduling event
      JSCERES_OBS_COUNT("sched.tasks_helped", 1);
      JSCERES_OBS_SPAN("sched", "task");
      task.run();
    }
    return found;
  }

  [[nodiscard]] unsigned size() const { return unsigned(workers_.size()); }

 private:
  struct Worker {
    Worker(ThreadPool* pool_, unsigned index_)
        : pool(pool_), index(index_), deque(kDequeCapacity), slab(kDequeCapacity),
          rng_state(0x9e3779b97f4a7c15ull ^ (index_ + 1)) {}

    ThreadPool* pool;
    unsigned index;
    WsDeque deque;
    TaskSlab slab;
    std::mutex inject_mutex;
    std::deque<Task> inject;
    /// Lock-free "ring might be non-empty" peek so the (frequent) idle and
    /// help scans skip empty rings without touching the mutex. Producers
    /// set it after pushing under the lock; consumers clear it under the
    /// lock when they drain the last task. A stale-false read is bridged by
    /// the epoch protocol (work published before the bump), a stale-true
    /// read just costs one lock.
    std::atomic<bool> inject_nonempty{false};
    std::uint64_t rng_state;
  };

  // Per-worker split budget. A full deque/slab just degrades to running
  // ranges inline, so this bounds memory, not correctness.
  static constexpr std::size_t kDequeCapacity = 1024;

  static thread_local Worker* tls_worker_;

  void worker_main(Worker& self) {
    tls_worker_ = &self;
    JSCERES_OBS_SET_THREAD_NAME("worker-" + std::to_string(self.index));
    while (true) {
      if (Task* task = self.deque.pop()) {
        run_owned(self, task);
        continue;
      }
      // Out of local work: stay marked hungry for the whole search so
      // running ranges keep splitting on our behalf.
      Task task;
      bool found = false;
      hungry_.fetch_add(1, std::memory_order_relaxed);
      int idle_rounds = 0;
      while (true) {
        found = find_nonlocal(self.index, &task);
        if (found || stopping_.load(std::memory_order_acquire)) break;
        // Backoff: brief spin (work showing up right after a split is the
        // common case), then yield to let producers run on oversubscribed
        // hosts, then park.
        ++idle_rounds;
        if (idle_rounds <= 2) {
          for (int i = 0; i < 32; ++i) cpu_relax();
        } else if (idle_rounds <= 8) {
          std::this_thread::yield();
        } else {
          found = park(self, &task);
          if (found) break;
          idle_rounds = 0;
        }
      }
      hungry_.fetch_sub(1, std::memory_order_relaxed);
      if (found) {
        sched_faults::event_nothrow();  // steal/inject-claim scheduling event
        JSCERES_OBS_SPAN("sched", "task");
        task.run();
        continue;
      }
      break;  // stopping, and a full scan found nothing
    }
    tls_worker_ = nullptr;
  }

  /// Run a task popped from `self`'s own deque: copy out, recycle the slot,
  /// then execute.
  void run_owned(Worker& self, Task* task) {
    Task local = *task;
    self.slab.release(task);
    sched_faults::event_nothrow();  // own-deque pop scheduling event
    JSCERES_OBS_COUNT("sched.tasks_own", 1);
    JSCERES_OBS_SPAN("sched", "task");
    local.run();
  }

  /// One full scan for non-local work, starting near `origin`: injection
  /// rings first (external submissions are the oldest work), then one steal
  /// attempt per victim in randomized order. Copies the found task into
  /// `*out`; stolen slots are recycled here, before the task runs.
  bool find_nonlocal(unsigned origin, Task* out) {
    const unsigned n = unsigned(workers_.size());
    for (unsigned i = 0; i < n; ++i) {
      Worker& victim = *workers_[(origin + i) % n];
      if (!victim.inject_nonempty.load(std::memory_order_acquire)) continue;
      const std::lock_guard lock(victim.inject_mutex);
      if (!victim.inject.empty()) {
        *out = victim.inject.front();
        victim.inject.pop_front();
        if (victim.inject.empty()) {
          victim.inject_nonempty.store(false, std::memory_order_relaxed);
        }
        JSCERES_OBS_COUNT("sched.inject_claims", 1);
        return true;
      }
    }
    const unsigned start = victim_seed();
    for (unsigned i = 0; i < n; ++i) {
      Worker& victim = *workers_[(start + i) % n];
      if (Task* task = victim.deque.steal()) {
        *out = *task;
        victim.slab.release(task);
        JSCERES_OBS_COUNT("sched.steals", 1);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] unsigned scan_origin() const {
    return unsigned(next_inject_.load(std::memory_order_relaxed)) %
           unsigned(workers_.size());
  }

  unsigned victim_seed() {
    // Workers advance their own xorshift state; external helper threads use
    // a thread_local seeded from its own address, so concurrent helpers do
    // not all start every scan at the same victim.
    static thread_local std::uint64_t tls_helper_seed = 0;
    std::uint64_t* state;
    if (tls_worker_ != nullptr && tls_worker_->pool == this) {
      state = &tls_worker_->rng_state;
    } else {
      if (tls_helper_seed == 0) {
        tls_helper_seed =
            0x9e3779b97f4a7c15ull ^ std::uint64_t(reinterpret_cast<std::uintptr_t>(&tls_helper_seed));
      }
      state = &tls_helper_seed;
    }
    std::uint64_t x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    return unsigned(x % workers_.size());
  }

  /// Missed-wakeup-free parking: record the epoch, rescan, and only sleep if
  /// the epoch is still current. Producers publish work first and bump the
  /// epoch second, so either the rescan sees the work or the wait predicate
  /// sees the bumped epoch. Returns true with `*out` filled when the rescan
  /// found work instead of sleeping.
  bool park(Worker& self, Task* out) {
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (find_nonlocal(self.index, out)) return true;
    JSCERES_OBS_COUNT("sched.parks", 1);
    std::unique_lock lock(idle_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    idle_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) ||
             work_epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }

  void signal_work() {
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      const std::lock_guard lock(idle_mutex_);
      idle_cv_.notify_all();
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_inject_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<int> hungry_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> work_epoch_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

inline thread_local ThreadPool::Worker* ThreadPool::tls_worker_ = nullptr;

}  // namespace jsceres::rivertrail
