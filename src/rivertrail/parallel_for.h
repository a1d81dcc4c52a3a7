#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "rivertrail/fault_injection.h"
#include "rivertrail/task.h"
#include "rivertrail/thread_pool.h"
#include "support/cancel.h"

namespace jsceres::rivertrail {

/// Blocking completion latch (std::latch-alike; kept local so the pool stays
/// task-agnostic). Counts down by arbitrary amounts so range tasks can
/// retire whole spans of iterations at once.
///
/// Destruction protocol: `done()` is an advisory lock-free peek (help loops
/// poll it to decide whether to keep running tasks) — it may become true
/// while the final arriver is still inside the mutex/cv members. Anyone
/// about to DESTROY the gate must return through `wait()`, whose predicate
/// is the `completed_` flag written under the mutex: that handshake
/// guarantees the last arriver has fully left the gate (POSIX permits
/// destroying a mutex immediately after it is unlocked).
class CompletionGate {
 public:
  explicit CompletionGate(std::int64_t count)
      : remaining_(count), completed_(count <= 0) {}
  void arrive(std::int64_t n = 1) {
    if (remaining_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      const std::lock_guard lock(mutex_);
      completed_ = true;
      cv_.notify_all();
    }
  }
  /// Advisory: true once every count has been retired. NOT sufficient to
  /// destroy the gate — see class comment.
  [[nodiscard]] bool done() const {
    return remaining_.load(std::memory_order_acquire) <= 0;
  }
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return completed_; });
  }

 private:
  std::atomic<std::int64_t> remaining_;
  bool completed_;  // guarded by mutex_: the destruction-safe signal
  std::mutex mutex_;
  std::condition_variable cv_;
};

namespace detail {

/// First-exception-wins capture shared by every loop descriptor. Bodies run
/// on whichever thread claimed the span; the winning exception is rethrown
/// on the calling thread once the loop quiesces, later ones are swallowed.
struct ErrorSlot {
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::exception_ptr error;

  void capture() noexcept {
    const std::lock_guard lock(mutex);
    if (!failed.exchange(true, std::memory_order_relaxed)) {
      error = std::current_exception();
    }
  }
  /// Fast pre-check so remaining spans are skipped after a failure.
  [[nodiscard]] bool has_failed() const {
    return failed.load(std::memory_order_relaxed);
  }
  void rethrow_if_failed() {
    if (failed.load(std::memory_order_acquire)) std::rethrow_exception(error);
  }
};

/// Help-first join: run pool tasks while the gate is pending, then block.
/// Waiting threads contribute cycles instead of sleeping (the caller-runs
/// half of the low dispatch latency), and a worker blocked at a nested
/// parallel_for keeps draining its own deque — which is what makes nesting
/// deadlock-free.
inline void help_until(ThreadPool& pool, CompletionGate& gate) {
  int misses = 0;
  while (!gate.done()) {
    if (pool.try_run_one()) {
      misses = 0;
      continue;
    }
    // After a few empty scans the remaining spans are executing on other
    // threads; stop spinning and block.
    if (++misses >= 3) break;
    cpu_relax();
  }
  // Callers destroy the gate right after this returns; wait() (not the
  // advisory done()) is the handshake that lets them (see CompletionGate).
  gate.wait();
}

/// Shared state of one parallel_for invocation, on the calling thread's
/// stack; the gate's final arrive is the lifetime fence (every task touches
/// the descriptor strictly before its last arrive, and the caller cannot
/// return from wait before that).
template <typename Body>
struct LoopDesc {
  ThreadPool* pool;
  const Body* body;
  CompletionGate* gate;
  std::int64_t min_grain;  // never split below this many iterations
  std::int64_t leaf_cap;   // longest indivisible span handed to `body`
  CancelToken cancel;      // observed per leaf span and at split points
  ErrorSlot error;
};

/// Execute [lo, hi): steal-half discipline. When a thief is hungry the
/// owner sheds the top half of its remaining range as ONE task — at most
/// once per leaf span — and the thief re-splits its stolen half locally for
/// whoever is still hungry. Distribution therefore fans out exponentially
/// across thieves while the victim pays a single push (and a single
/// signal_work) per shed, instead of the old cascade that shed 1/2, 1/4,
/// 1/8, ... from one victim while a thief was mid-scan (the ROADMAP
/// steal-half item: deep splits used to multiply steal traffic at the
/// victim). Running the remainder in leaf_cap-bounded spans keeps the
/// hungry check fresh, so a range that started with no thieves in sight
/// still sheds when one shows up mid-flight. The body region is wrapped so
/// the gate always retires every iteration of the range, exception or not.
///
/// Cancellation is observed here, at the split decision (a cancelled loop
/// stops shedding new tasks) and before each leaf span (remaining spans
/// drain as no-ops, exactly like the post-exception path): every iteration
/// still retires the gate, so the join stays clean and the token leak-free.
template <typename Body>
void run_range(LoopDesc<Body>& desc, std::int64_t lo, std::int64_t hi) {
  ThreadPool& pool = *desc.pool;
  CompletionGate& gate = *desc.gate;
  const bool on_worker = pool.on_worker_thread();
  while (lo < hi) {
    if (hi - lo > desc.min_grain && pool.has_hungry_thief() &&
        !desc.error.has_failed() && !desc.cancel.cancelled()) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      LoopDesc<Body>* desc_ptr = &desc;
      const std::int64_t split_lo = mid;
      const std::int64_t split_hi = hi;
      const auto split_fn = [desc_ptr, split_lo, split_hi] {
        run_range(*desc_ptr, split_lo, split_hi);
      };
      if (on_worker) {
        // Deque/slab full: keep the range and run it inline.
        if (pool.try_push_local(split_fn)) hi = mid;
      } else if (hi - lo > desc.leaf_cap) {
        // A non-worker caller (the external-dispatch root 0) has no deque;
        // shed through the injection ring instead so a heavy leading range
        // cannot stay pinned to the calling thread while workers starve.
        // Only shed spans a hungry worker can meaningfully re-split.
        pool.inject(Task::inline_of(split_fn));
        hi = mid;
      }
    }
    const std::int64_t span_hi = std::min(hi, lo + desc.leaf_cap);
    if (!desc.error.has_failed() && !desc.cancel.cancelled()) {
      try {
        sched_faults::event();
        (*desc.body)(lo, span_hi);
      } catch (...) {
        desc.error.capture();
      }
    }
    gate.arrive(span_hi - lo);  // last touch of desc for this span
    lo = span_hi;
  }
}

}  // namespace detail

/// Run body(begin, end) over [begin, end) chunks in parallel and wait.
/// `body` must be data-race free across disjoint ranges — which is precisely
/// the property the dependence analyzer certifies for "easy" loop nests.
/// The first exception a body region throws is rethrown here after every
/// iteration has been retired (no deadlock, no dangling captures).
///
/// The range is divided by adaptive recursive splitting on the work-stealing
/// runtime: one root per worker, and a running range sheds its top half
/// whenever a thief is hungry. Uniform kernels degenerate to equal chunks;
/// divergent ones (the raytracer's variable-depth recursion, the
/// control-flow divergence of Table 3) rebalance through steals without
/// paying per-chunk atomics.
///
/// `grain` is the smallest range the splitter will divide. 0 picks a default
/// from n and the worker count.
///
/// `cancel` (default inert) is observed cooperatively at split points and
/// before each leaf span; a cancelled loop drains every remaining iteration
/// as a no-op and then throws CancelledError here at the join. When a body
/// exception and cancellation race, the exception wins (first-exception-wins
/// discipline is unchanged).
template <typename Body>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end, Body body,
                  std::int64_t grain = 0, CancelToken cancel = {}) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  cancel.raise_if_cancelled();
  const auto workers = std::int64_t(pool.size());
  if (workers <= 1 || n == 1) {
    body(begin, end);
    return;
  }

  if (grain <= 0) grain = std::max<std::int64_t>(1, n / (workers * 32));
  CompletionGate gate{n};
  detail::LoopDesc<Body> desc{&pool, &body, &gate, grain,
                              std::max<std::int64_t>(grain, n / (workers * 8)),
                              cancel};
  // One root per worker; the caller keeps the first range for itself
  // (running it beats waking a worker for small kernels) and helps until
  // the gate closes. Each root retires its own iterations, so the gate
  // cannot close while any root is still queued — descriptor lifetime is
  // safe.
  const std::int64_t roots = std::min<std::int64_t>(workers, n);
  detail::LoopDesc<Body>* desc_ptr = &desc;
  if (pool.on_worker_thread()) {
    // Nested: feed our own deque so siblings can steal, then join.
    for (std::int64_t c = 1; c < roots; ++c) {
      const std::int64_t lo = begin + n * c / roots;
      const std::int64_t hi = begin + n * (c + 1) / roots;
      if (!pool.try_push_local(
              [desc_ptr, lo, hi] { detail::run_range(*desc_ptr, lo, hi); })) {
        detail::run_range(desc, lo, hi);
      }
    }
  } else {
    std::vector<Task> injected;
    injected.reserve(std::size_t(roots) - 1);
    for (std::int64_t c = 1; c < roots; ++c) {
      const std::int64_t lo = begin + n * c / roots;
      const std::int64_t hi = begin + n * (c + 1) / roots;
      injected.push_back(Task::inline_of(
          [desc_ptr, lo, hi] { detail::run_range(*desc_ptr, lo, hi); }));
    }
    pool.inject_bulk(injected.data(), injected.size());
  }
  detail::run_range(desc, begin, begin + n / roots);
  detail::help_until(pool, gate);
  desc.error.rethrow_if_failed();
  cancel.raise_if_cancelled();
}

/// Run `fn(c, lo, hi)` for chunks c in [0, chunks) with the deterministic
/// equal-split boundaries lo = n*c/chunks. The fixed boundaries are the
/// point: par_reduce and other order-sensitive combines need partials whose
/// extents never depend on scheduling. Launched as inline tasks through the
/// batched injection path; the caller runs chunk 0 and helps.
template <typename ChunkFn>
void parallel_chunks(ThreadPool& pool, std::int64_t n, std::int64_t chunks,
                     const ChunkFn& fn, CancelToken cancel = {}) {
  if (n <= 0 || chunks <= 0) return;
  struct ChunkDesc {
    const ChunkFn* fn;
    CompletionGate* gate;
    std::int64_t n;
    std::int64_t chunks;
    CancelToken cancel;
    detail::ErrorSlot error;
  };
  CompletionGate gate{chunks};
  ChunkDesc desc{&fn, &gate, n, chunks, cancel};
  ChunkDesc* desc_ptr = &desc;
  const auto run_chunk = [](ChunkDesc& d, std::int64_t c) {
    CompletionGate& g = *d.gate;
    if (!d.error.has_failed() && !d.cancel.cancelled()) {
      try {
        sched_faults::event();
        (*d.fn)(c, d.n * c / d.chunks, d.n * (c + 1) / d.chunks);
      } catch (...) {
        d.error.capture();
      }
    }
    g.arrive();  // last touch of d for this chunk
  };
  if (pool.size() <= 1 || chunks == 1) {
    for (std::int64_t c = 0; c < chunks; ++c) run_chunk(desc, c);
  } else {
    std::vector<Task> injected;
    injected.reserve(std::size_t(chunks) - 1);
    for (std::int64_t c = 1; c < chunks; ++c) {
      injected.push_back(
          Task::inline_of([desc_ptr, run_chunk, c] { run_chunk(*desc_ptr, c); }));
    }
    pool.inject_bulk(injected.data(), injected.size());
    run_chunk(desc, 0);
    detail::help_until(pool, gate);
  }
  desc.error.rethrow_if_failed();
  cancel.raise_if_cancelled();
}

/// Deterministic parallel reduction: per-chunk partials combined in chunk
/// order. Chunk boundaries come from parallel_chunks' fixed formula — NOT
/// from the adaptive splitter — so floating-point results are reproducible
/// run-to-run for a fixed worker count regardless of how steals landed.
template <typename T, typename Acc, typename Transform, typename Combine>
Acc par_reduce(ThreadPool& pool, const std::vector<T>& in, Acc identity,
               Transform transform, Combine combine) {
  const auto workers = std::int64_t(pool.size());
  const std::int64_t n = std::int64_t(in.size());
  if (n == 0) return identity;
  const std::int64_t chunks = std::min<std::int64_t>(std::max<std::int64_t>(workers, 1), n);
  std::vector<Acc> partials(std::size_t(chunks), identity);
  parallel_chunks(pool, n, chunks,
                  [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                    Acc acc = identity;
                    for (std::int64_t i = lo; i < hi; ++i) {
                      acc = combine(acc, transform(in[std::size_t(i)]));
                    }
                    partials[std::size_t(c)] = acc;
                  });
  Acc result = identity;
  for (const Acc& partial : partials) result = combine(result, partial);
  return result;
}

}  // namespace jsceres::rivertrail
