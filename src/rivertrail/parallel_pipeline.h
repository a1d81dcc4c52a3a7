#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "rivertrail/fault_injection.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/thread_pool.h"
#include "support/cancel.h"
#include "support/obs.h"

namespace jsceres::rivertrail {

/// One stage of a parallel_pipeline. Serial stages execute tokens strictly
/// in ticket order, one at a time (TBB's serial_in_order); parallel stages
/// execute any ready token immediately on whichever worker carries it.
///
/// The stage body receives the token's ticket (0, 1, 2, ...). The FIRST
/// stage may return false to end the stream early ("input dried up"); later
/// stages' return values are ignored. Use serial_stage / parallel_stage to
/// build one from a void- or bool-returning callable.
struct PipelineStage {
  bool serial = true;
  std::function<bool(std::size_t)> fn;
};

namespace pipe_detail {

template <typename F>
std::function<bool(std::size_t)> adapt(F fn) {
  if constexpr (std::is_void_v<std::invoke_result_t<F, std::size_t>>) {
    return [fn = std::move(fn)](std::size_t token) mutable {
      fn(token);
      return true;
    };
  } else {
    return std::function<bool(std::size_t)>(std::move(fn));
  }
}

}  // namespace pipe_detail

template <typename F>
PipelineStage serial_stage(F fn) {
  return PipelineStage{true, pipe_detail::adapt(std::move(fn))};
}

template <typename F>
PipelineStage parallel_stage(F fn) {
  return PipelineStage{false, pipe_detail::adapt(std::move(fn))};
}

namespace pipe_detail {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Shared state of one pipeline invocation (on the calling thread's stack;
/// the gate is the lifetime fence, exactly like LoopDesc).
///
/// Tokens are tickets 0..total-1, spawned in ticket order with at most
/// `in_flight` alive at once (a retiring token spawns the next ticket).
/// Each token walks the stage list as a chain of 48-byte inline tasks
/// ({run, ticket, stage} is 24 bytes). Serial stages order tokens with a
/// per-stage ticket turnstile: a token arriving out of turn parks in a ring
/// of flags and is re-spawned by its predecessor — the parking token's task
/// simply ends, so nothing blocks and help-first joins stay live. The ring
/// needs only `in_flight` slots: every parked ticket t satisfies
/// stage.next < t < stage.next + in_flight (all tickets in between are
/// alive, and at most in_flight tokens are alive), so ticket % capacity is
/// collision-free.
///
/// End-of-stream: when the input stage returns false at ticket t, tickets
/// > t still flow through as "bubbles" (bodies skipped, turnstiles and the
/// gate still retired) — the cost of a bubble is a few atomic ops, and it
/// keeps the gate's count statically known. Exceptions behave like
/// parallel_for: first wins, all later bodies are skipped, every token
/// retires, rethrow at the join.
struct PipelineRun {
  ThreadPool* pool = nullptr;
  std::vector<PipelineStage> stages;

  struct Turnstile {
    std::mutex mutex;
    std::size_t next = 0;                // next ticket allowed to execute
    std::vector<std::uint8_t> parked;    // ring of "waiting" flags
  };
  std::deque<Turnstile> turnstiles;      // one per stage (unused if parallel)
  std::size_t ring_mask = 0;
  std::size_t total = 0;
  std::atomic<std::size_t> next_spawn{0};
  std::atomic<std::size_t> end_ticket{kNone};
  CompletionGate gate;
  CancelToken cancel;  // observed per stage body; cancelled tokens -> bubbles
  detail::ErrorSlot error;

  PipelineRun(ThreadPool& p, std::vector<PipelineStage> s, std::size_t tokens,
              std::size_t in_flight)
      : pool(&p), stages(std::move(s)), total(tokens), gate(std::int64_t(tokens)) {
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(in_flight, 1));
    ring_mask = cap - 1;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      Turnstile& turnstile = turnstiles.emplace_back();
      if (stages[i].serial) turnstile.parked.assign(cap, 0);
    }
  }

  void spawn(std::size_t ticket, std::size_t stage) {
    PipelineRun* self = this;
    const auto task = [self, ticket, stage] { self->advance(ticket, stage); };
    if (!pool->try_push_local(task)) pool->inject(Task::inline_of(task));
  }

  void run_body(std::size_t ticket, std::size_t stage) {
    // A cancelled run turns every not-yet-executed stage body into a
    // bubble: turnstiles keep turning, the gate keeps retiring, and the
    // stream drains to the join with no token leaked — the same discipline
    // as first-exception-wins, raised as CancelledError at the join.
    if (error.has_failed() || cancel.cancelled()) return;
    if (ticket >= end_ticket.load(std::memory_order_relaxed)) return;  // bubble
    JSCERES_OBS_SPAN_ARG("pipeline", "stage", "stage", stage);
#if JSCERES_OBS
    const std::int64_t obs_body_start = obs::mono_ns();
#endif
    try {
      sched_faults::event();
      if (!stages[stage].fn(ticket) && stage == 0) {
        // Input dried up at this ticket: it and everything after are
        // bubbles. min-CAS so a (misused) parallel input stage stays safe.
        std::size_t cur = end_ticket.load(std::memory_order_relaxed);
        while (ticket < cur && !end_ticket.compare_exchange_weak(
                                   cur, ticket, std::memory_order_relaxed)) {
        }
      }
    } catch (...) {
      error.capture();
    }
#if JSCERES_OBS
    // Per-stage ticket latency (body wall time, ns). One histogram across
    // stages keeps the hot path to a single probe; the trace spans carry
    // the per-stage breakdown via the "stage" arg.
    JSCERES_OBS_HIST("pipeline.stage_ns", obs::mono_ns() - obs_body_start);
#endif
  }

  /// Walk `ticket` from `stage` to retirement (or park it at a turnstile).
  void advance(std::size_t ticket, std::size_t stage) {
    while (stage < stages.size()) {
      if (stages[stage].serial) {
        Turnstile& turnstile = turnstiles[stage];
        {
          const std::lock_guard lock(turnstile.mutex);
          if (turnstile.next != ticket) {
            // Out of turn: park. Our predecessor (which must still be at or
            // before this turnstile) re-spawns us when it passes.
            turnstile.parked[ticket & ring_mask] = 1;
            return;
          }
        }
        run_body(ticket, stage);
        std::size_t resume = kNone;
        {
          const std::lock_guard lock(turnstile.mutex);
          turnstile.next = ticket + 1;
          if (turnstile.next < total &&
              turnstile.parked[turnstile.next & ring_mask] != 0) {
            turnstile.parked[turnstile.next & ring_mask] = 0;
            resume = turnstile.next;
          }
        }
        // Help-first: the successor goes to the deque for thieves; we keep
        // carrying our own token downstream.
        if (resume != kNone) spawn(resume, stage);
      } else {
        run_body(ticket, stage);
      }
      ++stage;
    }
    // Retired: hand the freed in-flight slot to the next unspawned ticket.
    JSCERES_OBS_COUNT("pipeline.tokens", 1);
    const std::size_t next = next_spawn.fetch_add(1, std::memory_order_relaxed);
    if (next < total) spawn(next, 0);
    else JSCERES_OBS_GAUGE_ADD("pipeline.in_flight", -1);
    gate.arrive(1);  // last touch of the run state for this token
  }
};

}  // namespace pipe_detail

/// Run a token stream through `stages` on the work-stealing pool and wait.
///
/// Tokens are dense tickets 0..max_tokens-1 entering stage 0 in order, with
/// at most `max_in_flight` tokens alive at once (backpressure: a token must
/// retire from the last stage before the next ticket starts; 0 picks
/// 2 x workers). Serial stages see tickets in strictly increasing order —
/// a serial-out final stage is therefore byte-deterministic run to run —
/// while parallel stages overlap freely. The input stage may end the stream
/// early by returning false. Returns the number of tokens the input stage
/// actually produced.
///
/// The first exception thrown by any stage body is rethrown here after the
/// stream quiesces (all tokens retired), matching parallel_for's gate.
///
/// `cancel` (default inert) is observed before every stage body: once
/// cancelled, in-flight and unspawned tokens flow through as bubbles until
/// the stream drains, then CancelledError is thrown here. A body exception
/// racing a cancel wins, as everywhere else.
inline std::size_t run_pipeline(ThreadPool& pool, std::size_t max_tokens,
                                std::size_t max_in_flight,
                                std::vector<PipelineStage> stages,
                                CancelToken cancel = {}) {
  if (max_tokens == 0 || stages.empty()) return 0;
  cancel.raise_if_cancelled();
  if (max_in_flight == 0) max_in_flight = 2 * std::size_t(pool.size());
  max_in_flight = std::min(std::max<std::size_t>(max_in_flight, 1), max_tokens);
  pipe_detail::PipelineRun run(pool, std::move(stages), max_tokens, max_in_flight);
  run.cancel = cancel;
  // In-flight depth gauge: +max_in_flight now (tickets 0..k-1 go live),
  // retired tokens that spawn a successor keep the level, the last
  // max_in_flight retirements drain it back down.
  JSCERES_OBS_GAUGE_ADD("pipeline.in_flight", std::int64_t(max_in_flight));
  run.next_spawn.store(max_in_flight, std::memory_order_relaxed);
  for (std::size_t ticket = 1; ticket < max_in_flight; ++ticket) {
    run.spawn(ticket, 0);
  }
  run.advance(0, 0);  // caller-runs: ticket 0 starts on the calling thread
  detail::help_until(pool, run.gate);
  run.error.rethrow_if_failed();
  cancel.raise_if_cancelled();
  const std::size_t end = run.end_ticket.load(std::memory_order_relaxed);
  return std::min(end, max_tokens);
}

/// Variadic convenience: parallel_pipeline(pool, n, k, serial_stage(...),
/// parallel_stage(...), serial_stage(...)).
template <typename... Stages>
std::size_t parallel_pipeline(ThreadPool& pool, std::size_t max_tokens,
                              std::size_t max_in_flight, Stages... stages) {
  std::vector<PipelineStage> list;
  list.reserve(sizeof...(stages));
  (list.push_back(std::move(stages)), ...);
  return run_pipeline(pool, max_tokens, max_in_flight, std::move(list));
}

}  // namespace jsceres::rivertrail
