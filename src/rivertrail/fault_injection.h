#pragma once

// Scheduler-level fault injection (PR 6's fail-after-N-allocations sweep,
// lifted to the scheduling layer). Every cooperative scheduling event — a
// task popped/stolen/claimed by the pool, a parallel_for leaf span, a
// pipeline stage body — reports through event() or event_nothrow(); an
// armed plan fires exactly one fault at the K-th event:
//
//   TaskThrow       throw InjectedFault from inside the task body's try
//                   region (drains through the first-exception-wins gate),
//   Cancel          request_cancel() on the armed victim CancelSource,
//   DeadlineExpire  expire_now() on the victim (deadline-miss flavor).
//
// Sweeping K across the event count of a fixed workload proves every
// interleaving leaves the pool (and any supervised session) reusable.
// The countdown is a support/fault_point.h FaultPoint. Disarmed, an event is
// one atomic load and branch, noise against any task body, so the hook is
// always compiled in and the sweep runs in every tier-1 / TSan / ASan build.

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "support/cancel.h"
#include "support/fault_point.h"

namespace jsceres::rivertrail::sched_faults {

/// The injected task-body exception. Deliberately NOT an EngineError: the
/// supervisor classifies it as a transient runtime fault (retryable),
/// distinct from sandbox limit trips (degradable) and cancellation.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Kind : int { TaskThrow = 0, Cancel = 1, DeadlineExpire = 2 };

struct State {
  FaultPoint<Kind> point;
  /// A TaskThrow that landed on a non-throwing site (the pool's dispatch
  /// path, where an exception would escape worker_main) is deferred here and
  /// consumed by the next throwing site.
  std::atomic<bool> pending_throw{false};
  /// Victim for Cancel/DeadlineExpire. Written before arming, must outlive
  /// the armed window.
  std::atomic<CancelSource*> victim{nullptr};
};

inline State& state() {
  static State s;
  return s;
}

/// Arm one fault at the `after`-th scheduling event from now (1 = the very
/// next event). Process-global: tests arm/disarm around a quiesced pool.
inline void arm(Kind kind, std::int64_t after, CancelSource* victim = nullptr) {
  State& s = state();
  s.victim.store(victim, std::memory_order_relaxed);
  s.pending_throw.store(false, std::memory_order_relaxed);
  s.point.arm(kind, after);
}

inline void disarm() {
  State& s = state();
  s.point.disarm();
  s.pending_throw.store(false, std::memory_order_relaxed);
  s.victim.store(nullptr, std::memory_order_relaxed);
}

[[nodiscard]] inline std::int64_t events_observed() {
  return state().point.events_observed();
}

/// Slow path, called only while armed. `may_throw` marks sites whose
/// enclosing try region captures into an ErrorSlot; non-throwing sites
/// defer TaskThrow to the next throwing one.
inline void fire(bool may_throw) {
  State& s = state();
  const bool due = s.point.due();
  if (may_throw && s.pending_throw.exchange(false, std::memory_order_acq_rel)) {
    throw InjectedFault("injected task-body fault (deferred)");
  }
  if (!due) return;
  switch (s.point.kind()) {
    case Kind::TaskThrow:
      if (may_throw) throw InjectedFault("injected task-body fault");
      s.pending_throw.store(true, std::memory_order_release);
      return;
    case Kind::Cancel:
      if (CancelSource* v = s.victim.load(std::memory_order_acquire)) {
        v->request_cancel();
      }
      return;
    case Kind::DeadlineExpire:
      if (CancelSource* v = s.victim.load(std::memory_order_acquire)) {
        v->expire_now();
      }
      return;
  }
}

/// A scheduling event inside a try region that drains through an ErrorSlot.
inline void event() {
  if (state().point.armed()) fire(true);
}

/// A scheduling event on the pool's dispatch path (throwing would escape
/// worker_main): fires only cancel/deadline faults, defers TaskThrow.
inline void event_nothrow() {
  if (state().point.armed()) fire(false);
}

}  // namespace jsceres::rivertrail::sched_faults
