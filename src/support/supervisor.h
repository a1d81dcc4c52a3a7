#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cancel.h"
#include "support/limits.h"

namespace jsceres::rivertrail {
class ThreadPool;
}

namespace jsceres {

/// Terminal state of a supervised session. Every session ends in exactly one
/// of these — the supervisor never lets an exception cross the session
/// boundary, so a batch of N requests always yields N structured outcomes.
enum class SessionState : std::uint8_t {
  Completed,    // finished at the requested instrumentation mode
  Degraded,     // finished, but at a lower mode than requested (3 -> 1 -> 0)
  Cancelled,    // explicit external cancel (sticky across retries)
  TimedOut,     // deadline missed even at mode 0
  Quarantined,  // no mode produced an answer; see runtime_fault for blame
};

const char* to_string(SessionState state);

/// One attempt's ledger line: which mode ran, how it ended, and the virtual
/// clocks it accumulated. `outcome` is a stable keyword — "ok", "cancelled",
/// "deadline", "retryable", "limit", "parse", "fatal".
struct AttemptRecord {
  int mode = 0;
  std::string outcome;
  std::string error;  // empty for "ok"
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::size_t peak_bytes = 0;  // attempt's ledger high-water mark
};

/// Structured per-session result: the state, the mode that finally answered,
/// the full attempt history, and the last attempt's observable output.
/// `runtime_fault` assigns blame for a quarantine: true means the runtime
/// itself misbehaved (unknown exception, broken engine invariant, injected
/// fault that survived every retry); false means the *input* exhausted every
/// rung of the ladder — the expected fate of genuinely hostile programs.
struct SessionOutcome {
  std::string name;
  SessionState state = SessionState::Quarantined;
  int final_mode = 0;
  int attempts = 0;
  std::vector<AttemptRecord> history;
  std::string console;
  std::string error;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  /// Largest per-attempt ledger high-water mark — what the session really
  /// cost in sandbox bytes (the memory governor reconciles its admission
  /// estimate against this on release).
  std::size_t peak_bytes = 0;
  bool runtime_fault = false;
};

/// Thrown by an attempt body when a post-failure engine invariant is broken
/// (argument stack not unwound, interpreter unusable). Always classified as
/// a runtime-fault quarantine — never retried, never degraded.
struct RuntimeInvariantError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What a successful attempt hands back to the supervisor.
struct AttemptSuccess {
  std::string console;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::size_t peak_bytes = 0;  // ledger high-water mark of the attempt
};

/// One analysis session: a program, its sandbox, its time bounds, and its
/// instrumentation ambition. `mode` uses the paper's numbering — 3 is the
/// dependence analyzer, 1 the lightweight profiler, 0 uninstrumented — and
/// is the *top* rung; the supervisor may answer from a lower one (Degraded).
struct SessionRequest {
  std::string name;
  std::string source;
  EngineLimits limits;
  std::int64_t max_ticks = 0;    // 0 = no tick budget
  int mode = 3;                  // requested rung: 3, 1, or 0
  std::int64_t deadline_ms = 0;  // per-attempt wall deadline; 0 = none
  bool has_timers = false;       // run a DOM page + event loop after main
  std::int64_t horizon_ms = 2000;
  /// External cancellation handle (optional). The supervisor arms the
  /// per-attempt deadline on it and resets it between attempts; an explicit
  /// request_cancel() stays latched across resets, so cancelling a session
  /// wins over any retry. Must outlive the batch. nullptr: the supervisor
  /// owns a private source.
  CancelSource* cancel = nullptr;
  /// Pool for the timer session's frame graph (kernel/upload/commit run as
  /// pipeline stages instead of inline). nullptr: frames run serially on the
  /// event-loop thread. Only consulted when `has_timers` is set. Must
  /// outlive the batch.
  rivertrail::ThreadPool* frame_pool = nullptr;
  /// Custom attempt body (runner integration): executes one attempt at
  /// `mode` under `limits`/`max_ticks`, observing the token, and either
  /// returns or throws (EngineError, CancelledError, InjectedFault, ...) for
  /// the supervisor to classify. Unset: the built-in body parses `source`
  /// and runs it under the mode's hooks.
  std::function<AttemptSuccess(const SessionRequest&, int mode,
                               const EngineLimits& limits,
                               std::int64_t max_ticks, CancelToken)>
      attempt;
};

/// Runs N analysis sessions concurrently over a shared work-stealing pool,
/// each inside its own fault boundary: an EngineError, deadline miss,
/// cancellation, or injected scheduler fault in one session is caught at the
/// session boundary, classified, and handled by policy — retryable faults
/// retry with tightened budgets and exponential backoff, limit trips and
/// deadline misses degrade mode 3 -> 1 -> 0 before quarantining — while
/// sibling sessions keep running undisturbed. The supervision model is the
/// actor one: sessions are isolated failure domains sharing a scheduler,
/// and the batch always returns one structured outcome per request.
class SessionSupervisor {
 public:
  /// Same-mode retries of a *retryable* fault (injected scheduler faults,
  /// transient runtime errors) before falling through to degradation.
  static constexpr int kMaxRetries = 2;

  explicit SessionSupervisor(rivertrail::ThreadPool& pool) : pool_(&pool) {}

  /// Run every request to a terminal outcome; index i of the result is
  /// request i. The calling thread helps the pool while waiting.
  std::vector<SessionOutcome> run(const std::vector<SessionRequest>& requests);

  /// Run a single session on the calling thread (the per-session state
  /// machine without the fan-out; what each pool task executes).
  SessionOutcome run_one(const SessionRequest& request);

 private:
  rivertrail::ThreadPool* pool_;
};

}  // namespace jsceres
