#include "support/supervisor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "js/lexer.h"
#include "js/parser.h"
#include "rivertrail/fault_injection.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"
#include "support/session.h"

namespace jsceres {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::Completed:
      return "completed";
    case SessionState::Degraded:
      return "degraded";
    case SessionState::Cancelled:
      return "cancelled";
    case SessionState::TimedOut:
      return "timed-out";
    case SessionState::Quarantined:
      return "quarantined";
  }
  return "?";
}

namespace {

/// How one attempt ended, from the supervisor's point of view. The policy
/// state machine runs entirely on this classification.
enum class AttemptClass {
  Ok,
  Cancelled,  // explicit cancel observed (sticky; ends the session)
  Deadline,   // deadline expiry (degradable: a cheaper mode may fit)
  Retryable,  // injected/transient scheduler fault (same mode, backoff)
  Limit,      // sandbox limit trip (degradable)
  FrontEnd,   // parse/lex error (no mode can help; input quarantine)
  Fatal,      // broken runtime invariant or unknown exception
};

const char* keyword(AttemptClass c) {
  switch (c) {
    case AttemptClass::Ok:
      return "ok";
    case AttemptClass::Cancelled:
      return "cancelled";
    case AttemptClass::Deadline:
      return "deadline";
    case AttemptClass::Retryable:
      return "retryable";
    case AttemptClass::Limit:
      return "limit";
    case AttemptClass::FrontEnd:
      return "parse";
    case AttemptClass::Fatal:
      return "fatal";
  }
  return "?";
}

/// The engine's post-failure invariant, checked after every built-in
/// attempt whether it returned or threw (a dirty stack outranks the
/// in-flight failure).
void check_invariants(Session& session) {
  if (session.interp().debug_arg_stack_in_use() != 0) {
    throw RuntimeInvariantError("argument stack not unwound after attempt");
  }
}

/// Run one attempt through its fault boundary and classify the result.
AttemptClass run_attempt(const SessionRequest& request, int mode,
                         const EngineLimits& limits, std::int64_t max_ticks,
                         CancelToken token, AttemptRecord& record,
                         AttemptSuccess& success) {
  record.mode = mode;
  AttemptClass result = AttemptClass::Ok;
  try {
    if (request.attempt) {
      success = request.attempt(request, mode, limits, max_ticks, token);
    } else {
      // Built-in body: `request.source` as a Session at this rung and
      // budget, with a page and event loop for timer programs. Its spans
      // split the attempt: parse, session start-up, run, and teardown (the
      // session, then the program it was the last to hold).
      std::optional<js::Program> program;
      {
        JSCERES_OBS_SPAN("supervisor", "parse");
        program.emplace(
            js::parse(request.source, "<session:" + request.name + ">", limits));
      }
      std::optional<Session> session;
      {
        JSCERES_OBS_SPAN("supervisor", "session_start");
        session.emplace(*program, mode_of_rung(mode),
                        SessionSandbox{limits, max_ticks, token});
        program.reset();
        if (request.has_timers) {
          session->open_page();
          // Frame graph without a canvas (the kernel stage no-ops): exercises
          // the pipelined frame path under supervision and its stage spans.
          if (request.frame_pool != nullptr) session->enable_frame_graph(request.frame_pool);
        }
      }
      {
        JSCERES_OBS_SPAN("supervisor", "session_run");
        try {
          session->run(request.horizon_ms);
        } catch (...) {
          check_invariants(*session);
          throw;
        }
      }
      check_invariants(*session);
      success = {session->interp().console_output(), session->clock().cpu_ns(),
                 session->clock().wall_ns(), session->interp().ledger().peak()};
      JSCERES_OBS_SPAN("supervisor", "session_teardown");
      session.reset();
    }
  } catch (const CancelledError& e) {
    record.error = e.what();
    result = e.cancel_reason() == CancelReason::DeadlineExpired
                 ? AttemptClass::Deadline
                 : AttemptClass::Cancelled;
  } catch (const rivertrail::sched_faults::InjectedFault& e) {
    record.error = e.what();
    result = AttemptClass::Retryable;
  } catch (const RuntimeInvariantError& e) {
    record.error = e.what();
    result = AttemptClass::Fatal;
  } catch (const EngineError& e) {
    record.error = e.what();
    result = AttemptClass::Limit;
  } catch (const js::ParseError& e) {
    record.error = e.what();
    result = AttemptClass::FrontEnd;
  } catch (const js::LexError& e) {
    record.error = e.what();
    result = AttemptClass::FrontEnd;
  } catch (const std::exception& e) {
    record.error = std::string("unexpected exception: ") + e.what();
    result = AttemptClass::Fatal;
  } catch (...) {
    record.error = "unknown exception";
    result = AttemptClass::Fatal;
  }
  record.outcome = keyword(result);
  record.cpu_ns = success.cpu_ns;
  record.wall_ns = success.wall_ns;
  record.peak_bytes = success.peak_bytes;
  return result;
}

/// Exponential backoff between retries: base * 2^attempt, capped. Kept tiny
/// — attempts run on pool workers, and a sleeping worker is a stolen
/// worker; the point is jitter, not politeness to an external service.
constexpr std::int64_t kBackoffBaseMs = 1;
constexpr std::int64_t kBackoffCapMs = 50;

int next_rung(int mode) { return mode >= 3 ? 1 : 0; }

/// Tighten per-attempt budgets for a retry: a fault already burned part of
/// the session's patience, so the rerun gets half the wall budget and half
/// the tick budget (floored — a retry with no budget at all would be a
/// guaranteed deadline miss, which defeats the retry).
void tighten(EngineLimits& limits, std::int64_t& max_ticks) {
  if (limits.max_wall_ms > 0) {
    limits.max_wall_ms = std::max<std::int64_t>(limits.max_wall_ms / 2, 10);
  }
  if (max_ticks > 0) max_ticks = std::max<std::int64_t>(max_ticks / 2, 10'000);
}

}  // namespace

SessionOutcome SessionSupervisor::run_one(const SessionRequest& request) {
  JSCERES_OBS_COUNT("supervisor.sessions", 1);
  JSCERES_OBS_SPAN_ARG("supervisor", "session", "mode",
                       std::uint64_t(request.mode));
  SessionOutcome outcome;
  outcome.name = request.name;
  outcome.final_mode = request.mode;

  CancelSource local_source;
  CancelSource* source = request.cancel != nullptr ? request.cancel : &local_source;

  int mode = request.mode;
  int retries_left = kMaxRetries;
  std::int64_t backoff_ms = kBackoffBaseMs;
  EngineLimits budgets = request.limits;
  std::int64_t ticks = request.max_ticks;

  for (;;) {
    // An explicit cancel is sticky across attempts: observe it here so a
    // cancel that lands between attempts (or during backoff) ends the
    // session even if the next attempt would be too short to poll the token.
    if (source->reason() == CancelReason::Cancelled) {
      outcome.state = SessionState::Cancelled;
      outcome.error = "cancelled";
      return outcome;
    }
    // Fresh per-attempt deadline; reset() clears a previous expiry but
    // keeps an explicit cancel latched (checked above).
    source->reset();
    if (request.deadline_ms > 0) source->set_deadline_in(request.deadline_ms);

    AttemptRecord record;
    AttemptSuccess success;
    const AttemptClass result = run_attempt(request, mode, budgets, ticks,
                                            CancelToken(*source), record, success);
    ++outcome.attempts;
    outcome.history.push_back(record);
    outcome.error = record.error;
    outcome.cpu_ns = record.cpu_ns;
    outcome.wall_ns = record.wall_ns;
    outcome.peak_bytes = std::max(outcome.peak_bytes, record.peak_bytes);

    switch (result) {
      case AttemptClass::Ok:
        outcome.state = mode == request.mode ? SessionState::Completed
                                             : SessionState::Degraded;
        outcome.final_mode = mode;
        outcome.console = std::move(success.console);
        outcome.error.clear();
        outcome.runtime_fault = false;  // the session answered after all
        source->clear_deadline();
        return outcome;

      case AttemptClass::Cancelled:
        outcome.state = SessionState::Cancelled;
        outcome.final_mode = mode;
        return outcome;

      case AttemptClass::Retryable:
        if (retries_left-- > 0) {
          JSCERES_OBS_COUNT("supervisor.retries", 1);
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
          tighten(budgets, ticks);
          continue;  // same rung
        }
        // Retries exhausted on a runtime-side fault: the ladder below can
        // still answer, but if it never does, the blame is the runtime's.
        outcome.runtime_fault = true;
        [[fallthrough]];

      case AttemptClass::Deadline:
      case AttemptClass::Limit:
        if (mode > 0) {
          JSCERES_OBS_COUNT("supervisor.degradations", 1);
          mode = next_rung(mode);
          continue;
        }
        outcome.final_mode = mode;
        outcome.state = result == AttemptClass::Deadline
                            ? SessionState::TimedOut
                            : SessionState::Quarantined;
        if (outcome.state == SessionState::Quarantined) {
          JSCERES_OBS_COUNT("supervisor.quarantines", 1);
        }
        return outcome;

      case AttemptClass::FrontEnd:
        // No instrumentation mode can fix a parse error: quarantine
        // immediately, blamed on the input.
        JSCERES_OBS_COUNT("supervisor.quarantines", 1);
        outcome.state = SessionState::Quarantined;
        outcome.final_mode = mode;
        return outcome;

      case AttemptClass::Fatal:
        JSCERES_OBS_COUNT("supervisor.quarantines", 1);
        outcome.state = SessionState::Quarantined;
        outcome.final_mode = mode;
        outcome.runtime_fault = true;
        return outcome;
    }
  }
}

std::vector<SessionOutcome> SessionSupervisor::run(
    const std::vector<SessionRequest>& requests) {
  std::vector<SessionOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  // One pool task per session; the gate is the batch join. Each body is
  // airtight — run_one already never throws by design, but the supervisor's
  // whole point is that a session failure cannot take down its siblings, so
  // the boundary is enforced here too, not just promised.
  rivertrail::CompletionGate gate{std::int64_t(requests.size())};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    pool_->submit([this, &requests, &outcomes, &gate, i] {
      try {
        outcomes[i] = run_one(requests[i]);
      } catch (...) {
        outcomes[i].name = requests[i].name;
        outcomes[i].state = SessionState::Quarantined;
        outcomes[i].runtime_fault = true;
        outcomes[i].error = "exception escaped the session state machine";
      }
      gate.arrive(1);
    });
  }
  rivertrail::detail::help_until(*pool_, gate);
  return outcomes;
}

}  // namespace jsceres
