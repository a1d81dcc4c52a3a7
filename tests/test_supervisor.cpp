// SessionSupervisor: sibling isolation under failure, the mode-3 -> 1 -> 0
// degradation ladder, deadlines, sticky external cancellation, retry of
// injected scheduler faults, the parametric fault-injection sweep of the
// acceptance criteria, and structured outcomes for the hostile suite. This
// binary runs under the TSan and ASan CI jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/oracles.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "rivertrail/fault_injection.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/thread_pool.h"
#include "support/cancel.h"
#include "support/clock.h"
#include "support/supervisor.h"
#include "workloads/runner.h"

namespace jsceres {
namespace {

namespace sched_faults = rivertrail::sched_faults;

/// Process-global injection state must never leak between tests.
struct DisarmGuard {
  ~DisarmGuard() { sched_faults::disarm(); }
};

SessionRequest simple_request(std::string name, std::string source) {
  SessionRequest request;
  request.name = std::move(name);
  request.source = std::move(source);
  return request;
}

TEST(Supervisor, WellBehavedSessionsCompleteAtRequestedMode) {
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);
  std::vector<SessionRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(simple_request(
        "good-" + std::to_string(i),
        "var s = 0; for (var j = 0; j < 100; j = j + 1) { s = s + j; }"
        "console.log(s + " + std::to_string(i) + ");"));
  }
  const std::vector<SessionOutcome> outcomes = supervisor.run(requests);
  ASSERT_EQ(outcomes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(outcomes[i].state, SessionState::Completed) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].final_mode, 3);
    EXPECT_EQ(outcomes[i].attempts, 1);
    EXPECT_EQ(outcomes[i].console, std::to_string(4950 + i) + "\n");
    EXPECT_FALSE(outcomes[i].runtime_fault);
  }
}

TEST(Supervisor, HostileSessionCannotTakeDownSiblings) {
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);
  std::vector<SessionRequest> requests;
  // Sessions 0/2/4 are good; 1 is an allocation bomb under a tight memory
  // ceiling, 3 a runaway loop under a tick budget. Both exhaust every rung
  // of the ladder (the trip is mode-independent), so they quarantine — and
  // the blame is the input's, not the runtime's.
  for (int i = 0; i < 5; ++i) {
    if (i % 2 == 0) {
      requests.push_back(
          simple_request("good-" + std::to_string(i), "console.log(6 * 7);"));
    } else if (i == 1) {
      SessionRequest bomb = simple_request(
          "alloc-bomb", "var a = []; while (true) { a.push(a.length); }");
      bomb.limits.max_memory_bytes = 4u << 20;
      requests.push_back(std::move(bomb));
    } else {
      SessionRequest runaway =
          simple_request("runaway", "var x = 0; while (true) { x = x + 1; }");
      runaway.max_ticks = 500'000;
      requests.push_back(std::move(runaway));
    }
  }
  const std::vector<SessionOutcome> outcomes = supervisor.run(requests);
  ASSERT_EQ(outcomes.size(), 5u);
  for (int i = 0; i < 5; i += 2) {
    EXPECT_EQ(outcomes[i].state, SessionState::Completed) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].console, "42\n");
  }
  for (int i = 1; i < 5; i += 2) {
    EXPECT_EQ(outcomes[i].state, SessionState::Quarantined);
    EXPECT_FALSE(outcomes[i].runtime_fault);  // the input is to blame
    EXPECT_EQ(outcomes[i].attempts, 3);       // rungs 3, 1, 0 all tried
    EXPECT_EQ(outcomes[i].history.back().mode, 0);
    EXPECT_EQ(outcomes[i].history.back().outcome, "limit");
  }
}

TEST(Supervisor, DegradationLadderAnswersFromALowerMode) {
  // Calibrate: the dependence analyzer's stamp arenas charge the run's
  // ledger, so mode 3 peaks strictly above mode 0 on an array-heavy
  // program. A ceiling between the two peaks trips mode 3 but lets a lower
  // rung finish — the supervisor must return Degraded, not Quarantined.
  const std::string source =
      "var a = []; var s = 0;"
      "for (var i = 0; i < 1500; i = i + 1) { a[i] = i; }"
      "for (var j = 0; j < 1500; j = j + 1) { s = s + a[j]; }"
      "console.log(s);";
  const js::Program program = js::parse(source, "<calibrate>");
  std::size_t peak_mode0 = 0;
  std::size_t peak_mode3 = 0;
  {
    VirtualClock clock;
    interp::Interpreter interp(program, clock, nullptr);
    interp.run();
    peak_mode0 = interp.ledger().peak();
  }
  {
    ceres::DependenceAnalyzer analyzer(program);
    VirtualClock clock;
    interp::Interpreter interp(program, clock, &analyzer);
    interp.run();
    peak_mode3 = interp.ledger().peak();
  }
  ASSERT_GT(peak_mode3, peak_mode0);

  rivertrail::ThreadPool pool(2);
  SessionSupervisor supervisor(pool);
  SessionRequest request = simple_request("degrade-me", source);
  request.limits.max_memory_bytes = peak_mode0 + (peak_mode3 - peak_mode0) / 2;
  const SessionOutcome outcome = supervisor.run({request})[0];

  EXPECT_EQ(outcome.state, SessionState::Degraded) << outcome.error;
  EXPECT_LT(outcome.final_mode, 3);
  EXPECT_EQ(outcome.console, "1124250\n");  // the server still answered
  EXPECT_FALSE(outcome.runtime_fault);
  ASSERT_GE(outcome.attempts, 2);
  EXPECT_EQ(outcome.history.front().mode, 3);
  EXPECT_EQ(outcome.history.front().outcome, "limit");
  EXPECT_EQ(outcome.history.back().outcome, "ok");
}

TEST(Supervisor, DeadlineMissedAtEveryRungTimesOut) {
  rivertrail::ThreadPool pool(2);
  SessionSupervisor supervisor(pool);
  SessionRequest request =
      simple_request("spinner", "var x = 0; while (true) { x = x + 1; }");
  request.deadline_ms = 40;  // real wall clock; the tick probe observes it
  const SessionOutcome outcome = supervisor.run({request})[0];

  EXPECT_EQ(outcome.state, SessionState::TimedOut);
  EXPECT_EQ(outcome.attempts, 3);  // each rung got its own fresh deadline
  for (const AttemptRecord& record : outcome.history) {
    EXPECT_EQ(record.outcome, "deadline");
  }
  EXPECT_FALSE(outcome.runtime_fault);
}

TEST(Supervisor, ExternalCancelIsStickyAndEndsTheSessionWithoutRetry) {
  rivertrail::ThreadPool pool(2);
  SessionSupervisor supervisor(pool);

  // Pre-cancelled: the session never even attempts.
  CancelSource pre;
  pre.request_cancel();
  SessionRequest request = simple_request("pre-cancelled", "console.log(1);");
  request.cancel = &pre;
  SessionOutcome outcome = supervisor.run_one(request);
  EXPECT_EQ(outcome.state, SessionState::Cancelled);
  EXPECT_EQ(outcome.attempts, 0);

  // Cancelled mid-run from another thread: one attempt, no retry, no
  // degradation — an explicit cancel survives the supervisor's reset().
  CancelSource mid;
  SessionRequest spinner =
      simple_request("cancel-me", "var x = 0; while (true) { x = x + 1; }");
  spinner.cancel = &mid;
  std::thread canceller([&mid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mid.request_cancel();
  });
  outcome = supervisor.run_one(spinner);
  canceller.join();
  EXPECT_EQ(outcome.state, SessionState::Cancelled);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.history[0].outcome, "cancelled");
}

/// A session whose attempt contains real scheduler work (a parallel_for on
/// the shared pool): the unit the fault injector can hit.
SessionRequest parallel_session(std::string name, rivertrail::ThreadPool& pool) {
  SessionRequest request;
  request.name = std::move(name);
  request.attempt = [&pool](const SessionRequest&, int, const EngineLimits&,
                            std::int64_t, CancelToken token) {
    std::atomic<std::int64_t> sum{0};
    rivertrail::parallel_for(
        pool, 0, 256,
        [&sum](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          }
        },
        16, token);
    AttemptSuccess success;
    success.console = std::to_string(sum.load());
    return success;
  };
  return request;
}

TEST(Supervisor, InjectedTaskFaultIsRetriedAndHeals) {
  DisarmGuard guard;
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);
  sched_faults::arm(sched_faults::Kind::TaskThrow, 3);
  const SessionOutcome outcome =
      supervisor.run_one(parallel_session("faulted", pool));
  sched_faults::disarm();

  // The fault fires exactly once; the retry runs clean.
  EXPECT_EQ(outcome.state, SessionState::Completed) << outcome.error;
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.history[0].outcome, "retryable");
  EXPECT_EQ(outcome.history[1].outcome, "ok");
  EXPECT_EQ(outcome.console, std::to_string(255 * 256 / 2));
  EXPECT_FALSE(outcome.runtime_fault);
}

TEST(Supervisor, RetryBudgetExhaustionAtModeZeroFloorQuarantinesAsRuntimeFault) {
  rivertrail::ThreadPool pool(2);
  SessionSupervisor supervisor(pool);

  // Already at the ladder's floor (mode 0) with an attempt that faults every
  // time: the same-mode retry budget is the only recourse, and when it runs
  // out there is no lower rung to fall to.
  SessionRequest request;
  request.name = "floor-faulter";
  request.mode = 0;
  std::atomic<int> calls{0};
  request.attempt = [&calls](const SessionRequest&, int mode, const EngineLimits&,
                             std::int64_t, CancelToken) -> AttemptSuccess {
    EXPECT_EQ(mode, 0);  // never re-asks a higher rung
    calls.fetch_add(1, std::memory_order_relaxed);
    throw sched_faults::InjectedFault("persistent scheduler fault");
  };
  const SessionOutcome outcome = supervisor.run_one(request);

  EXPECT_EQ(outcome.state, SessionState::Quarantined);
  EXPECT_TRUE(outcome.runtime_fault);  // the fault was runtime-side, not input
  EXPECT_EQ(outcome.final_mode, 0);
  // Initial attempt + max_retries same-mode retries, nothing more.
  EXPECT_EQ(outcome.attempts, SessionSupervisor::kMaxRetries + 1);
  EXPECT_EQ(calls.load(), SessionSupervisor::kMaxRetries + 1);
  for (const AttemptRecord& record : outcome.history) {
    EXPECT_EQ(record.mode, 0);
    EXPECT_EQ(record.outcome, "retryable");
  }
}

TEST(Supervisor, DeadlineExpiredBeforeTheRetryDoesNotKillIt) {
  rivertrail::ThreadPool pool(2);
  // The first attempt outlives its deadline, which the source latches as
  // expired, and then faults. A deadline expiry is per-attempt state —
  // reset() clears it — so the retry must still run, with a fresh deadline.
  SessionSupervisor supervisor(pool);

  SessionRequest request;
  request.name = "backoff-deadline";
  request.deadline_ms = 20;
  std::atomic<int> calls{0};
  request.attempt = [&calls](const SessionRequest&, int, const EngineLimits&,
                             std::int64_t, CancelToken token) -> AttemptSuccess {
    if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
      while (!token.cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_EQ(token.reason(), CancelReason::DeadlineExpired);
      throw sched_faults::InjectedFault("one-shot fault");
    }
    // The retry starts with a clean token: the previous attempt's expired
    // deadline must not leak in.
    EXPECT_EQ(token.reason(), CancelReason::None);
    AttemptSuccess success;
    success.console = "recovered";
    return success;
  };
  const SessionOutcome outcome = supervisor.run_one(request);

  EXPECT_EQ(outcome.state, SessionState::Completed) << outcome.error;
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.history[0].outcome, "retryable");
  EXPECT_EQ(outcome.history[1].outcome, "ok");
  EXPECT_EQ(outcome.console, "recovered");
  EXPECT_FALSE(outcome.runtime_fault);
}

TEST(Supervisor, MixedBatchAssignsQuarantineBlameCorrectly) {
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);

  std::vector<SessionRequest> requests;
  requests.push_back(simple_request("good-a", "console.log(1);"));
  requests.push_back(simple_request("bad-parse", "function ( { ) syntax"));
  // Runtime invariant breakage: fatal on the spot, never retried.
  SessionRequest invariant;
  invariant.name = "invariant-breaker";
  std::atomic<int> invariant_calls{0};
  invariant.attempt = [&invariant_calls](const SessionRequest&, int,
                                         const EngineLimits&, std::int64_t,
                                         CancelToken) -> AttemptSuccess {
    invariant_calls.fetch_add(1, std::memory_order_relaxed);
    throw RuntimeInvariantError("argument stack not unwound");
  };
  requests.push_back(std::move(invariant));
  // Faults on every rung: retries exhaust at mode 3, then the ladder walks
  // 1 and 0 with no budget left — every step one attempt.
  SessionRequest all_rungs;
  all_rungs.name = "faults-everywhere";
  all_rungs.attempt = [](const SessionRequest&, int, const EngineLimits&,
                         std::int64_t, CancelToken) -> AttemptSuccess {
    throw sched_faults::InjectedFault("fault at every rung");
  };
  requests.push_back(std::move(all_rungs));
  requests.push_back(simple_request("good-b", "console.log(2);"));

  const std::vector<SessionOutcome> outcomes = supervisor.run(requests);
  ASSERT_EQ(outcomes.size(), 5u);

  EXPECT_EQ(outcomes[0].state, SessionState::Completed) << outcomes[0].error;
  EXPECT_EQ(outcomes[4].state, SessionState::Completed) << outcomes[4].error;

  // Parse failure: input's fault, one attempt, no ladder walk.
  EXPECT_EQ(outcomes[1].state, SessionState::Quarantined);
  EXPECT_FALSE(outcomes[1].runtime_fault);
  EXPECT_EQ(outcomes[1].attempts, 1);
  EXPECT_EQ(outcomes[1].history[0].outcome, "parse");

  // Broken invariant: runtime's fault, fatal immediately.
  EXPECT_EQ(outcomes[2].state, SessionState::Quarantined);
  EXPECT_TRUE(outcomes[2].runtime_fault);
  EXPECT_EQ(outcomes[2].attempts, 1);
  EXPECT_EQ(invariant_calls.load(), 1);
  EXPECT_EQ(outcomes[2].history[0].outcome, "fatal");

  // Persistent injected fault: (max_retries + 1) attempts at mode 3, then
  // one attempt each at rungs 1 and 0 — all retryable, blamed on the
  // runtime because the fault class is scheduler-side.
  EXPECT_EQ(outcomes[3].state, SessionState::Quarantined);
  EXPECT_TRUE(outcomes[3].runtime_fault);
  EXPECT_EQ(outcomes[3].attempts, SessionSupervisor::kMaxRetries + 3);
  EXPECT_EQ(outcomes[3].final_mode, 0);
  EXPECT_EQ(outcomes[3].history.front().mode, 3);
  EXPECT_EQ(outcomes[3].history.back().mode, 0);
  for (const AttemptRecord& record : outcomes[3].history) {
    EXPECT_EQ(record.outcome, "retryable");
  }
}

TEST(Supervisor, FaultInjectionSweepLeavesEverySessionTerminalAndPoolReusable) {
  DisarmGuard guard;
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);
  const std::string expected_sum = std::to_string(255 * 256 / 2);

  // Size the sweep: count the batch's scheduling events without firing.
  {
    sched_faults::arm(sched_faults::Kind::TaskThrow, 1'000'000'000);
    std::vector<SessionRequest> requests;
    for (int i = 0; i < 3; ++i) {
      requests.push_back(parallel_session("size-" + std::to_string(i), pool));
    }
    supervisor.run(requests);
    sched_faults::disarm();
  }
  const std::int64_t events = sched_faults::events_observed();
  ASSERT_GT(events, 0);

  for (const sched_faults::Kind kind :
       {sched_faults::Kind::TaskThrow, sched_faults::Kind::Cancel,
        sched_faults::Kind::DeadlineExpire}) {
    // Cover the first events densely and the tail geometrically: with
    // several sessions racing, the K-th event lands at a different point of
    // a different session every run anyway — the sweep's job is coverage of
    // "a fault at *some* live scheduling event", swept under TSan/ASan.
    for (std::int64_t k = 1; k <= events; k = (k < 16 ? k + 1 : k * 2)) {
      CancelSource victim;  // fresh per run: explicit cancels are sticky
      std::vector<SessionRequest> requests;
      for (int i = 0; i < 3; ++i) {
        requests.push_back(parallel_session("s" + std::to_string(i), pool));
      }
      requests[0].cancel = &victim;
      sched_faults::arm(kind, k, &victim);
      const std::vector<SessionOutcome> outcomes = supervisor.run(requests);
      sched_faults::disarm();

      ASSERT_EQ(outcomes.size(), 3u);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SessionOutcome& outcome = outcomes[i];
        // Nobody quarantines: a TaskThrow is healed by a retry, a Cancel or
        // DeadlineExpire lands on the victim's source and ends it in an
        // orderly Cancelled/Degraded/TimedOut (or the batch finished first
        // and everyone completed). Siblings of the victim always answer.
        EXPECT_NE(outcome.state, SessionState::Quarantined)
            << "kind=" << int(kind) << " k=" << k << " session=" << i << ": "
            << outcome.error;
        if (outcome.state == SessionState::Completed ||
            outcome.state == SessionState::Degraded) {
          EXPECT_EQ(outcome.console, expected_sum);
        }
        if (i != 0 && kind != sched_faults::Kind::TaskThrow) {
          // Only session 0's source is a fault target; its siblings must
          // complete untouched (TaskThrow is targetless — any session may
          // absorb it, retry, and still complete).
          EXPECT_EQ(outcome.state, SessionState::Completed) << outcome.error;
        }
        EXPECT_FALSE(outcome.runtime_fault);
      }
    }
  }

  // The pool survives the whole sweep: a clean batch completes everywhere.
  std::vector<SessionRequest> clean;
  for (int i = 0; i < 3; ++i) {
    clean.push_back(parallel_session("clean-" + std::to_string(i), pool));
  }
  for (const SessionOutcome& outcome : supervisor.run(clean)) {
    EXPECT_EQ(outcome.state, SessionState::Completed) << outcome.error;
    EXPECT_EQ(outcome.console, expected_sum);
  }
}

TEST(Supervisor, HostileSuiteAlwaysProducesStructuredOutcomes) {
  rivertrail::ThreadPool pool(4);
  SessionSupervisor supervisor(pool);
  std::vector<SessionRequest> requests;
  for (const fuzz::HostileCase& hostile : fuzz::hostile_suite()) {
    SessionRequest request = simple_request(hostile.name, hostile.source);
    request.limits.max_memory_bytes = hostile.max_memory_bytes;
    request.limits.max_array_length = hostile.max_array_length;
    request.limits.max_wall_ms = hostile.max_wall_ms;
    request.max_ticks = hostile.max_ticks;
    requests.push_back(std::move(request));
  }
  const std::vector<SessionOutcome> outcomes = supervisor.run(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const SessionOutcome& outcome : outcomes) {
    // Every hostile input gets a structured verdict, every quarantine is
    // blamed on the input — the acceptance bar: zero quarantines caused by
    // the runtime itself.
    EXPECT_FALSE(outcome.runtime_fault)
        << outcome.name << ": " << outcome.error;
    EXPECT_FALSE(outcome.history.empty()) << outcome.name;
    for (const AttemptRecord& record : outcome.history) {
      EXPECT_FALSE(record.outcome.empty());
    }
    if (outcome.state == SessionState::Quarantined) {
      EXPECT_FALSE(outcome.error.empty()) << outcome.name;
    }
  }
}

TEST(Supervisor, RunnerIntegrationSupervisesARealWorkload) {
  rivertrail::ThreadPool pool(4);
  // Every Table-1 app end to end through run_workload's page/canvas/
  // user-event path, under supervision. No limits: each must complete at the
  // requested mode 3 with exactly the answer of a bare run — supervision
  // adds a fault boundary, never a different session.
  std::vector<std::string> names;
  for (const workloads::Workload& workload : workloads::all_workloads()) {
    names.push_back(workload.name);
  }
  const std::vector<SessionOutcome> outcomes =
      workloads::run_workloads_supervised(names, pool);
  ASSERT_EQ(outcomes.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const workloads::InstrumentedRun bare = workloads::run_workload(
        workloads::workload_by_name(names[i]), workloads::Mode::Dependence);
    EXPECT_EQ(outcomes[i].state, SessionState::Completed)
        << names[i] << ": " << outcomes[i].error;
    EXPECT_EQ(outcomes[i].final_mode, 3) << names[i];
    EXPECT_EQ(outcomes[i].console, bare.interp->console_output()) << names[i];
    EXPECT_EQ(outcomes[i].cpu_ns, bare.clock.cpu_ns()) << names[i];
    EXPECT_EQ(outcomes[i].wall_ns, bare.clock.wall_ns()) << names[i];
    EXPECT_GT(outcomes[i].cpu_ns, 0) << names[i];
  }
}

}  // namespace
}  // namespace jsceres
