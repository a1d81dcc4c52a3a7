// AnalysisService: the resident multi-tenant ingress front-end. Admission
// (run / queue / structured shed), per-tenant concurrency caps, the memory
// governor's degrade/shed ladder and estimate reconciliation, the stuck-
// session watchdog, per-instance counts in stats() and metrics snapshots,
// the process-wide structures a drained service leaves exactly as it found
// them, and per-program atoms under the frame graph's cross-session work
// stealing. This binary runs under the TSan and ASan CI jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/oracles.h"
#include "interp/shape.h"
#include "js/atom.h"
#include "js/parser.h"
#include "rivertrail/thread_pool.h"
#include "support/cancel.h"
#include "support/service.h"
#include "support/session.h"

namespace jsceres {
namespace {

using namespace std::chrono_literals;

/// A latch the test holds closed while it inspects the service mid-flight;
/// gated attempts block on it (observing their cancel token, so a watchdog
/// or shutdown can still reclaim them).
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void release() {
    {
      const std::lock_guard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }

  /// Block until release() or cancellation (which throws, so the supervisor
  /// classifies the attempt instead of the service hanging forever).
  void wait(CancelToken token) {
    entered.fetch_add(1, std::memory_order_release);
    std::unique_lock lock(mutex);
    while (!open) {
      token.raise_if_cancelled();
      cv.wait_for(lock, 1ms);
    }
  }

  /// Test-side: wait (bounded) until `n` attempts are parked on the gate.
  [[nodiscard]] bool await_entered(int n) const {
    for (int spin = 0; spin < 5000; ++spin) {
      if (entered.load(std::memory_order_acquire) >= n) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }
};

ServiceRequest gated_request(std::string name, std::string tenant, Gate& gate) {
  ServiceRequest request;
  request.session.name = std::move(name);
  request.tenant = std::move(tenant);
  request.memory_estimate = 1u << 10;
  request.session.attempt = [&gate](const SessionRequest&, int,
                                    const EngineLimits&, std::int64_t,
                                    CancelToken token) -> AttemptSuccess {
    gate.wait(token);
    AttemptSuccess success;
    success.console = "ran";
    return success;
  };
  return request;
}

TEST(Service, AdmissionRunsQueuesAndShedsStructured) {
  rivertrail::ThreadPool pool(2);
  ServiceOptions options;
  options.max_active = 1;
  options.max_queue = 1;
  Gate gate;
  {
    AnalysisService service(pool, options);
    ServiceTicket first = service.submit(gated_request("first", "t", gate));
    ASSERT_TRUE(gate.await_entered(1));
    ServiceTicket queued = service.submit(gated_request("queued", "t", gate));

    // Queue full: the third submit is shed synchronously — its ticket is
    // already complete (never a hang) with a structured reason.
    ServiceTicket shed = service.submit(gated_request("shed-me", "t", gate));
    EXPECT_TRUE(shed.done());
    const ServiceOutcome& shed_outcome = shed.wait();
    EXPECT_EQ(shed_outcome.state, ServiceState::Shed);
    EXPECT_EQ(shed_outcome.shed_reason, "queue-full");
    EXPECT_EQ(shed_outcome.session.name, "shed-me");

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.shed_queue_full, 1u);
    EXPECT_EQ(stats.active_sessions, 1u);
    EXPECT_EQ(stats.queue_depth, 1u);

    // Open the gate: the active session completes and its completion
    // handler dispatches the queued one (no dispatcher thread to wake).
    gate.release();
    EXPECT_EQ(first.wait().state, ServiceState::Completed);
    EXPECT_EQ(queued.wait().state, ServiceState::Completed);
    service.drain();
    stats = service.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.queue_high_water, 1u);
  }
}

TEST(Service, PerTenantCapQueuesExcessWhileOtherTenantsRun) {
  rivertrail::ThreadPool pool(4);
  ServiceOptions options;
  options.max_active = 4;
  options.max_per_tenant = 1;
  Gate gate;
  {
    AnalysisService service(pool, options);
    ServiceTicket a1 = service.submit(gated_request("a1", "tenant-a", gate));
    ServiceTicket b1 = service.submit(gated_request("b1", "tenant-b", gate));
    ASSERT_TRUE(gate.await_entered(2));
    // tenant-a is at its cap: a2 queues even though global capacity is free.
    ServiceTicket a2 = service.submit(gated_request("a2", "tenant-a", gate));

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.active_sessions, 2u);  // a1 + b1, not a2
    EXPECT_EQ(stats.queue_depth, 1u);

    gate.release();
    EXPECT_EQ(a1.wait().state, ServiceState::Completed);
    EXPECT_EQ(b1.wait().state, ServiceState::Completed);
    EXPECT_EQ(a2.wait().state, ServiceState::Completed);
  }
}

TEST(Service, GovernorDegradesThenShedsUnderMemoryPressure) {
  rivertrail::ThreadPool pool(2);
  // Ceiling sized against the live shared structures so the arithmetic is
  // stable no matter what earlier tests interned: one 80 MiB reservation
  // lands in the degrade band, a second would cross the ceiling and sheds.
  const std::size_t shared = AnalysisService::shared_structure_bytes();
  ServiceOptions options;
  options.max_active = 4;
  options.governor.ceiling_bytes = shared + (100u << 20);
  Gate gate;
  {
    AnalysisService service(pool, options);

    std::atomic<int> observed_mode{-1};
    ServiceRequest big = gated_request("big", "t", gate);
    big.memory_estimate = 80u << 20;
    big.session.attempt = [&gate, &observed_mode](
                              const SessionRequest&, int mode,
                              const EngineLimits&, std::int64_t,
                              CancelToken token) -> AttemptSuccess {
      observed_mode.store(mode, std::memory_order_release);
      gate.wait(token);
      return AttemptSuccess{};
    };
    ServiceTicket first = service.submit(std::move(big));
    ASSERT_TRUE(gate.await_entered(1));

    // ~80% pressure at admission: degraded one rung (3 -> 1), visible both
    // in the mode the attempt actually ran and in the outcome state.
    EXPECT_EQ(observed_mode.load(std::memory_order_acquire), 1);

    // While the first reservation is held, another 80 MiB would cross the
    // ceiling: shed with a structured reason, reservation untouched.
    ServiceRequest second = gated_request("too-big", "t", gate);
    second.memory_estimate = 80u << 20;
    const ServiceOutcome shed_outcome = service.submit(std::move(second)).wait();
    EXPECT_EQ(shed_outcome.state, ServiceState::Shed);
    EXPECT_EQ(shed_outcome.shed_reason, "memory-pressure");
    EXPECT_EQ(service.stats().shed_memory, 1u);
    EXPECT_EQ(service.governor().shed_count(), 1u);

    gate.release();
    const ServiceOutcome& first_outcome = first.wait();
    EXPECT_EQ(first_outcome.state, ServiceState::Degraded);
    service.drain();

    // Released: the same reservation admits again (still degraded — the
    // shared structures alone don't clear the band's floor, the point is
    // the ceiling no longer blocks it).
    gate.release();  // idempotent; keeps the gate open for the re-admit
    ServiceRequest third = gated_request("fits-again", "t", gate);
    third.memory_estimate = 80u << 20;
    EXPECT_NE(service.submit(std::move(third)).wait().state, ServiceState::Shed);
  }
}

TEST(Service, GovernorReconcilesEstimateAgainstMeasuredPeak) {
  rivertrail::ThreadPool pool(2);
  ServiceOptions options;
  {
    AnalysisService service(pool, options);
    ServiceRequest request;
    request.session.name = "under-estimator";
    request.memory_estimate = 1u << 10;  // claims 1 KiB...
    request.session.attempt = [](const SessionRequest&, int, const EngineLimits&,
                                 std::int64_t, CancelToken) -> AttemptSuccess {
      AttemptSuccess success;
      success.peak_bytes = 10u << 20;  // ...actually peaks at 10 MiB
      return success;
    };
    const ServiceOutcome outcome = service.submit(std::move(request)).wait();
    EXPECT_EQ(outcome.state, ServiceState::Completed);
    EXPECT_EQ(outcome.session.peak_bytes, std::size_t(10u << 20));
    service.drain();
    // The reconciliation gap is surfaced for estimate tuning.
    EXPECT_GE(service.governor().max_underestimate(),
              std::size_t((10u << 20) - (1u << 10)));
  }
}

TEST(Service, WatchdogQuarantinesStuckSessionAndSparesSiblings) {
  rivertrail::ThreadPool pool(2);
  ServiceOptions options;
  options.max_active = 2;
  options.watchdog_interval_ms = 5;
  options.watchdog_stuck_ms = 25;
  Gate sibling_gate;
  {
    AnalysisService service(pool, options);

    // Never opens its gate: only the watchdog's sticky cancel ends it.
    ServiceRequest stuck;
    stuck.session.name = "stuck";
    stuck.tenant = "bad-tenant";
    stuck.session.attempt = [](const SessionRequest&, int, const EngineLimits&,
                               std::int64_t, CancelToken token) -> AttemptSuccess {
      for (;;) {
        token.raise_if_cancelled();
        std::this_thread::sleep_for(1ms);
      }
    };
    ServiceTicket stuck_ticket = service.submit(std::move(stuck));
    ServiceTicket sibling =
        service.submit(gated_request("sibling", "good-tenant", sibling_gate));
    ASSERT_TRUE(sibling_gate.await_entered(1));
    sibling_gate.release();

    const ServiceOutcome& stuck_outcome = stuck_ticket.wait();
    EXPECT_EQ(stuck_outcome.state, ServiceState::Quarantined);
    EXPECT_TRUE(stuck_outcome.watchdog_quarantined);
    // One attempt: the watchdog's explicit cancel is sticky, so the
    // supervisor cannot resurrect the session through a retry rung.
    EXPECT_EQ(stuck_outcome.session.attempts, 1);

    EXPECT_EQ(sibling.wait().state, ServiceState::Completed);
    service.drain();
    EXPECT_EQ(service.stats().watchdog_quarantines, 1u);
  }
}

TEST(Service, WaitForTimesOutThenSeesTheOutcome) {
  rivertrail::ThreadPool pool(2);
  Gate gate;
  AnalysisService service(pool, {});
  ServiceTicket ticket = service.submit(gated_request("slow", "t", gate));
  ASSERT_TRUE(gate.await_entered(1));

  // Outcome not final: a bounded wait returns nullopt instead of blocking,
  // and an immediate check agrees.
  EXPECT_FALSE(ticket.wait_for(10).has_value());
  EXPECT_FALSE(ticket.wait_for(0).has_value());
  EXPECT_FALSE(ticket.done());

  gate.release();
  const std::optional<ServiceOutcome> outcome = ticket.wait_for(10'000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, ServiceState::Completed);
  // A nullopt claimed nothing about the future: later waits see the result.
  EXPECT_TRUE(ticket.wait_for(0).has_value());
  EXPECT_EQ(ticket.wait().state, ServiceState::Completed);
}

TEST(Service, OnCompleteFiresOnceForServedAndShedOutcomes) {
  rivertrail::ThreadPool pool(2);
  Gate gate;
  ServiceOptions options;
  options.max_active = 1;
  options.max_queue = 0;
  AnalysisService service(pool, options);

  std::atomic<int> served_calls{0};
  ServiceRequest slow = gated_request("slow", "a", gate);
  slow.on_complete = [&served_calls] { served_calls.fetch_add(1); };
  ServiceTicket served = service.submit(std::move(slow));
  ASSERT_TRUE(gate.await_entered(1));
  EXPECT_EQ(served_calls.load(), 0);

  // No capacity and no queue: a shed, completed (callback included)
  // before submit() returns, on the submitting thread.
  std::atomic<int> shed_calls{0};
  ServiceRequest excess = gated_request("excess", "b", gate);
  excess.on_complete = [&shed_calls] { shed_calls.fetch_add(1); };
  ServiceTicket shed = service.submit(std::move(excess));
  EXPECT_EQ(shed_calls.load(), 1);
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(shed.wait().shed_reason, "queue-full");

  // The served callback runs on the pool worker just after the waiter is
  // woken, so wait (bounded) for it rather than assume it has run.
  gate.release();
  EXPECT_EQ(served.wait().state, ServiceState::Completed);
  for (int spin = 0; spin < 5000 && served_calls.load() == 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  service.drain();
  EXPECT_EQ(served_calls.load(), 1);
  EXPECT_EQ(shed_calls.load(), 1);
}

TEST(Service, MetricsSnapshotCountsOnlyThisService) {
  rivertrail::ThreadPool pool(2);
  Gate gate;
  gate.release();
  // Two services alive at once in one process: each one's stats() and
  // metrics snapshot read its own counts, never the other's or a
  // process-wide sum.
  AnalysisService first(pool);
  AnalysisService second(pool);
  const auto submit_n = [&gate](AnalysisService& service, int n) {
    for (int i = 0; i < n; ++i) {
      const ServiceOutcome outcome =
          service.submit(gated_request("own-" + std::to_string(i), "t", gate))
              .wait();
      EXPECT_EQ(outcome.state, ServiceState::Completed);
    }
    service.drain();
  };
  submit_n(first, 3);
  submit_n(second, 5);

  for (const auto& [service, n] :
       {std::pair<AnalysisService*, std::size_t>{&first, 3},
        std::pair<AnalysisService*, std::size_t>{&second, 5}}) {
    EXPECT_EQ(service->stats().submitted, n);
    EXPECT_EQ(service->stats().completed, n);
    const obs::Snapshot snap = service->metrics_snapshot();
    EXPECT_EQ(snap.value("service.submitted"), n);
    EXPECT_EQ(snap.value("service.completed"), n);
    EXPECT_EQ(snap.value("governor.admit"), n);
    // One entry per name: no owner's count also arrives from the registry.
    std::set<std::string> names;
    for (const obs::SnapshotEntry& entry : snap.entries) {
      EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
    }
  }
}

TEST(Service, WaitForRacingCompletionNeverLosesTheOutcome) {
  rivertrail::ThreadPool pool(2);
  AnalysisService service(pool, {});
  // Hammer the timeout-then-complete straddle: tiny bounded waits polled
  // against attempts of varying latency. Whatever interleaving the race
  // picks, wait_for either times out cleanly or returns the real outcome,
  // and the terminal wait() always agrees.
  for (int round = 0; round < 100; ++round) {
    ServiceRequest request;
    request.session.name = "race-" + std::to_string(round);
    const int stall_us = (round % 5) * 37;
    request.session.attempt = [stall_us](const SessionRequest&, int,
                                         const EngineLimits&, std::int64_t,
                                         CancelToken) -> AttemptSuccess {
      if (stall_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      }
      AttemptSuccess success;
      success.console = "ran";
      return success;
    };
    ServiceTicket ticket = service.submit(std::move(request));
    std::optional<ServiceOutcome> outcome;
    while (!(outcome = ticket.wait_for(1)).has_value()) {
    }
    EXPECT_EQ(outcome->state, ServiceState::Completed);
    EXPECT_EQ(outcome->session.console, "ran");
  }
  service.drain();
}

TEST(Service, SubmitRacingShutdownAlwaysGetsAStructuredOutcome) {
  rivertrail::ThreadPool pool(4);
  // Submitters race begin_shutdown() across many rounds with a sliding
  // start offset. Every submit must land exactly one of two ways — served,
  // or shed with the structured "shutdown" reason — and joining the
  // submitters before the destructor keeps the calls inside the object's
  // lifetime, which is the documented fencing contract.
  for (int round = 0; round < 25; ++round) {
    constexpr int kSubmitters = 4;
    std::vector<ServiceOutcome> outcomes(kSubmitters);
    {
      AnalysisService service(pool, {});
      std::atomic<bool> go{false};
      std::vector<std::thread> submitters;
      for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&service, &go, &outcomes, t] {
          while (!go.load(std::memory_order_acquire)) {
          }
          ServiceRequest request;
          request.session.name = "race-" + std::to_string(t);
          request.session.attempt =
              [](const SessionRequest&, int, const EngineLimits&,
                 std::int64_t, CancelToken) -> AttemptSuccess {
            return AttemptSuccess{};
          };
          outcomes[std::size_t(t)] =
              service.submit(std::move(request)).wait();
        });
      }
      go.store(true, std::memory_order_release);
      if (round % 5 != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(round * 20));
      }
      service.begin_shutdown();
      for (std::thread& submitter : submitters) submitter.join();
    }
    for (const ServiceOutcome& outcome : outcomes) {
      if (outcome.state == ServiceState::Shed) {
        EXPECT_EQ(outcome.shed_reason, "shutdown");
      } else {
        EXPECT_EQ(outcome.state, ServiceState::Completed);
      }
    }
  }
}

TEST(Service, DestructionImmediatelyAfterOutcomeIsSafe) {
  rivertrail::ThreadPool pool(2);
  // wait() returns the instant the completion handler publishes "idle";
  // destroying the service right then races the handler's tail. The
  // handler's final unlock is contractually its last touch of any member,
  // so this loop is TSan's chance to prove it.
  for (int round = 0; round < 50; ++round) {
    AnalysisService service(pool, {});
    ServiceRequest request;
    request.session.name = "teardown-" + std::to_string(round);
    request.session.attempt = [](const SessionRequest&, int,
                                 const EngineLimits&, std::int64_t,
                                 CancelToken) -> AttemptSuccess {
      return AttemptSuccess{};
    };
    EXPECT_EQ(service.submit(std::move(request)).wait().state,
              ServiceState::Completed);
  }
}

TEST(Service, RealSessionsLeaveSharedStateAsFoundOnceDrained) {
  {
    // The first Session of the process builds the builtin realm, whose
    // frozen shapes are not counted; the baseline is taken after that.
    const js::Program program = js::parse("var warm = 1;");
    Session(program, CeresMode::Uninstrumented).run();
  }
  const std::size_t atoms_before = js::atom_table_size();
  const std::size_t shapes_before = interp::Shape::live_count();
  rivertrail::ThreadPool pool(4);
  ServiceOptions options;
  options.max_active = 4;
  options.max_queue = 32;  // all 24 submits must admit, never shed
  {
    AnalysisService service(pool, options);
    std::vector<ServiceTicket> tickets;
    for (int i = 0; i < 24; ++i) {
      // Unique names per session: every run interns fresh atoms and grows
      // fresh shapes, all of which belong to that session's program.
      const std::string n = std::to_string(i);
      ServiceRequest request;
      request.session.name = "real-" + n;
      request.tenant = "tenant-" + std::to_string(i % 3);
      request.session.source =
          "var obj_" + n + " = {};"
          "obj_" + n + ".alpha_" + n + " = 1;"
          "obj_" + n + ".beta_" + n + " = 2;"
          "console.log(obj_" + n + ".alpha_" + n + " + obj_" + n + ".beta_" + n + ");";
      tickets.push_back(service.submit(std::move(request)));
    }
    for (ServiceTicket& ticket : tickets) {
      const ServiceOutcome& outcome = ticket.wait();
      EXPECT_EQ(outcome.state, ServiceState::Completed) << outcome.session.error;
      EXPECT_EQ(outcome.session.console, "3\n");
    }
    service.drain();
    // No reclamation pass: each program freed its atoms and shapes when its
    // session ended, so nothing is left even before the service goes away.
    EXPECT_EQ(js::atom_table_size(), atoms_before);
    EXPECT_EQ(interp::Shape::live_count(), shapes_before);
  }
  EXPECT_EQ(js::atom_table_size(), atoms_before);
  EXPECT_EQ(interp::Shape::live_count(), shapes_before);
}

// Objects that point at themselves cannot be freed by any reference count;
// they go with their session's heap. Sessions through the service, as on
// the wire path, grow the process by no more than a bounded slack.
TEST(Service, CyclicSessionsLeaveNoHeapBehind) {
  rivertrail::ThreadPool pool(2);
  ServiceOptions options;
  options.max_active = 2;
  options.max_queue = 32;
  AnalysisService service(pool, options);
  const auto run_batch = [&service](int count) {
    std::vector<ServiceTicket> tickets;
    for (int i = 0; i < count; ++i) {
      ServiceRequest request;
      request.session.name = "cyclic-" + std::to_string(i);
      request.tenant = "tenant-" + std::to_string(i % 2);
      request.session.source =
          "var o; for (var i = 0; i < 2000; i++) { o = {}; o.self = o; o.arr = [o, i]; }"
          "console.log(o.self.arr[1]);";
      tickets.push_back(service.submit(std::move(request)));
    }
    for (ServiceTicket& ticket : tickets) {
      const ServiceOutcome& outcome = ticket.wait();
      EXPECT_EQ(outcome.state, ServiceState::Completed) << outcome.session.error;
      EXPECT_EQ(outcome.session.console, "1999\n");
    }
  };
  run_batch(4);  // warm-up: realm, chunk cache, worker arenas
  const std::size_t before = fuzz::current_rss_bytes();
  for (int batch = 0; batch < 10; ++batch) run_batch(20);
  service.drain();
  const std::size_t after = fuzz::current_rss_bytes();
  const std::size_t growth = after > before ? after - before : 0;
  if (fuzz::kRssTracksFrees) {
    EXPECT_LE(growth, std::size_t(8) << 20) << "200 cyclic sessions grew RSS by "
                                             << (growth >> 10) << " KiB";
  }
}

// A worker waiting inside one session runs other pool tasks, so one
// session's frame-graph stage can execute on a thread that is in the middle
// of another session. The atoms that stage interns must still belong to its
// own program: every session's rAF frames write computed keys and read back
// the keys of earlier frames, and each console must equal the same program
// run bare through Session.
TEST(Service, FrameGraphAtomsStayWithTheirOwnSession) {
  constexpr int kSessions = 8;
  constexpr std::int64_t kHorizonMs = 400;
  const auto source_of = [](int i) {
    return "var tag = '_s" + std::to_string(i) + "';"
           "var o = {};"
           "var frame = 0;"
           "var seen = 0;"
           "function tick() {"
           "  o['k' + frame + tag] = frame;"
           "  for (var f = 0; f < frame; f++) {"
           "    if (o['k' + f + tag] === f) { seen++; }"
           "  }"
           "  frame++;"
           "  if (frame < 12) { requestAnimationFrame(tick); }"
           "  else { console.log('frames ' + frame + ' seen ' + seen); }"
           "}"
           "requestAnimationFrame(tick);";
  };

  std::vector<std::string> expected;
  for (int i = 0; i < kSessions; ++i) {
    const js::Program program = js::parse(source_of(i));
    Session session(program, CeresMode::Dependence);
    session.open_page();
    session.run(kHorizonMs);
    expected.push_back(session.interp().console_output());
  }
  ASSERT_EQ(expected[0], "frames 12 seen 66\n");

  rivertrail::ThreadPool pool(4);
  ServiceOptions options;  // the soak's admission shape
  options.max_active = 4;
  options.max_queue = 32;
  options.max_per_tenant = 2;
  AnalysisService service(pool, options);
  std::vector<ServiceTicket> tickets;
  for (int i = 0; i < kSessions; ++i) {
    ServiceRequest request;
    request.tenant = "tenant-" + std::to_string(i);
    request.session.name = "frames-" + std::to_string(i);
    request.session.source = source_of(i);
    request.session.has_timers = true;
    request.session.horizon_ms = kHorizonMs;
    request.session.frame_pool = &pool;
    tickets.push_back(service.submit(std::move(request)));
  }
  for (int i = 0; i < kSessions; ++i) {
    const ServiceOutcome outcome = tickets[std::size_t(i)].wait();
    EXPECT_EQ(outcome.state, ServiceState::Completed) << outcome.session.error;
    EXPECT_EQ(outcome.session.console, expected[std::size_t(i)]) << "session " << i;
  }
}

}  // namespace
}  // namespace jsceres
