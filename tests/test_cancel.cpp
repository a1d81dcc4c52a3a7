// Cooperative cancellation across the scheduler: token/deadline primitives,
// parallel_for observation sweeps, cancel-during-steal from another thread,
// mid-pipeline cancellation draining as bubbles, cancel-vs-exception races
// in run_pipeline, the event loop's dispatch boundary, and the interpreter's
// tick probe. Every test reuses its pool afterwards — cancellation must
// drain to a clean joined state, never poison the runtime. This binary runs
// under the TSan and ASan CI jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dom/page.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/parallel_pipeline.h"
#include "rivertrail/thread_pool.h"
#include "support/cancel.h"
#include "support/clock.h"

namespace jsceres::rivertrail {
namespace {

/// A cancelled (or any) run must leave the pool fully usable: run a clean
/// loop over it and check the result.
void expect_pool_reusable(ThreadPool& pool) {
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, 0, 1000, [&sum](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(CancelSource, LatchesFirstReasonAndResetKeepsExplicitCancel) {
  CancelSource source;
  EXPECT_FALSE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::None);

  source.request_cancel();
  source.expire_now();  // loses the race: first reason wins
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::Cancelled);

  source.reset();  // an explicit cancel survives re-arming for a retry
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::Cancelled);
}

TEST(CancelSource, DeadlineExpiryLatchesAndResetClearsIt) {
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now());
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::DeadlineExpired);

  source.reset();  // a retry gets a fresh deadline budget
  EXPECT_FALSE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::None);
}

TEST(CancelSource, ObservationCountdownFiresAtNthCheck) {
  CancelSource source;
  source.cancel_after_observations(3);
  const CancelToken token(source);
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Cancelled);
}

TEST(CancelToken, DefaultTokenIsInert) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.raise_if_cancelled());
}

TEST(ParallelForCancel, PreCancelledThrowsBeforeAnyBody) {
  ThreadPool pool(4);
  CancelSource source;
  source.request_cancel();
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   pool, 0, 1000,
                   [&ran](std::int64_t lo, std::int64_t hi) {
                     ran.fetch_add(int(hi - lo), std::memory_order_relaxed);
                   },
                   0, CancelToken(source)),
               CancelledError);
  EXPECT_EQ(ran.load(), 0);
  expect_pool_reusable(pool);
}

TEST(ParallelForCancel, ObservationSweepDrainsClean) {
  ThreadPool pool(4);
  for (const std::int64_t k : {1, 2, 3, 5, 8, 13, 21, 64, 200}) {
    CancelSource source;
    source.cancel_after_observations(k);
    std::atomic<std::int64_t> ran{0};
    bool cancelled = false;
    try {
      parallel_for(
          pool, 0, 4000,
          [&ran](std::int64_t lo, std::int64_t hi) {
            ran.fetch_add(hi - lo, std::memory_order_relaxed);
          },
          4, CancelToken(source));
    } catch (const CancelledError& e) {
      cancelled = true;
      EXPECT_EQ(e.cancel_reason(), CancelReason::Cancelled);
    }
    // Either the loop finished ahead of the K-th observation or it was cut
    // short — both must leave a drained gate and a usable pool.
    if (!cancelled) EXPECT_EQ(ran.load(), 4000);
    EXPECT_LE(ran.load(), 4000);
  }
  expect_pool_reusable(pool);
}

TEST(ParallelForCancel, ExpiredDeadlineRaisesDeadlineReason) {
  ThreadPool pool(2);
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now());
  try {
    parallel_for(pool, 0, 100, [](std::int64_t, std::int64_t) {},
                 0, CancelToken(source));
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cancel_reason(), CancelReason::DeadlineExpired);
  }
  expect_pool_reusable(pool);
}

TEST(ParallelForCancel, CancelFromAnotherThreadDuringStealHeavyLoop) {
  ThreadPool pool(4);
  CancelSource source;
  std::atomic<std::int64_t> ran{0};
  // Grain 1 lets the splitter shed down to single iterations, which
  // maximizes steal traffic; the canceller waits until workers are
  // demonstrably mid-loop, so the cancel lands in the middle of live steals
  // rather than before or after the run.
  std::thread canceller([&] {
    while (ran.load(std::memory_order_relaxed) < 64) std::this_thread::yield();
    source.request_cancel();
  });
  bool cancelled = false;
  try {
    parallel_for(
        pool, 0, 2'000'000,
        [&ran](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            for (volatile int spin = 0; spin < 50; ++spin) {
            }
          }
        },
        1, CancelToken(source));
  } catch (const CancelledError&) {
    cancelled = true;
  }
  canceller.join();
  if (cancelled) EXPECT_LT(ran.load(), 2'000'000);
  expect_pool_reusable(pool);
}

TEST(ParallelChunksCancel, SweepDrains) {
  ThreadPool pool(4);
  for (const std::int64_t k : {1, 2, 4, 9}) {
    CancelSource source;
    source.cancel_after_observations(k);
    std::atomic<int> chunks_run{0};
    try {
      parallel_chunks(
          pool, 1024, 16,
          [&chunks_run](std::int64_t, std::int64_t, std::int64_t) {
            chunks_run.fetch_add(1, std::memory_order_relaxed);
          },
          CancelToken(source));
    } catch (const CancelledError&) {
    }
    EXPECT_LE(chunks_run.load(), 16);
  }
  expect_pool_reusable(pool);
}

TEST(PipelineCancel, MidStreamCancelDrainsAsBubblesAndCommitStaysPrefix) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 64;
  for (const std::int64_t k : {1, 3, 7, 15, 31, 90}) {
    CancelSource source;
    source.cancel_after_observations(k);
    std::vector<std::size_t> committed;
    bool cancelled = false;
    try {
      std::vector<PipelineStage> stages;
      stages.push_back(serial_stage([](std::size_t) {}));
      stages.push_back(parallel_stage([](std::size_t) {
        for (volatile int spin = 0; spin < 100; ++spin) {
        }
      }));
      stages.push_back(serial_stage(
          [&committed](std::size_t ticket) { committed.push_back(ticket); }));
      run_pipeline(pool, kTokens, 4, std::move(stages), CancelToken(source));
    } catch (const CancelledError&) {
      cancelled = true;
    }
    // The commit stage is serial-in-order and cancellation skips every body
    // after the latch, so the committed tickets are always a dense prefix —
    // cancelled tokens drained through the turnstiles as bubbles.
    for (std::size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(committed[i], i);
    }
    if (!cancelled) EXPECT_EQ(committed.size(), kTokens);
  }
  // The same pool runs a full pipeline to completion afterwards.
  std::atomic<std::size_t> done{0};
  const std::size_t produced = parallel_pipeline(
      pool, 32, 4, serial_stage([](std::size_t) {}),
      parallel_stage([&done](std::size_t) { done.fetch_add(1); }),
      serial_stage([](std::size_t) {}));
  EXPECT_EQ(produced, 32u);
  EXPECT_EQ(done.load(), 32u);
  expect_pool_reusable(pool);
}

TEST(PipelineCancel, CancelVsExceptionRaceAlwaysDrainsAndExceptionWins) {
  ThreadPool pool(4);
  // serial -> parallel (throws at ticket 2) -> serial. Sweeping the cancel
  // observation K across the run's per-body checks covers cancel landing
  // before the first body, between tokens, and after the throw.
  constexpr std::size_t kTokens = 8;
  const auto stages_throwing_at_2 = [](std::atomic<bool>& threw) {
    std::vector<PipelineStage> stages;
    stages.push_back(serial_stage([](std::size_t) {}));
    stages.push_back(parallel_stage([&threw](std::size_t ticket) {
      if (ticket != 2) return;
      threw.store(true, std::memory_order_relaxed);
      throw std::runtime_error("boom");
    }));
    stages.push_back(serial_stage([](std::size_t) {}));
    return stages;
  };
  for (std::int64_t k = 1; k <= std::int64_t(3 * kTokens) + 2; ++k) {
    std::atomic<bool> threw{false};
    CancelSource source;
    source.cancel_after_observations(k);
    bool saw_body_exception = false;
    bool saw_cancel = false;
    try {
      run_pipeline(pool, kTokens, 4, stages_throwing_at_2(threw),
                   CancelToken(source));
      FAIL() << "pipeline must either throw or be cancelled (k=" << k << ")";
    } catch (const CancelledError&) {
      saw_cancel = true;
    } catch (const std::runtime_error& e) {
      saw_body_exception = true;
      EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_TRUE(saw_body_exception || saw_cancel);
    // First-exception-wins beats cancellation at the join: whenever the
    // throwing body actually ran, its exception is what surfaces.
    if (threw.load()) {
      EXPECT_TRUE(saw_body_exception) << "k=" << k;
      EXPECT_FALSE(saw_cancel) << "k=" << k;
    }
    // The run drained to its join: the same pool runs the same stages again
    // with an inert token and deterministically surfaces the body exception.
    std::atomic<bool> threw_again{false};
    EXPECT_THROW(
        run_pipeline(pool, kTokens, 4, stages_throwing_at_2(threw_again)),
        std::runtime_error);
  }
  expect_pool_reusable(pool);
}

TEST(EventLoopCancel, CancelAtDispatchBoundaryLeavesQueueResumable) {
  const js::Program program = js::parse(
      "var n = 0;"
      "function f() { n = n + 1; if (n < 10) { setTimeout(f, 10); } }"
      "setTimeout(f, 10);",
      "<cancel-loop>");
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr);
  dom::Page page(interp);
  interp.run();

  CancelSource source;
  source.cancel_after_observations(4);
  EXPECT_THROW(page.event_loop().run(1000, CancelToken(source)), CancelledError);
  const std::int64_t dispatched = page.event_loop().tasks_dispatched();
  EXPECT_LT(dispatched, 10);

  // The undispatched timers survived the cancelled run: a fresh run drains
  // the remaining chain to completion.
  page.event_loop().run(1000);
  EXPECT_EQ(page.event_loop().tasks_dispatched(), 10);
}

TEST(InterpreterCancel, TickProbeRaisesCancelledErrorAndEngineStaysClean) {
  const js::Program program =
      js::parse("var x = 0; while (true) { x = x + 1; }", "<runaway>");
  CancelSource source;
  source.cancel_after_observations(2);
  interp::InterpreterConfig config;
  config.cancel = CancelToken(source);
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr, config);
  try {
    interp.run();
    FAIL() << "runaway loop must be cancelled";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cancel_reason(), CancelReason::Cancelled);
  }
  // CancelledError is an EngineError: the PR 6 recovery contract holds and
  // the same engine object accepts another (still-cancelled) run.
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
  EXPECT_THROW(interp.run(), CancelledError);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(InterpreterCancel, DeadlineExpiryIsRecoverableAndResetRestoresTheRun) {
  const js::Program program = js::parse(
      "var x = 0; for (var i = 0; i < 200000; i = i + 1) { x = x + 1; }",
      "<bounded>");
  CancelSource source;
  interp::InterpreterConfig config;
  config.cancel = CancelToken(source);
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr, config);

  source.set_deadline(std::chrono::steady_clock::now());  // already expired
  try {
    interp.run();
    FAIL() << "expired deadline must cancel the run";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cancel_reason(), CancelReason::DeadlineExpired);
  }
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);

  source.reset();  // retry semantics: the expiry clears, the engine reruns
  EXPECT_NO_THROW(interp.run());
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

}  // namespace
}  // namespace jsceres::rivertrail
