// Work-stealing runtime tests: Chase–Lev deque invariants, steal-heavy
// stress, parallel_for edge cases, nested parallelism, injection fairness,
// and exception plumbing. The steal stress tests are the ones the
// -DJSCERES_TSAN=ON build is expected to keep clean.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rivertrail/parallel_for.h"
#include "rivertrail/parallel_pipeline.h"
#include "rivertrail/task.h"
#include "rivertrail/thread_pool.h"
#include "rivertrail/ws_deque.h"

namespace jsceres::rivertrail {
namespace {

TEST(Task, InlineTaskRunsWithoutHeap) {
  int hits = 0;
  int* hits_ptr = &hits;
  Task task = Task::inline_of([hits_ptr] { ++*hits_ptr; });
  ASSERT_TRUE(bool(task));
  task.run();
  EXPECT_EQ(hits, 1);
}

TEST(Task, BoxedTaskRunsArbitraryCallable) {
  auto big = std::make_shared<std::vector<int>>(100, 7);
  int sum = 0;
  Task task = Task::boxed([big, &sum] { sum = (*big)[0] + int(big->size()); });
  task.run();
  EXPECT_EQ(sum, 107);
}

TEST(WsDeque, OwnerPushPopIsLifo) {
  WsDeque deque(8);
  Task tasks[3];
  for (auto& task : tasks) task = Task::inline_of([] {});
  EXPECT_TRUE(deque.push(&tasks[0]));
  EXPECT_TRUE(deque.push(&tasks[1]));
  EXPECT_TRUE(deque.push(&tasks[2]));
  EXPECT_EQ(deque.pop(), &tasks[2]);
  EXPECT_EQ(deque.pop(), &tasks[1]);
  EXPECT_EQ(deque.pop(), &tasks[0]);
  EXPECT_EQ(deque.pop(), nullptr);
}

TEST(WsDeque, StealIsFifoAndPushRefusesWhenFull) {
  WsDeque deque(4);
  Task tasks[5];
  for (auto& task : tasks) task = Task::inline_of([] {});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(deque.push(&tasks[i]));
  EXPECT_FALSE(deque.push(&tasks[4]));  // full: caller keeps the task
  EXPECT_EQ(deque.steal(), &tasks[0]);  // oldest first
  EXPECT_TRUE(deque.push(&tasks[4]));   // slot freed by the steal
  EXPECT_EQ(deque.steal(), &tasks[1]);
}

// Concurrent deque torture: one owner pushing/popping, several thieves
// stealing; every pushed task must be executed exactly once, by somebody.
// Each task gets its own slot (the pool recycles slab slots through an
// acquire/release free list; here distinct slots keep the test focused on
// the deque itself).
TEST(WsDeque, ConcurrentOwnerAndThievesCoverAllTasks) {
  constexpr int kTasks = 20000;
  constexpr int kThieves = 3;
  WsDeque deque(256);
  std::vector<Task> slots(kTasks);
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (Task* task = deque.steal()) {
          Task local = *task;
          local.run();
        }
      }
    });
  }

  for (int i = 0; i < kTasks; ++i) {
    std::atomic<int>* hit = &hits[i];
    slots[std::size_t(i)] =
        Task::inline_of([hit] { hit->fetch_add(1, std::memory_order_relaxed); });
    while (!deque.push(&slots[std::size_t(i)])) {
      if (Task* own = deque.pop()) {
        Task local = *own;
        local.run();
      }
    }
    if (i % 7 == 0) {
      if (Task* own = deque.pop()) {
        Task local = *own;
        local.run();
      }
    }
  }
  // Drain what the thieves haven't taken, then stop them.
  while (Task* task = deque.pop()) {
    Task local = *task;
    local.run();
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  // A thief may have claimed a task (CAS succeeded) but not yet bumped the
  // hit before joining — join synchronizes, so by here every claimed task
  // has run. Every index must be exactly 1.
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[std::size_t(i)].load(), 1) << "task " << i;
  }
}

class WorkStealingPoolTest : public ::testing::TestWithParam<unsigned> {};

// Steal-heavy stress: many tiny divergent tasks; every index must execute
// exactly once. This is the primary TSan target.
TEST_P(WorkStealingPoolTest, StealStressEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  constexpr std::int64_t kN = 50000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(
      pool, 0, kN,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          // Divergent per-iteration cost: mostly trivial, occasionally
          // heavy, so ranges split and steals actually happen.
          if (i % 257 == 0) {
            volatile double sink = 0;
            for (int r = 0; r < 500; ++r) sink = sink + double(r);
          }
          hits[std::size_t(i)].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[std::size_t(i)].load(), 1) << "index " << i;
  }
}

// Deep-split steal-half stress: grain 1 over a large range whose heavy band
// sits at the FRONT, so the first owner keeps hitting the shed check while
// thieves are hungry. Under the steal-half discipline each shed hands off
// the whole top half of the victim's remaining range and the thief
// re-splits it locally; exactly-once execution must survive arbitrarily
// deep shed/re-split cascades, repeatedly on a warm pool.
TEST_P(WorkStealingPoolTest, StealHalfDeepSplitStress) {
  ThreadPool pool(GetParam());
  constexpr std::int64_t kN = 100000;
  constexpr int kRounds = 3;
  std::vector<std::atomic<int>> hits(kN);
  for (int round = 0; round < kRounds; ++round) {
    parallel_for(
        pool, 0, kN,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            // Heavy head: the leading ranges are the expensive ones, so
            // sheds happen while the victim still owns most of the range.
            if (i < kN / 8 && i % 97 == 0) {
              volatile double sink = 0;
              for (int r = 0; r < 400; ++r) sink = sink + double(r);
            }
            hits[std::size_t(i)].fetch_add(1, std::memory_order_relaxed);
          }
        },
        /*grain=*/1);
  }
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[std::size_t(i)].load(), kRounds) << "index " << i;
  }
}

TEST_P(WorkStealingPoolTest, RepeatedSmallDispatches) {
  ThreadPool pool(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(pool, 0, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkStealingPoolTest,
                         ::testing::Values(2u, 4u, 8u));

TEST(ParallelForEdge, EmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 10, 10, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  parallel_for(pool, 10, 5, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForEdge, FewerIterationsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, 0, 3, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[std::size_t(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEdge, GrainOfOneSplitsToSingletons) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  parallel_for(
      pool, 0, 512,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) hits[std::size_t(i)].fetch_add(1);
      },
      /*grain=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEdge, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(1000, 0);  // no atomics needed: must be sequential
  parallel_for(pool, 0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[std::size_t(i)] += 1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForEdge, NegativeAndOffsetRanges) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, -100, 100, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), -100);  // sum of -100..99
}

// Nested parallel_for from inside a task must not deadlock: the inner join
// drains the worker's own deque instead of blocking the thread.
TEST(ParallelForNested, InnerLoopInsideOuterTask) {
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 16;
  constexpr std::int64_t kInner = 256;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(
      pool, 0, kOuter,
      [&](std::int64_t olo, std::int64_t ohi) {
        for (std::int64_t o = olo; o < ohi; ++o) {
          parallel_for(
              pool, 0, kInner,
              [&, o](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  hits[std::size_t(o * kInner + i)].fetch_add(1,
                                                              std::memory_order_relaxed);
                }
              },
              /*grain=*/8);
        }
      },
      /*grain=*/1);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelForNested, NestedSubmitFromTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  CompletionGate outer{4};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      CompletionGate inner{2};
      for (int j = 0; j < 2; ++j) {
        pool.submit([&] {
          counter.fetch_add(1);
          inner.arrive();
        });
      }
      // Waiting inside a worker would idle one thread; helping instead is
      // what ThreadPool::try_run_one is for. done() is advisory — the
      // destruction handshake before `inner` leaves scope is wait().
      while (!inner.done()) {
        if (!pool.try_run_one()) std::this_thread::yield();
      }
      inner.wait();
      outer.arrive();
    });
  }
  outer.wait();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ParallelForExceptions, BodyThrowRethrownAtCallSiteNoDeadlock) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 10000,
                            [&](std::int64_t lo, std::int64_t) {
                              if (lo >= 5000) throw std::runtime_error("kernel fault");
                            }),
               std::runtime_error);
  // Pool still serviceable after the failed loop.
  std::atomic<int> ok{0};
  parallel_for(pool, 0, 100, [&](std::int64_t lo, std::int64_t hi) {
    ok.fetch_add(int(hi - lo), std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ParallelForExceptions, ParReduceThrowPropagates) {
  ThreadPool pool(4);
  std::vector<int> in(10000, 1);
  EXPECT_THROW(par_reduce(
                   pool, in, 0,
                   [](int v) {
                     if (v == 1) throw std::runtime_error("transform fault");
                     return v;
                   },
                   [](int a, int b) { return a + b; }),
               std::runtime_error);
}

TEST(ParReduceDeterminism, StableAcrossRunsAndSchedulingNoise) {
  ThreadPool pool(4);
  std::vector<double> in(30011);  // prime-ish size: uneven chunk boundaries
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = (double(i % 1009) - 504.0) * 1e-3;
  }
  const auto reduce_once = [&] {
    return par_reduce(
        pool, in, 0.0, [](double v) { return v * 1.000001 + 1e-7; },
        [](double a, double b) { return a + b; });
  };
  const double first = reduce_once();
  for (int run = 0; run < 20; ++run) {
    // Concurrent noise so steals land differently run to run.
    std::atomic<int> noise{0};
    parallel_for(pool, 0, 1000, [&](std::int64_t lo, std::int64_t hi) {
      noise.fetch_add(int(hi - lo), std::memory_order_relaxed);
    });
    ASSERT_EQ(reduce_once(), first) << "run " << run;  // bitwise equal
  }
}

TEST(ThreadPoolInjection, RoundRobinReachesAllWorkersUnderLoad) {
  ThreadPool pool(4);
  constexpr int kTasks = 2000;
  std::atomic<int> counter{0};
  CompletionGate gate{kTasks};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
      gate.arrive();
    });
  }
  gate.wait();
  EXPECT_EQ(counter.load(), kTasks);
}

// ---------------------------------------------------------------------------
// parallel_pipeline: token ordering, backpressure, exceptions, determinism.
// ---------------------------------------------------------------------------

TEST(ParallelPipeline, SerialOutStageSeesTicketsInOrder) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 500;
  std::vector<std::size_t> committed;
  std::atomic<int> middle_runs{0};
  const std::size_t produced = parallel_pipeline(
      pool, kTokens, 4,
      serial_stage([](std::size_t) {}),
      parallel_stage([&](std::size_t token) {
        // Jitter the middle stage so tokens genuinely race to the exit.
        volatile int spin = int(token % 7) * 50;
        while (spin > 0) spin = spin - 1;
        middle_runs.fetch_add(1, std::memory_order_relaxed);
      }),
      serial_stage([&](std::size_t token) { committed.push_back(token); }));
  EXPECT_EQ(produced, kTokens);
  EXPECT_EQ(middle_runs.load(), int(kTokens));
  ASSERT_EQ(committed.size(), kTokens);
  for (std::size_t i = 0; i < kTokens; ++i) EXPECT_EQ(committed[i], i);
}

TEST(ParallelPipeline, CommitOrderIsDeterministicAcrossRuns) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 200;
  std::vector<std::uint64_t> logs[2];
  for (auto& log : logs) {
    std::vector<std::uint64_t> values(kTokens, 0);
    parallel_pipeline(
        pool, kTokens, 6,
        serial_stage([&](std::size_t token) { values[token] = token * 2654435761u; }),
        parallel_stage([&](std::size_t token) { values[token] ^= values[token] >> 13; }),
        serial_stage([&](std::size_t token) { log.push_back(values[token]); }));
  }
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(ParallelPipeline, BoundedTokensApplyBackpressure) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 300;
  constexpr std::size_t kInFlight = 3;
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const auto track = [&](int delta) {
    const int now = in_flight.fetch_add(delta, std::memory_order_relaxed) + delta;
    int prev = peak.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  };
  parallel_pipeline(
      pool, kTokens, kInFlight,
      serial_stage([&](std::size_t) { track(+1); }),
      parallel_stage([](std::size_t token) {
        volatile int spin = int(token % 5) * 40;
        while (spin > 0) spin = spin - 1;
      }),
      serial_stage([&](std::size_t) { track(-1); }));
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LE(peak.load(), int(kInFlight));
}

TEST(ParallelPipeline, InputStageEndsStreamEarly) {
  ThreadPool pool(4);
  constexpr std::size_t kProduce = 37;
  std::atomic<int> uploaded{0};
  std::vector<std::size_t> committed;
  const std::size_t produced = parallel_pipeline(
      pool, 10'000, 4,
      serial_stage([&](std::size_t token) -> bool { return token < kProduce; }),
      parallel_stage([&](std::size_t) { uploaded.fetch_add(1, std::memory_order_relaxed); }),
      serial_stage([&](std::size_t token) { committed.push_back(token); }));
  EXPECT_EQ(produced, kProduce);
  EXPECT_EQ(uploaded.load(), int(kProduce));
  ASSERT_EQ(committed.size(), kProduce);
  for (std::size_t i = 0; i < kProduce; ++i) EXPECT_EQ(committed[i], i);
}

TEST(ParallelPipeline, MidStageExceptionPropagatesAfterQuiescing) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 100;
  std::atomic<int> committed{0};
  bool threw = false;
  try {
    parallel_pipeline(
        pool, kTokens, 4,
        serial_stage([](std::size_t) {}),
        parallel_stage([](std::size_t token) {
          if (token == 13) throw std::runtime_error("upload failed");
        }),
        serial_stage([&](std::size_t) { committed.fetch_add(1); }));
  } catch (const std::runtime_error& error) {
    threw = true;
    EXPECT_STREQ(error.what(), "upload failed");
  }
  EXPECT_TRUE(threw);
  // Tokens before the failure may have committed; everything after is
  // skipped — but the join returned, so the stream fully quiesced.
  EXPECT_LE(committed.load(), int(kTokens));
}

TEST(ParallelPipeline, NestedParallelForInsidePipelineStage) {
  ThreadPool pool(4);
  constexpr std::size_t kTokens = 24;
  constexpr std::int64_t kN = 512;
  std::vector<std::int64_t> sums(kTokens, 0);
  parallel_pipeline(
      pool, kTokens, 4,
      serial_stage([](std::size_t) {}),
      parallel_stage([&](std::size_t token) {
        std::atomic<std::int64_t> sum{0};
        parallel_for(pool, 0, kN, [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t local = 0;
          for (std::int64_t i = lo; i < hi; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        sums[token] = sum.load();
      }),
      serial_stage([](std::size_t) {}));
  for (const std::int64_t sum : sums) EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

}  // namespace
}  // namespace jsceres::rivertrail
