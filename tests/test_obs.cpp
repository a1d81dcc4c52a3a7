// Observability layer: the lock-free metrics registry (multi-threaded
// aggregation, snapshot-during-update races, log2 histogram buckets), the
// Chrome-trace recorder (ring wraparound, schema, thread names), and the
// end-to-end acceptance run — a fuzz-generated session batch through
// AnalysisService must leave scheduler / interpreter / service / governor
// metrics with plausible non-zero values and task/session/frame spans
// in the trace. This binary runs under the TSan CI job.
//
// Registrations are process-permanent, so every test uses metric names
// unique to itself ("tobs." prefix + test tag). The registry-exhaustion
// test interns thousands of dead names and is therefore DECLARED LAST in
// this file: gtest runs tests in declaration order, and nothing after it
// could intern fresh metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/generator.h"
#include "interp/shape.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"
#include "support/service.h"

namespace jsceres {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricKind;
using obs::Snapshot;
using obs::SpanScope;
using obs::TraceEvent;
using obs::TraceRecorder;

std::uint64_t snap_value(const std::string& name) {
  return obs::snapshot().value(name);
}

TEST(MetricsRegistry, CounterAggregatesAcrossThreadsIncludingExitedOnes) {
  Counter& counter = Counter::at("tobs.cross_thread");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // All writer threads have exited; their shards must still be aggregated.
  EXPECT_EQ(snap_value("tobs.cross_thread"),
            std::uint64_t(kThreads) * kAddsPerThread);

  // Interning the same name again returns the same metric.
  Counter::at("tobs.cross_thread").add(5);
  EXPECT_EQ(snap_value("tobs.cross_thread"),
            std::uint64_t(kThreads) * kAddsPerThread + 5);
}

TEST(MetricsRegistry, ExitedThreadsHandTheirShardToTheNextThread) {
  Counter& counter = Counter::at("tobs.shard_reuse");
  const std::size_t before = obs::detail::shards_allocated();
  for (int t = 0; t < 256; ++t) {
    std::thread([&counter] { counter.add(1); }).join();
  }
  // Reused shards keep their cells, so the total still sums every thread.
  EXPECT_EQ(snap_value("tobs.shard_reuse"), 256u);
  EXPECT_LE(obs::detail::shards_allocated() - before, 1u);
}

TEST(MetricsRegistry, GaugeSetAddAndSnapshotKind) {
  Gauge& gauge = Gauge::at("tobs.gauge");
  gauge.set(42);
  gauge.add(-50);
  EXPECT_EQ(gauge.value(), -8);
  const Snapshot snap = obs::snapshot();
  const obs::SnapshotEntry* entry = snap.find("tobs.gauge");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::Gauge);
  EXPECT_EQ(entry->gauge, -8);
}

TEST(MetricsRegistry, HistogramBucketsByBitWidthAndKeepsSum) {
  Histogram& hist = Histogram::at("tobs.hist");
  hist.record(0);    // bit_width 0 -> bucket 0
  hist.record(1);    // bucket 1
  hist.record(5);    // bucket 3
  hist.record(5);    // bucket 3
  hist.record(255);  // bucket 8
  hist.record(~std::uint64_t(0));  // bit_width 64, clamped to last bucket

  const Snapshot snap = obs::snapshot();
  const obs::SnapshotEntry* entry = snap.find("tobs.hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::Histogram);
  EXPECT_EQ(entry->hist.count, 6u);
  EXPECT_EQ(entry->hist.buckets[0], 1u);
  EXPECT_EQ(entry->hist.buckets[1], 1u);
  EXPECT_EQ(entry->hist.buckets[3], 2u);
  EXPECT_EQ(entry->hist.buckets[8], 1u);
  EXPECT_EQ(entry->hist.buckets[obs::kHistogramBuckets - 1], 1u);
  EXPECT_EQ(entry->hist.sum, 0u + 1 + 5 + 5 + 255 + ~std::uint64_t(0));
  EXPECT_GT(entry->hist.mean(), 0.0);
}

TEST(MetricsRegistry, SnapshotDuringConcurrentUpdatesIsMonotonic) {
  Counter& counter = Counter::at("tobs.race");
  constexpr int kWriters = 4;
  constexpr int kAddsPerWriter = 50'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kAddsPerWriter; ++i) counter.add(1);
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshots taken mid-update must never go backwards and never overshoot.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 200; ++probe) {
    const std::uint64_t now = snap_value("tobs.race");
    EXPECT_GE(now, last);
    EXPECT_LE(now, std::uint64_t(kWriters) * kAddsPerWriter);
    last = now;
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(snap_value("tobs.race"), std::uint64_t(kWriters) * kAddsPerWriter);
}

TEST(MetricsRegistry, TextAndJsonDumpsCarryEveryKind) {
  Counter::at("tobs.dump_counter").add(3);
  Gauge::at("tobs.dump_gauge").set(-7);
  Histogram::at("tobs.dump_hist").record(100);

  const Snapshot snap = obs::snapshot();
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("tobs.dump_counter"), std::string::npos);
  EXPECT_NE(text.find("tobs.dump_gauge"), std::string::npos);
  EXPECT_NE(text.find("tobs.dump_hist"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"tobs.dump_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"tobs.dump_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"tobs.dump_hist\""), std::string::npos);
  // Machine-consumed (diff_bench.py --metrics): braces must balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  Counter::at("tobs.reset_me").add(17);
  Gauge::at("tobs.reset_gauge").set(9);
  ASSERT_EQ(snap_value("tobs.reset_me"), 17u);
  obs::reset_all_for_testing();
  const Snapshot snap = obs::snapshot();
  ASSERT_NE(snap.find("tobs.reset_me"), nullptr);
  EXPECT_EQ(snap.value("tobs.reset_me"), 0u);
  EXPECT_EQ(snap.find("tobs.reset_gauge")->gauge, 0);
}

// --- trace recorder --------------------------------------------------------

TEST(TraceRecorderTest, RingWrapsKeepingNewestEvents) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start(/*events_per_thread=*/16);
  for (std::uint64_t i = 0; i < 100; ++i) {
    TraceEvent event;
    event.name = "wrap";
    event.cat = "tobs";
    event.ts_ns = std::int64_t(i);
    event.dur_ns = 1;
    event.arg_name = "i";
    event.arg = i;
    rec.append(event);
  }
  rec.stop();
  std::vector<TraceEvent> kept;
  for (const TraceEvent& event : rec.collect()) {
    if (std::strcmp(event.cat, "tobs") == 0) kept.push_back(event);
  }
  ASSERT_EQ(kept.size(), 16u);
  // Newest 16 of the 100, in ts order (collect() sorts by ts).
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].arg, 84 + i);
  }
}

TEST(TraceRecorderTest, SpanScopeRecordsCompleteEventsWithThreadTimes) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start(64);
  {
    SpanScope span("tobs", "outer_span", "answer", 42);
    // Enough work that dur/tdur are visibly nonzero on any clock.
    volatile std::uint64_t spin = 0;
    for (int i = 0; i < 200'000; ++i) spin = spin + std::uint64_t(i);
  }
  rec.stop();
  const TraceEvent* found = nullptr;
  const std::vector<TraceEvent> events = rec.collect();
  for (const TraceEvent& event : events) {
    if (std::strcmp(event.name, "outer_span") == 0) found = &event;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->ph, 'X');
  EXPECT_STREQ(found->cat, "tobs");
  EXPECT_GT(found->dur_ns, 0);
  EXPECT_GE(found->ts_ns, 0);
  ASSERT_NE(found->arg_name, nullptr);
  EXPECT_STREQ(found->arg_name, "answer");
  EXPECT_EQ(found->arg, 42u);
  EXPECT_GT(found->tid, 0u);
}

TEST(TraceRecorderTest, DisarmedRecorderDropsSpansAndInstants) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start(64);
  rec.stop();
  {
    SpanScope span("tobs", "dropped_span");
  }
  rec.instant("tobs", "dropped_instant");
  for (const TraceEvent& event : rec.collect()) {
    EXPECT_STRNE(event.name, "dropped_span");
    EXPECT_STRNE(event.name, "dropped_instant");
  }
}

TEST(TraceRecorderTest, ChromeTraceJsonSchemaAndFileRoundTrip) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start(64);
  rec.set_thread_name("tobs-main");
  {
    SpanScope span("tobs", "schema_span");
  }
  rec.instant("tobs", "schema_instant");
  rec.stop();

  const std::string json = rec.to_json();
  // Chrome trace-event JSON object format, complete ('X'), instant ('i'
  // with scope), and thread-name metadata ('M') events.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("tobs-main"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  const std::string path = ::testing::TempDir() + "tobs_trace.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string read_back;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    read_back.append(buffer, n);
  }
  std::fclose(file);
  EXPECT_EQ(read_back, json);
  EXPECT_FALSE(rec.write_chrome_trace("/nonexistent-dir/trace.json"));
}

TEST(TraceRecorderTest, ConcurrentAppendersEachGetTheirOwnRing) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start(1024);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      rec.set_thread_name("tobs-worker");
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanScope span("tobs_mt", "mt_span");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  rec.stop();

  std::size_t spans = 0;
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& event : rec.collect()) {
    if (std::strcmp(event.cat, "tobs_mt") != 0 || event.ph != 'X') continue;
    ++spans;
    if (std::find(tids.begin(), tids.end(), event.tid) == tids.end()) {
      tids.push_back(event.tid);
    }
  }
  EXPECT_EQ(spans, std::size_t(kThreads) * kSpansPerThread);
  EXPECT_EQ(tids.size(), std::size_t(kThreads));
}

TEST(TraceRecorderTest, ThreadNamedWhileTracingIsOffReservesNoEvents) {
  TraceRecorder& rec = TraceRecorder::instance();
  rec.stop();
  const std::size_t reserved_before = rec.reserved_events();
  std::promise<void> named;
  std::promise<void> started;
  std::thread worker([&] {
    rec.set_thread_name("tobs-idle");
    named.set_value();
    started.get_future().wait();
    SpanScope span("tobs_lazy", "lazy_span");
  });
  named.get_future().wait();
  EXPECT_EQ(rec.reserved_events(), reserved_before);

  // start() reserves the existing ring (the thread's first event finds its
  // storage in place; the ring may be one an exited thread handed back, so
  // it can hold more than 64 already), and the thread's events come back.
  rec.start(64);
  const std::size_t reserved_at_start = rec.reserved_events();
  started.set_value();
  worker.join();
  EXPECT_EQ(rec.reserved_events(), reserved_at_start);
  rec.stop();
  std::size_t spans = 0;
  for (const TraceEvent& event : rec.collect()) {
    if (std::strcmp(event.cat, "tobs_lazy") == 0) ++spans;
  }
  EXPECT_EQ(spans, 1u);
}

TEST(TraceRecorderTest, ExitedThreadsHandTheirRingsBack) {
  TraceRecorder& rec = TraceRecorder::instance();
  constexpr std::size_t kCap = 256;
  const auto cycle_pools = [](int count) {
    for (int i = 0; i < count; ++i) {
      rivertrail::ThreadPool pool(2);  // each worker names itself
    }
  };
  // Every ring is reserved by start(). With rings handed back at thread
  // exit, 50 two-worker pools in turn add at most the two workers' rings,
  // not a hundred.
  rec.start(kCap);
  const std::size_t before = rec.reserved_events();
  rec.stop();
  cycle_pools(50);
  rec.start(kCap);
  const std::size_t bound = before + 2 * kCap;
  EXPECT_LE(rec.reserved_events(), bound);

  // What a thread recorded while tracing survives its exit, with its name,
  // while the ring has room, and the next thread to take its ring records
  // under a tid of its own.
  std::thread([&rec] {
    rec.set_thread_name("tobs-first-holder");
    SpanScope span("tobs_exit", "first_holder");
  }).join();
  std::thread([&rec] {
    rec.set_thread_name("tobs-next-holder");
    SpanScope span("tobs_exit", "next_holder");
  }).join();
  rec.stop();
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("tobs-first-holder"), std::string::npos);
  EXPECT_NE(json.find("tobs-next-holder"), std::string::npos);
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& event : rec.collect()) {
    if (std::strcmp(event.cat, "tobs_exit") == 0) tids.push_back(event.tid);
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
  EXPECT_LE(rec.reserved_events(), bound);
}

// --- acceptance: a service batch populates the whole registry --------------

// Drives fuzz-generated sessions through AnalysisService exactly as
// `fuzz_driver --soak` does (timer sessions through the pipelined frame
// graph) and asserts the snapshot the soak's --metrics-out flag would dump:
// scheduler, interpreter, service, and governor metrics all live and
// plausible, the engine gauges current, and the trace carrying per-worker task spans plus per-frame
// stage spans.
TEST(ObservabilityAcceptance, ServiceBatchPopulatesMetricsAndTrace) {
  obs::reset_all_for_testing();
  TraceRecorder& rec = TraceRecorder::instance();
  rec.start();
  rec.set_thread_name("tobs-acceptance");

  rivertrail::ThreadPool pool(2);
  ServiceOptions options;
  options.max_active = 4;
  options.max_queue = 32;
  Snapshot snap;
  {
    AnalysisService service(pool, options);
    constexpr int kSessions = 48;
    std::deque<ServiceTicket> window;
    for (int i = 0; i < kSessions; ++i) {
      fuzz::GenOptions gen;
      gen.use_timers = i % 4 == 3;
      ServiceRequest request;
      request.tenant = "tobs-tenant-" + std::to_string(i % 4);
      request.memory_estimate = 4u << 20;
      request.session.name = "tobs-seed-" + std::to_string(i);
      request.session.source = fuzz::generate_program(1000 + i, gen);
      request.session.limits.max_memory_bytes = 4u << 20;
      request.session.max_ticks = 2'000'000;
      request.session.has_timers = gen.use_timers;
      request.session.horizon_ms = 200;
      if (gen.use_timers) request.session.frame_pool = &pool;
      window.push_back(service.submit(std::move(request)));
      while (window.size() > 8) {
        window.front().wait();
        window.pop_front();
      }
    }
    while (!window.empty()) {
      window.front().wait();
      window.pop_front();
    }
    service.drain();
    snap = service.metrics_snapshot();
  }
  rec.stop();

  // The service and its governor own their counts, so the snapshot carries
  // them whether or not the probes are compiled in.
  EXPECT_EQ(snap.value("service.completed"), 48u);
  EXPECT_EQ(snap.value("governor.admit"), 48u);

#if JSCERES_OBS
  // Engine probes are compiled in: every layer must have reported.
  // Scheduler: the frame-graph pipeline ran tasks on the pool.
  EXPECT_GT(snap.value("sched.tasks_own") + snap.value("sched.tasks_stolen"),
            0u);
  // Interpreter: inline caches hit far more than they miss.
  EXPECT_GT(snap.value("interp.ic_read_hits"), 0u);
  EXPECT_GT(snap.value("interp.ic_read_hits"),
            snap.value("interp.ic_read_misses"));
  // Supervisor plane.
  EXPECT_EQ(snap.value("supervisor.sessions"), 48u);
  // Frames committed through the pipelined frame graph (12 timer sessions).
  EXPECT_GT(snap.value("frame.committed"), 0u);
  // Engine gauges refreshed by metrics_snapshot(). Every session's program
  // (and with it its shape tree) is gone once drained, so the gauge reads
  // exactly what is still live, not a leftover tree.
  const obs::SnapshotEntry* shapes = snap.find("interp.shape_count");
  ASSERT_NE(shapes, nullptr);
  EXPECT_EQ(std::size_t(shapes->gauge), interp::Shape::live_count());
  // Per-session latency histogram has one sample per session.
  const obs::SnapshotEntry* latency = snap.find("service.session_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, 48u);

  // The trace: per-worker task spans and per-frame stage spans.
  std::size_t task_spans = 0;
  std::size_t session_spans = 0;
  std::size_t kernel_spans = 0;
  std::size_t upload_spans = 0;
  std::size_t commit_spans = 0;
  std::vector<std::uint32_t> task_tids;
  for (const TraceEvent& event : rec.collect()) {
    if (event.ph != 'X') continue;
    if (std::strcmp(event.name, "task") == 0) {
      ++task_spans;
      if (std::find(task_tids.begin(), task_tids.end(), event.tid) ==
          task_tids.end()) {
        task_tids.push_back(event.tid);
      }
    } else if (std::strcmp(event.name, "session") == 0) {
      ++session_spans;
    } else if (std::strcmp(event.name, "frame.kernel") == 0) {
      ++kernel_spans;
    } else if (std::strcmp(event.name, "frame.upload") == 0) {
      ++upload_spans;
    } else if (std::strcmp(event.name, "frame.commit") == 0) {
      ++commit_spans;
    }
  }
  EXPECT_GT(task_spans, 0u);
  EXPECT_GE(task_tids.size(), 2u);  // per-worker: both pool workers ran tasks
  EXPECT_EQ(session_spans, 48u);
  EXPECT_GT(kernel_spans, 0u);
  EXPECT_GT(upload_spans, 0u);
  EXPECT_GT(commit_spans, 0u);
  EXPECT_EQ(kernel_spans, commit_spans);  // every committed frame ran a kernel
#else
  // Probes compiled out: the batch must still run to completion, and the
  // recorder must stay empty.
  EXPECT_EQ(rec.collect().size(), 0u);
#endif
}

// --- registry exhaustion (MUST STAY LAST: interns ~4k dead names) ----------

// Exhausting the per-shard cell space must degrade, not crash: late
// registrations alias the overflow counter, and asking for a gauge or
// histogram under a counter's name (or after exhaustion) returns a
// same-kind sink instead of indexing the wrong deque.
TEST(MetricsRegistryExhaustion, OverflowAliasesAndCrossKindLookupsAreSafe) {
  // A name interned as a counter, then requested as every other kind:
  // writes must land in a dead end, not corrupt the counter.
  Counter::at("tobs.kindclash").add(2);
  Gauge::at("tobs.kindclash").set(99);
  Histogram::at("tobs.kindclash").record(7);
  EXPECT_EQ(snap_value("tobs.kindclash"), 2u);
  EXPECT_EQ(obs::snapshot().find("tobs.kindclash")->kind, MetricKind::Counter);

  // Exhaust the cell space (kMaxCells / kHistogramBuckets+1 histograms).
  for (int i = 0; i < 200; ++i) {
    Histogram::at("tobs.exhaust." + std::to_string(i)).record(1);
  }
  // Past exhaustion every kind still returns a usable metric.
  Counter& late_counter = Counter::at("tobs.late_counter");
  late_counter.add(1);
  Gauge& late_gauge = Gauge::at("tobs.late_gauge");
  late_gauge.set(5);
  Histogram& late_hist = Histogram::at("tobs.late_hist");
  late_hist.record(123);
  // The overflow counter recorded the pressure.
  EXPECT_GT(snap_value("obs.registry_overflow"), 0u);
  // And snapshotting the exhausted registry is still well-formed.
  const std::string json = obs::snapshot().to_json();
  EXPECT_NE(json.find("obs.registry_overflow"), std::string::npos);
}

}  // namespace
}  // namespace jsceres
