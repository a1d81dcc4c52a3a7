#pragma once

// Engine-wide observability: a lock-free metrics registry plus a Chrome
// trace-event span recorder, threaded through every layer as cheap probes.
//
// Metrics. Counters and histograms write to per-thread shards (one relaxed
// fetch_add on a thread-local cell — no sharing, no locks on the hot path);
// gauges are single process-wide atomics (low-frequency writers). Metrics
// are interned by name on first touch (registration is the cold path, under
// a mutex) and live for the process; snapshot() aggregates every shard into
// a point-in-time view dumpable as aligned text or machine JSON. Histograms
// are fixed log2 buckets (bucket i counts values with bit_width == i,
// clamped), so aggregation is a straight sum and recording is a bit_width.
//
// Tracing. TraceRecorder::start() arms per-thread ring buffers; SpanScope
// (via JSCERES_OBS_SPAN) records complete 'X' events with wall ("ts"/"dur")
// and thread-CPU ("tts"/"tdur") times. write_chrome_trace() emits the
// Chrome trace-event JSON that chrome://tracing and ui.perfetto.dev open
// directly. Rings wrap (newest wins) so a soak cannot grow without bound;
// appends take a per-ring mutex — uncontended, and spans are coarse enough
// (tasks, stages, frames) that this is noise while staying TSan-clean and
// collectable at any instant.
//
// Zero-cost when disabled: build with
// -DJSCERES_OBS=0 and every probe macro expands to ((void)0) — verified by
// bench/ablation_instrumentation_overhead.cpp. The obs classes themselves
// stay compiled either way (direct API calls are not probes), so tests and
// tools that consume snapshots work in both configurations. The default
// keeps probes compiled in: a disarmed probe is one static-guard check plus
// a thread-local relaxed fetch_add (counters) or one relaxed load (spans
// with the recorder stopped).
//
// Probe catalog: see src/support/README.md (metrics-name reference table).

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef JSCERES_OBS
#define JSCERES_OBS 1
#endif

namespace jsceres::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Log2 histogram buckets: bucket i counts recorded values v with
/// bit_width(v) == i (bucket 0: v == 0), clamped to the last bucket.
constexpr std::size_t kHistogramBuckets = 32;

namespace detail {

/// Cells per thread shard. A counter owns 1 cell, a histogram owns
/// kHistogramBuckets + 1 (buckets + running sum). When the registry runs
/// out, registration aliases the reserved overflow counter instead of
/// failing — dynamic names (per-tenant histograms) cannot crash the engine.
constexpr std::size_t kMaxCells = 4096;

struct Shard {
  std::atomic<std::uint64_t> cells[kMaxCells];
};

/// This thread's shard (cold, once per thread): a shard an exited thread
/// returned, or a newly registered one. Shards are never freed and never
/// zeroed on reuse — aggregation sums every shard, so counts from exited
/// threads stay in the totals — and a thread hands its shard back at exit.
Shard* acquire_shard();

/// Shards ever allocated (the registry's size, reused ones counted once).
std::size_t shards_allocated();

// constinit is load-bearing: without it, every other TU must assume the
// extern thread_local might need dynamic initialization and route each
// access through a TLS wrapper function call — which costs more than the
// entire rest of the probe (measured ~90ns/probe vs ~2ns).
extern constinit thread_local Shard* tls_shard;

inline Shard& shard() {
  Shard* s = tls_shard;
  if (s == nullptr) s = acquire_shard();
  return *s;
}

}  // namespace detail

/// Monotonically increasing event count. at() interns by name (cold path);
/// the returned reference is stable for the process lifetime.
class Counter {
 public:
  static Counter& at(const char* name);
  static Counter& at(const std::string& name);

  void add(std::uint64_t n = 1) {
    detail::shard().cells[cell_].fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend struct RegistryAccess;
  explicit Counter(std::uint32_t cell) : cell_(cell) {}
  std::uint32_t cell_;
};

/// Point-in-time signed level (queue depth, live bytes, pressure percent).
/// One process-wide atomic: gauges are written at bounded frequency.
class Gauge {
 public:
  Gauge() = default;
  static Gauge& at(const char* name);
  static Gauge& at(const std::string& name);

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log2-bucket distribution (latencies in ns/us, byte sizes).
class Histogram {
 public:
  static Histogram& at(const char* name);
  static Histogram& at(const std::string& name);

  void record(std::uint64_t value) {
    const auto bucket = std::min<unsigned>(unsigned(std::bit_width(value)),
                                           kHistogramBuckets - 1);
    auto& cells = detail::shard().cells;
    cells[cell_ + bucket].fetch_add(1, std::memory_order_relaxed);
    cells[cell_ + kHistogramBuckets].fetch_add(value,
                                               std::memory_order_relaxed);
  }

 private:
  friend struct RegistryAccess;
  explicit Histogram(std::uint32_t cell) : cell_(cell) {}
  std::uint32_t cell_;
};

struct HistogramData {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : double(sum) / double(count);
  }
};

struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;   // counters
  std::int64_t gauge = 0;    // gauges
  HistogramData hist;        // histograms
};

/// Point-in-time aggregation of every registered metric over every shard.
/// Taken while writers run: each cell is read atomically, the snapshot as a
/// whole is a consistent-enough cut for monitoring (no torn cells).
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  [[nodiscard]] const SnapshotEntry* find(const std::string& name) const;
  /// Counter value / gauge value / histogram count for `name`; 0 if absent.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] Snapshot snapshot();

/// Zero every counter/histogram cell and gauge (tests and benches that
/// measure deltas). Registrations persist; concurrent writers may land
/// adds across the reset — callers quiesce first when exactness matters.
void reset_all_for_testing();

/// Thread-CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID); 0 when
/// the platform has no thread clock.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// Monotonic wall clock (steady_clock), ns.
[[nodiscard]] std::int64_t mono_ns();

// --- trace recorder --------------------------------------------------------

struct TraceEvent {
  const char* name = "";      // string literal (events store the pointer)
  const char* cat = "";       // string literal
  std::int64_t ts_ns = 0;     // wall, relative to recorder start
  std::int64_t dur_ns = 0;    // 'X' events
  std::int64_t tts_ns = 0;    // thread-CPU at begin
  std::int64_t tdur_ns = 0;   // thread-CPU duration
  std::uint64_t arg = 0;
  const char* arg_name = nullptr;  // null: no args object
  std::uint32_t tid = 0;
  char ph = 'X';
};

/// Process-wide span recorder with per-thread ring buffers. start() arms it
/// (and zeroes any previous recording); stop() disarms; collect() merges
/// every ring into one ts-sorted vector at any time, armed or not. A thread
/// leases a ring on its first append or set_thread_name() and hands it back
/// at exit, like metric shards, so there are as many rings as threads were
/// ever live at once. Its next holder appends after what the exited thread
/// recorded, under a fresh tid, in the same wrapping storage: a ring keeps
/// the newest `events_per_thread` events of all its holders together, so an
/// exited thread's events (with its tid and name) stay collectable until the
/// next start() or until later holders have filled the ring past them.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Arm. `events_per_thread` sizes each ring (wraps, newest wins): existing
  /// rings reserve it here, a thread's new ring on its first event. A ring
  /// reserves nothing while tracing is off. Resets the time origin.
  void start(std::size_t events_per_thread = std::size_t(1) << 14);
  void stop();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a complete event (ts/dur prefilled by the caller; tid filled
  /// here). No-op when disarmed.
  void append(TraceEvent event);
  /// Record an instant ('i') event at now.
  void instant(const char* cat, const char* name,
               const char* arg_name = nullptr, std::uint64_t arg = 0);
  /// Label the calling thread in trace output ("worker-3", "main").
  void set_thread_name(std::string name);

  /// ns since start() (the trace time origin).
  [[nodiscard]] std::int64_t since_start_ns() const {
    return mono_ns() - epoch_ns_.load(std::memory_order_relaxed);
  }

  /// Event slots reserved across all rings.
  [[nodiscard]] std::size_t reserved_events() const;
  /// Merge all rings, oldest-first per ring, sorted by ts.
  [[nodiscard]] std::vector<TraceEvent> collect() const;
  /// Chrome trace-event JSON ({"traceEvents":[...]}; ts/dur in us).
  [[nodiscard]] std::string to_json() const;
  /// to_json() to a file; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  struct Ring;  // public: the TU-local ring table holds Ring pointers

 private:
  TraceRecorder() = default;
  Ring& ring();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> epoch_ns_{0};
  std::atomic<std::uint32_t> next_tid_{1};
  std::atomic<std::size_t> capacity_{std::size_t(1) << 14};
};

/// RAII complete-span ('X') probe. Cheap when the recorder is disarmed: one
/// relaxed load in the constructor, nothing in the destructor.
class SpanScope {
 public:
  SpanScope(const char* cat, const char* name) { open(cat, name, nullptr, 0); }
  SpanScope(const char* cat, const char* name, const char* arg_name,
            std::uint64_t arg) {
    open(cat, name, arg_name, arg);
  }
  ~SpanScope() {
    if (armed_) close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void open(const char* cat, const char* name, const char* arg_name,
            std::uint64_t arg) {
    TraceRecorder& rec = TraceRecorder::instance();
    if (!rec.enabled()) {
      armed_ = false;
      return;
    }
    armed_ = true;
    event_.cat = cat;
    event_.name = name;
    event_.arg_name = arg_name;
    event_.arg = arg;
    event_.ts_ns = rec.since_start_ns();
    event_.tts_ns = thread_cpu_ns();
  }
  void close();

  TraceEvent event_;
  bool armed_ = false;
};

}  // namespace jsceres::obs

// --- probe macros ----------------------------------------------------------
//
// Every engine probe goes through these; -DJSCERES_OBS=0 compiles them all
// to nothing. The function-local static pins the interned metric so steady
// state is guard-check + shard fetch_add, with no name lookup.

#if JSCERES_OBS

#define JSCERES_OBS_CONCAT_INNER(a, b) a##b
#define JSCERES_OBS_CONCAT(a, b) JSCERES_OBS_CONCAT_INNER(a, b)

#define JSCERES_OBS_COUNT(name, n)                                         \
  do {                                                                     \
    static ::jsceres::obs::Counter& jsceres_obs_counter =                  \
        ::jsceres::obs::Counter::at(name);                                 \
    jsceres_obs_counter.add(std::uint64_t(n));                             \
  } while (0)

#define JSCERES_OBS_GAUGE_SET(name, v)                                     \
  do {                                                                     \
    static ::jsceres::obs::Gauge& jsceres_obs_gauge =                      \
        ::jsceres::obs::Gauge::at(name);                                   \
    jsceres_obs_gauge.set(std::int64_t(v));                                \
  } while (0)

#define JSCERES_OBS_GAUGE_ADD(name, d)                                     \
  do {                                                                     \
    static ::jsceres::obs::Gauge& jsceres_obs_gauge =                      \
        ::jsceres::obs::Gauge::at(name);                                   \
    jsceres_obs_gauge.add(std::int64_t(d));                                \
  } while (0)

#define JSCERES_OBS_HIST(name, v)                                          \
  do {                                                                     \
    static ::jsceres::obs::Histogram& jsceres_obs_hist =                   \
        ::jsceres::obs::Histogram::at(name);                               \
    jsceres_obs_hist.record(std::uint64_t(v));                             \
  } while (0)

#define JSCERES_OBS_SPAN(cat, name)                                        \
  ::jsceres::obs::SpanScope JSCERES_OBS_CONCAT(jsceres_obs_span_,          \
                                               __LINE__)(cat, name)

#define JSCERES_OBS_SPAN_ARG(cat, name, argname, argval)                   \
  ::jsceres::obs::SpanScope JSCERES_OBS_CONCAT(jsceres_obs_span_,          \
                                               __LINE__)(                  \
      cat, name, argname, std::uint64_t(argval))

#define JSCERES_OBS_INSTANT(cat, name)                                     \
  ::jsceres::obs::TraceRecorder::instance().instant(cat, name)

#define JSCERES_OBS_SET_THREAD_NAME(name_expr)                             \
  ::jsceres::obs::TraceRecorder::instance().set_thread_name(name_expr)

#else  // !JSCERES_OBS

#define JSCERES_OBS_COUNT(name, n) ((void)0)
#define JSCERES_OBS_GAUGE_SET(name, v) ((void)0)
#define JSCERES_OBS_GAUGE_ADD(name, d) ((void)0)
#define JSCERES_OBS_HIST(name, v) ((void)0)
#define JSCERES_OBS_SPAN(cat, name) ((void)0)
#define JSCERES_OBS_SPAN_ARG(cat, name, argname, argval) ((void)0)
#define JSCERES_OBS_INSTANT(cat, name) ((void)0)
#define JSCERES_OBS_SET_THREAD_NAME(name_expr) ((void)0)

#endif  // JSCERES_OBS
