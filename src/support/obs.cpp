#include "support/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace jsceres::obs {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
#else
  return 0;
#endif
}

// --- thread leases ---------------------------------------------------------

namespace {

/// Objects lent to threads, one each: a thread takes one on first use and
/// hands it back at exit (see lease()), so a pool holds as many objects as
/// threads were ever live at once, not one per thread that ever ran. Objects
/// are never freed: readers (snapshot(), collect()) walk them at any time,
/// and what an exited thread left in one stays readable after it is gone,
/// as far as the next holder keeps it (a trace ring wraps).
template <typename T>
class LeasePool {
 public:
  T* take() {
    const std::lock_guard lock(mutex_);
    if (free_.empty()) {
      all_.push_back(new T());  // value-initialized
      return all_.back();
    }
    T* item = free_.back();
    free_.pop_back();
    return item;
  }
  void give_back(T* item) {
    const std::lock_guard lock(mutex_);
    free_.push_back(item);
  }
  /// Every object ever made, lent or not.
  [[nodiscard]] std::vector<T*> all() const {
    const std::lock_guard lock(mutex_);
    return all_;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard lock(mutex_);
    return all_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<T*> all_;
  std::vector<T*> free_;
};

/// A thread's hold on one object of a pool; `cache` is the thread's own
/// pointer to it. At thread exit the object goes back and the cache clears.
template <typename T>
struct Lease {
  LeasePool<T>* pool = nullptr;
  T** cache = nullptr;
  ~Lease() {
    if (cache == nullptr || *cache == nullptr) return;
    pool->give_back(*cache);
    *cache = nullptr;
  }
};

/// Lend the calling thread an object of `pool` and cache it in `cache`, a
/// thread_local that outlives the lease (trivially destructible).
template <typename T>
T* lease(LeasePool<T>& pool, T*& cache) {
  thread_local Lease<T> held;  // one per thread and object type
  held.pool = &pool;
  held.cache = &cache;
  cache = pool.take();
  return cache;
}

}  // namespace

// --- registry --------------------------------------------------------------

namespace {

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint32_t cell = 0;    // first shard cell (counters/histograms)
  std::size_t handle = 0;    // index into the per-kind handle deque
};

struct Registry {
  std::mutex mutex;
  std::vector<MetricDef> defs;
  std::unordered_map<std::string, std::size_t> index;  // name -> defs slot
  // Deques: handles hand out stable references for the process lifetime.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::uint32_t next_cell = 0;
  bool overflowed = false;

  LeasePool<detail::Shard> shards;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: process lifetime
  return *r;
}

constexpr char kOverflowCounter[] = "obs.registry_overflow";

// The top (kHistogramBuckets + 1) cells are reserved for the histogram
// dead-end sink handed out on overflow or cross-kind name collision: the
// caller gets a live handle whose records land in cells no real metric
// owns, instead of corrupting another metric (or indexing out of bounds).
constexpr std::uint32_t kUsableCells =
    std::uint32_t(detail::kMaxCells) - (std::uint32_t(kHistogramBuckets) + 1);

}  // namespace

// RegistryAccess is the friend bridge into the private metric constructors.
struct RegistryAccess {
  /// Under registry().mutex. Returns the def slot, registering if new.
  static std::size_t intern_locked(Registry& r, const std::string& name,
                                   MetricKind kind) {
    const auto it = r.index.find(name);
    if (it != r.index.end()) return it->second;

    const std::uint32_t cells_needed =
        kind == MetricKind::Histogram ? std::uint32_t(kHistogramBuckets) + 1
        : kind == MetricKind::Counter ? 1u
                                      : 0u;
    MetricDef def;
    def.name = name;
    def.kind = kind;
    if (cells_needed != 0 && r.next_cell + cells_needed > kUsableCells) {
      // Cell space exhausted (unbounded dynamic names): alias the overflow
      // counter so callers still get a live handle and the condition shows
      // up in snapshots instead of crashing. The caller checks the returned
      // def's kind and falls back to a same-kind sink on mismatch.
      r.overflowed = true;
      return intern_locked(r, kOverflowCounter, MetricKind::Counter);
    }
    def.cell = r.next_cell;
    r.next_cell += cells_needed;
    switch (kind) {
      case MetricKind::Counter:
        def.handle = r.counters.size();
        r.counters.push_back(Counter(def.cell));
        break;
      case MetricKind::Gauge:
        def.handle = r.gauges.size();
        r.gauges.emplace_back();
        break;
      case MetricKind::Histogram:
        def.handle = r.histograms.size();
        r.histograms.push_back(Histogram(def.cell));
        break;
    }
    const std::size_t slot = r.defs.size();
    r.defs.push_back(std::move(def));
    r.index.emplace(r.defs.back().name, slot);
    return slot;
  }

  /// Under registry().mutex.
  static Counter& overflow_counter_locked(Registry& r) {
    const std::size_t slot =
        intern_locked(r, kOverflowCounter, MetricKind::Counter);
    return r.counters[r.defs[slot].handle];
  }

  // The kind check below catches both overflow (intern_locked aliased the
  // overflow counter) and a name interned earlier as a different kind; in
  // either case the overflow counter records the bad registration and the
  // caller gets a safe same-kind sink.
  static Counter& counter(const std::string& name) {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    const std::size_t slot = intern_locked(r, name, MetricKind::Counter);
    if (r.defs[slot].kind != MetricKind::Counter) {
      Counter& overflow = overflow_counter_locked(r);
      overflow.add(1);
      return overflow;
    }
    return r.counters[r.defs[slot].handle];
  }
  static Gauge& gauge(const std::string& name) {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    const std::size_t slot = intern_locked(r, name, MetricKind::Gauge);
    if (r.defs[slot].kind != MetricKind::Gauge) {
      overflow_counter_locked(r).add(1);
      static Gauge sink;  // unsnapshotted dead-end (own atomic, no cells)
      return sink;
    }
    return r.gauges[r.defs[slot].handle];
  }
  static Histogram& histogram(const std::string& name) {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    const std::size_t slot = intern_locked(r, name, MetricKind::Histogram);
    if (r.defs[slot].kind != MetricKind::Histogram) {
      overflow_counter_locked(r).add(1);
      static Histogram sink{kUsableCells};  // records land in reserved cells
      return sink;
    }
    return r.histograms[r.defs[slot].handle];
  }
};

Counter& Counter::at(const char* name) {
  return RegistryAccess::counter(name);
}
Counter& Counter::at(const std::string& name) {
  return RegistryAccess::counter(name);
}
Gauge& Gauge::at(const char* name) { return RegistryAccess::gauge(name); }
Gauge& Gauge::at(const std::string& name) {
  return RegistryAccess::gauge(name);
}
Histogram& Histogram::at(const char* name) {
  return RegistryAccess::histogram(name);
}
Histogram& Histogram::at(const std::string& name) {
  return RegistryAccess::histogram(name);
}

namespace detail {

constinit thread_local Shard* tls_shard = nullptr;

Shard* acquire_shard() { return lease(registry().shards, tls_shard); }

std::size_t shards_allocated() { return registry().shards.size(); }

}  // namespace detail

// --- snapshot --------------------------------------------------------------

Snapshot snapshot() {
  Registry& r = registry();
  // Copy the def table and shard list under their locks, then aggregate
  // lock-free: writers only touch cells, which are atomic.
  std::vector<MetricDef> defs;
  std::vector<const Gauge*> gauges;
  {
    const std::lock_guard lock(r.mutex);
    defs = r.defs;
    gauges.reserve(r.gauges.size());
    for (const Gauge& gauge : r.gauges) gauges.push_back(&gauge);
  }
  const std::vector<detail::Shard*> shards = r.shards.all();

  const auto cell_sum = [&shards](std::uint32_t cell) {
    std::uint64_t total = 0;
    for (const detail::Shard* shard : shards) {
      total += shard->cells[cell].load(std::memory_order_relaxed);
    }
    return total;
  };

  Snapshot out;
  out.entries.reserve(defs.size());
  for (const MetricDef& def : defs) {
    SnapshotEntry entry;
    entry.name = def.name;
    entry.kind = def.kind;
    switch (def.kind) {
      case MetricKind::Counter:
        entry.value = cell_sum(def.cell);
        break;
      case MetricKind::Gauge:
        entry.gauge = gauges[def.handle]->value();
        break;
      case MetricKind::Histogram:
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          entry.hist.buckets[i] = cell_sum(def.cell + std::uint32_t(i));
          entry.hist.count += entry.hist.buckets[i];
        }
        entry.hist.sum = cell_sum(def.cell + std::uint32_t(kHistogramBuckets));
        break;
    }
    out.entries.push_back(std::move(entry));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_all_for_testing() {
  Registry& r = registry();
  for (detail::Shard* shard : r.shards.all()) {
    for (auto& cell : shard->cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  const std::lock_guard lock(r.mutex);
  for (Gauge& gauge : r.gauges) gauge.set(0);
}

const SnapshotEntry* Snapshot::find(const std::string& name) const {
  for (const SnapshotEntry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::uint64_t Snapshot::value(const std::string& name) const {
  const SnapshotEntry* entry = find(name);
  if (entry == nullptr) return 0;
  switch (entry->kind) {
    case MetricKind::Counter:
      return entry->value;
    case MetricKind::Gauge:
      return entry->gauge < 0 ? 0 : std::uint64_t(entry->gauge);
    case MetricKind::Histogram:
      return entry->hist.count;
  }
  return 0;
}

std::string Snapshot::to_text() const {
  std::string out;
  char line[256];
  for (const SnapshotEntry& entry : entries) {
    switch (entry.kind) {
      case MetricKind::Counter:
        std::snprintf(line, sizeof(line), "%-44s %20llu\n",
                      entry.name.c_str(),
                      (unsigned long long)entry.value);
        break;
      case MetricKind::Gauge:
        std::snprintf(line, sizeof(line), "%-44s %20lld  (gauge)\n",
                      entry.name.c_str(), (long long)entry.gauge);
        break;
      case MetricKind::Histogram:
        std::snprintf(line, sizeof(line),
                      "%-44s count=%llu sum=%llu mean=%.1f\n",
                      entry.name.c_str(),
                      (unsigned long long)entry.hist.count,
                      (unsigned long long)entry.hist.sum,
                      entry.hist.mean());
        break;
    }
    out += line;
  }
  return out;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  bool first_counter = true;
  bool first_gauge = true;
  bool first_hist = true;
  char buf[64];
  for (const SnapshotEntry& entry : entries) {
    switch (entry.kind) {
      case MetricKind::Counter:
        if (!first_counter) counters += ',';
        first_counter = false;
        append_json_string(counters, entry.name);
        std::snprintf(buf, sizeof(buf), ":%llu",
                      (unsigned long long)entry.value);
        counters += buf;
        break;
      case MetricKind::Gauge:
        if (!first_gauge) gauges += ',';
        first_gauge = false;
        append_json_string(gauges, entry.name);
        std::snprintf(buf, sizeof(buf), ":%lld", (long long)entry.gauge);
        gauges += buf;
        break;
      case MetricKind::Histogram: {
        if (!first_hist) histograms += ',';
        first_hist = false;
        append_json_string(histograms, entry.name);
        std::snprintf(buf, sizeof(buf), ":{\"count\":%llu,\"sum\":%llu,",
                      (unsigned long long)entry.hist.count,
                      (unsigned long long)entry.hist.sum);
        histograms += buf;
        histograms += "\"buckets\":[";
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          if (i != 0) histograms += ',';
          std::snprintf(buf, sizeof(buf), "%llu",
                        (unsigned long long)entry.hist.buckets[i]);
          histograms += buf;
        }
        histograms += "]}";
        break;
      }
    }
  }
  counters += '}';
  gauges += '}';
  histograms += '}';
  std::string out = "{\"counters\":";
  out += counters;
  out += ",\"gauges\":";
  out += gauges;
  out += ",\"histograms\":";
  out += histograms;
  out += '}';
  return out;
}

// --- trace recorder --------------------------------------------------------

struct TraceRecorder::Ring {
  std::mutex mutex;
  std::vector<TraceEvent> events;  // ring storage, reserved while tracing
  std::size_t head = 0;            // next write slot
  bool wrapped = false;
  std::uint32_t tid = 0;  // the current holder's
  /// (tid, name) of every holder whose events the ring may still hold.
  std::vector<std::pair<std::uint32_t, std::string>> names;
};

namespace {

/// Rings are lent to threads like metric shards: an exited thread's ring,
/// events and all, goes to the next thread that records or names itself,
/// whose events overwrite the oldest once the ring is full.
LeasePool<TraceRecorder::Ring>& ring_pool() {
  static auto* pool = new LeasePool<TraceRecorder::Ring>();
  return *pool;
}

thread_local TraceRecorder::Ring* tls_ring = nullptr;

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* rec = new TraceRecorder();
  return *rec;
}

TraceRecorder::Ring& TraceRecorder::ring() {
  Ring* r = tls_ring;
  if (r == nullptr) {
    // A reused ring keeps the events its earlier holders recorded, each
    // under its own tid, until start() or until they are overwritten; their
    // names stay until start().
    r = lease(ring_pool(), tls_ring);
    const std::lock_guard lock(r->mutex);
    r->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    if (r->events.empty()) r->names.clear();
  }
  return *r;
}

void TraceRecorder::start(std::size_t events_per_thread) {
  const std::size_t cap = std::max<std::size_t>(events_per_thread, 16);
  capacity_.store(cap, std::memory_order_relaxed);
  for (Ring* r : ring_pool().all()) {
    const std::lock_guard ring_lock(r->mutex);
    r->events.clear();
    r->events.reserve(cap);
    r->head = 0;
    r->wrapped = false;
    std::erase_if(r->names, [r](const auto& name) { return name.first != r->tid; });
  }
  epoch_ns_.store(mono_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::stop() { enabled_.store(false, std::memory_order_release); }

void TraceRecorder::append(TraceEvent event) {
  if (!enabled()) return;
  Ring& r = ring();
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  const std::lock_guard lock(r.mutex);
  event.tid = r.tid;
  // A ring gets its storage on its first event while tracing (a thread
  // that only names itself holds none) or from start().
  if (r.events.capacity() < cap) r.events.reserve(cap);
  if (r.events.size() < cap) {
    r.events.push_back(event);
    r.head = r.events.size() % cap;
  } else {
    r.events[r.head] = event;
    r.head = (r.head + 1) % cap;
    r.wrapped = true;
  }
}

void TraceRecorder::instant(const char* cat, const char* name,
                            const char* arg_name, std::uint64_t arg) {
  if (!enabled()) return;
  TraceEvent event;
  event.cat = cat;
  event.name = name;
  event.arg_name = arg_name;
  event.arg = arg;
  event.ph = 'i';
  event.ts_ns = since_start_ns();
  event.tts_ns = thread_cpu_ns();
  append(event);
}

void TraceRecorder::set_thread_name(std::string name) {
  Ring& r = ring();
  const std::lock_guard lock(r.mutex);
  if (!r.names.empty() && r.names.back().first == r.tid) {
    r.names.back().second = std::move(name);
  } else {
    r.names.emplace_back(r.tid, std::move(name));
  }
}

std::size_t TraceRecorder::reserved_events() const {
  std::size_t total = 0;
  for (Ring* r : ring_pool().all()) {
    const std::lock_guard ring_lock(r->mutex);
    total += r->events.capacity();
  }
  return total;
}

std::vector<TraceEvent> TraceRecorder::collect() const {
  std::vector<TraceEvent> out;
  for (Ring* r : ring_pool().all()) {
    const std::lock_guard lock(r->mutex);
    if (r->wrapped) {
      // Oldest-first: head..end, then 0..head.
      out.insert(out.end(), r->events.begin() + std::ptrdiff_t(r->head),
                 r->events.end());
      out.insert(out.end(), r->events.begin(),
                 r->events.begin() + std::ptrdiff_t(r->head));
    } else {
      out.insert(out.end(), r->events.begin(), r->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::string TraceRecorder::to_json() const {
  // Thread-name metadata first, then the events.
  std::vector<std::pair<std::uint32_t, std::string>> names;
  for (Ring* r : ring_pool().all()) {
    const std::lock_guard ring_lock(r->mutex);
    names.insert(names.end(), r->names.begin(), r->names.end());
  }
  const std::vector<TraceEvent> events = collect();

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& [tid, name] : names) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", tid);
    out += buf;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(out, name);
    out += "}}";
  }
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"";
    out += event.ph;
    out += "\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u,\"ts\":%.3f", event.tid,
                  double(event.ts_ns) / 1000.0);
    out += buf;
    if (event.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f,\"tts\":%.3f,\"tdur\":%.3f",
                    double(event.dur_ns) / 1000.0,
                    double(event.tts_ns) / 1000.0,
                    double(event.tdur_ns) / 1000.0);
      out += buf;
    }
    if (event.ph == 'i') out += ",\"s\":\"t\"";
    out += ",\"cat\":";
    append_json_string(out, event.cat);
    out += ",\"name\":";
    append_json_string(out, event.name);
    if (event.arg_name != nullptr) {
      out += ",\"args\":{";
      append_json_string(out, event.arg_name);
      std::snprintf(buf, sizeof(buf), ":%llu",
                    (unsigned long long)event.arg);
      out += buf;
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void SpanScope::close() {
  TraceRecorder& rec = TraceRecorder::instance();
  if (!rec.enabled()) return;  // stopped mid-span: drop it
  event_.dur_ns = rec.since_start_ns() - event_.ts_ns;
  event_.tdur_ns = thread_cpu_ns() - event_.tts_ns;
  event_.ph = 'X';
  rec.append(event_);
}

}  // namespace jsceres::obs
