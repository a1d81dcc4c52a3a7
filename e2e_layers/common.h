#pragma once

// Shared pieces of the e2e_layers benchmark: run options, the result that
// main() prints, timing and resource helpers, host facts, and the
// benchmark-side span recorder that the traced run writes out as a Chrome
// trace. Nothing here reaches into the engine: every layer is timed from
// outside, around a call to its public entry point.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point after_seconds(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (inside the checkout).
  std::string out_dir = ".bench_build/e2e_layers";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count requests;
/// `metrics` holds exactly the end-to-end set (untraced) or the per-layer
/// set (traced), in print order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Process user + system CPU seconds so far.
double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
double rss_peak_mb();
/// Current resident set size of the process, in MiB.
double rss_now_mb();

/// Host facts stamped on every result: nproc, cgroup CPU quota, load
/// average at start, build type, JSCERES_OBS. One JSON object.
std::string host_facts_json();

/// Host-speed reference. The engine's speed on a shared host swings by up to
/// 1.5x within seconds with what other tenants do to the core's caches; a
/// chain of dependent loads through a fixed 128 KiB cyclic permutation
/// (resident in L2, warmed before every timing) slows with it, while it
/// shares no code with the engine. factor() times one chain and returns
/// kNominalNsPerLoad over the measured time per load: above 1 on a host
/// running faster than nominal, below 1 on a slower one. Multiplying a
/// CPU-bound time by the factor of a chain run next to it gives that time
/// at nominal host speed. One probe per thread.
class HostProbe {
 public:
  static constexpr double kNominalNsPerLoad = 5.0;
  static constexpr int kLoads = 50000;  // about 0.2 ms per factor()

  HostProbe();
  double factor();
  /// Wall time spent in factor() so far, in seconds.
  double spent_s() const { return spent_s_; }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  double spent_s_ = 0;
};

/// The timed phase of an untraced run: the latency of every correct
/// completion with the host-speed factor read before it, the phase's wall
/// time and the process CPU time it used.
struct TimedPhase {
  double setup_s = 0;
  /// Peak RSS at the end of set-up. Taken before the timed phase because
  /// the session count of a fixed-length phase scales with speed, and any
  /// per-session growth would then read as a memory cost of being fast;
  /// the traced run reports that growth per session instead.
  double rss_peak_mb = 0;
  int clients = 1;
  double wall_s = 0;
  /// Process CPU over the phase, less the host probes' own time.
  double cpu_s = 0;
  std::vector<double> latencies_ms;
  std::vector<double> factors;  // HostProbe::factor() for each latency
};

/// One closed-loop client: issue request number `k` of client `client`,
/// wait for the answer, and return whether it was correct.
using ClientFn = std::function<bool(int client, std::uint64_t k)>;

/// Run `clients` closed-loop client threads for `seconds`, each timing
/// every call of `fn` and reading its HostProbe before every
/// `probe_every`-th call, outside the timing. Adds every call to
/// result.attempted and every wrong answer to result.failed.
TimedPhase run_closed_loop(int clients, double seconds, int probe_every,
                           const ClientFn& fn, Result& result);

/// Fill `result` with the end-to-end metrics of `phase`, plus the sample
/// counts, the latency quantiles, the figures as measured and the fail
/// ratio as notes. `cpu_ms_per_req` is always at nominal host speed (the
/// phase's median factor). When `engine_bound` (every request is engine
/// work on the client's own thread, as on the study workloads) so are the
/// latencies, each by its own factor, and `throughput_rps` is the clients
/// over the mean adjusted latency; otherwise (a round trip that waits on
/// the server's poll) latencies and throughput are as measured.
void report_end_to_end(const TimedPhase& phase, bool engine_bound, Result& result);

/// One benchmark-side span: a call into one layer, tagged with the request
/// it served. Spans of one request nest by time containment under its
/// "request" span, which is how trace viewers draw them.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// In-memory span recorder for the single-threaded traced replay. Spans are
/// appended when they close and written out once, at the end.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

  /// Time `fn()` as one span; returns its duration in milliseconds.
  template <typename Fn>
  double time(const char* name, const char* layer, std::uint64_t request,
              Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    push(name, layer, request, t0, t1);
    return ms_between(t0, t1);
  }

  void push(const char* name, const char* layer, std::uint64_t request,
            Clock::time_point t0, Clock::time_point t1);

  /// Write the spans to `path` as Chrome trace-event JSON
  /// (ui.perfetto.dev, chrome://tracing): one 'X' event per span, args carry
  /// the request id, and the host facts sit under "otherData". Notes the
  /// span count and the path, or the failure, in `result`.
  void write_chrome_trace(const std::string& path, Result& result) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-request ladder consistency. A layer's self time is the difference
/// between two adjacent rungs, each timed in its own call, so the self
/// times of one request always telescope to its root rung; what can go
/// wrong is a deeper rung measuring slower than the one above it. With each
/// negative self time clamped to 0, a request's gap is how far the clamped
/// sum overshoots the root, as a share of the root. The noise allowed for
/// that is measured in the same run: each request's root rung is also timed
/// once untraced, and the two timings' relative difference is the noise of
/// repeating one call.
class LadderCheck {
 public:
  /// `selfs` are one request's rung differences, `root_ms` its outermost
  /// rung (the round trip, or the supervised session) and `untraced_ms` the
  /// same call made once more without spans.
  void add(const std::vector<double>& selfs, double root_ms, double untraced_ms);

  /// Passes when the median request's gap is within the tracing overhead
  /// (|overhead_ratio - 1|) plus twice the median repeat noise: the thin
  /// layers whose self times go negative sit between two rung differences.
  /// Appends the verdict to `result` (a failure makes the result
  /// incorrect) and returns the share of requests within that tolerance.
  double verify(double overhead_ratio, Result& result) const;

 private:
  std::vector<double> gaps_;
  std::vector<double> repeat_noise_;
};

/// Short names of the 12 Table-1 apps, in workloads::all_workloads() order;
/// they name the workloads.<app>.session_ms metrics.
inline constexpr const char* kAppNames[] = {
    "haar", "cloth",    "caman",     "fluid", "harmony",    "ace",
    "myscript", "raytrace", "normalmap", "sigma", "processing", "d3"};

/// Fill `result` with every per-layer metric in the canonical order and
/// units. A metric absent from `values` reads 0: its layer is not on this
/// workload's path (the study workloads bypass net, service and reclaim).
void report_layers(const std::map<std::string, double>& values, Result& result);

/// The three workloads (README.md says why each exists).
Result run_wire_small(const Options& options);
Result run_study(const Options& options, int mode);

}  // namespace e2e
