#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "support/obs.h"

namespace e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

/// A "Vm...: <n> kB" field of /proc/self/status, in MiB. The kernel keeps
/// these per address space, so unlike getrusage's ru_maxrss they do not
/// inherit the parent's peak across fork and exec.
double status_field_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::atof(line.c_str() + len + 1) / 1024.0;
    }
  }
  return 0;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// CPU quota in cores from cgroup v2 (cpu.max) or v1 (cfs quota/period);
/// "none" when unlimited, "unreadable" when neither file can be read.
std::string cgroup_cpu_quota() {
  const std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) {
    std::istringstream fields(v2);
    std::string quota;
    double period = 0;
    fields >> quota >> period;
    if (quota == "max") return "none";
    if (period > 0) return std::to_string(std::atof(quota.c_str()) / period);
  }
  const std::string quota = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (!quota.empty() && !period.empty()) {
    const double q = std::atof(quota.c_str());
    const double p = std::atof(period.c_str());
    if (q < 0) return "none";
    if (p > 0) return std::to_string(q / p);
  }
  return "unreadable";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double rss_peak_mb() { return status_field_mb("VmHWM"); }

double rss_now_mb() { return status_field_mb("VmRSS"); }

std::string host_facts_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  double load[3] = {-1, -1, -1};
  getloadavg(load, 3);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"affinity_cpus\": %d, "
                "\"cgroup_cpu_quota\": \"%s\", \"loadavg_1m\": %.2f, "
                "\"build_type\": \"%s\", \"jsceres_obs\": %d}",
                sysconf(_SC_NPROCESSORS_ONLN), affinity,
                json_escape(cgroup_cpu_quota()).c_str(), load[0],
                E2E_BUILD_TYPE, JSCERES_OBS);
  return buf;
}

HostProbe::HostProbe() : next_((128u << 10) / sizeof(std::uint32_t)) {
  // Sattolo's shuffle: one cycle through every slot, in a fixed order.
  std::iota(next_.begin(), next_.end(), 0u);
  std::mt19937 rng(12345);
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
  }
}

double HostProbe::factor() {
  const auto t0 = Clock::now();
  // Touch every cache line first, so the chain is timed from a warm L2
  // whatever the previous session left there. The sum picks the chain's
  // start, which keeps the warm-up from being optimised away.
  std::uint32_t warm = 0;
  for (std::size_t i = 0; i < next_.size(); i += 64 / sizeof(std::uint32_t)) {
    warm += next_[i];
  }
  std::uint32_t at = (at_ + warm) % std::uint32_t(next_.size());
  const auto t1 = Clock::now();
  for (int i = 0; i < kLoads; ++i) at = next_[at];
  const auto t2 = Clock::now();
  at_ = at;
  spent_s_ += ms_between(t0, t2) / 1e3;
  return kNominalNsPerLoad / (ms_between(t1, t2) * 1e6 / kLoads);
}

TimedPhase run_closed_loop(int clients, double seconds, int probe_every,
                           const ClientFn& fn, Result& result) {
  const auto n_clients = static_cast<std::size_t>(clients);
  std::vector<std::vector<double>> latencies(n_clients);
  std::vector<std::vector<double>> factors(n_clients);
  std::vector<std::uint64_t> attempted(n_clients, 0);
  std::vector<std::uint64_t> wrong(n_clients, 0);
  std::vector<double> probe_s(n_clients, 0);
  TimedPhase phase;
  phase.clients = clients;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      HostProbe probe;
      double factor = 1;
      latencies[c].reserve(1u << 16);
      factors[c].reserve(1u << 16);
      for (std::uint64_t k = 0;; ++k) {
        if (k % std::uint64_t(probe_every) == 0) factor = probe.factor();
        const auto t0 = Clock::now();
        if (t0 >= deadline) break;
        const bool ok = fn(int(c), k);
        ++attempted[c];
        if (ok) {
          latencies[c].push_back(ms_between(t0, Clock::now()));
          factors[c].push_back(factor);
        } else {
          ++wrong[c];
        }
      }
      probe_s[c] = probe.spent_s();
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = ms_between(start, Clock::now()) / 1e3;
  phase.cpu_s = process_cpu_seconds() - cpu0;
  for (std::size_t c = 0; c < n_clients; ++c) {
    result.attempted += attempted[c];
    result.failed += wrong[c];
    phase.cpu_s -= probe_s[c];
    phase.latencies_ms.insert(phase.latencies_ms.end(), latencies[c].begin(),
                              latencies[c].end());
    phase.factors.insert(phase.factors.end(), factors[c].begin(), factors[c].end());
  }
  return phase;
}

void report_end_to_end(const TimedPhase& phase, bool engine_bound, Result& result) {
  const std::vector<double>& raw = phase.latencies_ms;
  const double completed = double(std::max<std::size_t>(raw.size(), 1));
  const double cpu_ms = phase.cpu_s * 1e3 / completed;
  const double factor = quantile(phase.factors, 0.5);
  std::vector<double> lat = raw;
  double throughput = double(raw.size()) / phase.wall_s;
  if (engine_bound) {
    double sum_ms = 0;
    for (std::size_t i = 0; i < lat.size(); ++i) {
      lat[i] *= phase.factors[i];
      sum_ms += lat[i];
    }
    throughput = sum_ms > 0 ? double(phase.clients) * completed * 1e3 / sum_ms : 0;
  }
  result.add("setup_s", phase.setup_s, "s");
  result.add("throughput_rps", throughput, "1/s");
  result.add("lat_p50_ms", quantile(lat, 0.50), "ms");
  result.add("lat_p90_ms", quantile(lat, 0.90), "ms");
  result.add("cpu_ms_per_req", cpu_ms * factor, "ms");
  result.add("rss_peak_mb", phase.rss_peak_mb, "MiB");

  char line[320];
  std::snprintf(line, sizeof(line),
                "samples: %zu latencies in %.2f s (%zu beyond p90, %zu beyond p99)",
                raw.size(), phase.wall_s,
                raw.size() - std::size_t(std::ceil(0.90 * double(raw.size()))),
                raw.size() - std::size_t(std::ceil(0.99 * double(raw.size()))));
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line), "latency ms%s: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f",
                engine_bound ? " at nominal host speed" : "", quantile(lat, 0.50),
                quantile(lat, 0.90), quantile(lat, 0.99), quantile(lat, 1.0));
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host speed factor per request: median %.3f, p10 %.3f, p90 %.3f",
                factor, quantile(phase.factors, 0.1), quantile(phase.factors, 0.9));
  result.notes.push_back(line);
  if (engine_bound) {
    std::snprintf(line, sizeof(line),
                  "as measured: %.3f completions/s, latency ms p50 %.3f  p90 %.3f  "
                  "p99 %.3f, cpu %.4f ms/req",
                  double(raw.size()) / phase.wall_s, quantile(raw, 0.50),
                  quantile(raw, 0.90), quantile(raw, 0.99), cpu_ms);
  } else {
    std::snprintf(line, sizeof(line), "as measured: cpu %.4f ms/req", cpu_ms);
  }
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line), "fail_ratio: %.6f (%llu of %llu)",
                result.attempted == 0
                    ? 0.0
                    : double(result.failed) / double(result.attempted),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  result.notes.push_back(line);
}

void SpanRecorder::push(const char* name, const char* layer,
                        std::uint64_t request, Clock::time_point t0,
                        Clock::time_point t1) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.request = request;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_).count();
  span.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  spans_.push_back(span);
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      Result& result) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    result.notes.push_back("chrome trace: could not write " + path);
    return;
  }
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    "\"traceEvents\": [\n",
               host_facts_json().c_str());
  std::fprintf(out, "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                    "\"tid\": 1, \"args\": {\"name\": \"ladder replay\"}}");
  for (const Span& span : spans_) {
    std::fprintf(out,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"request\": %llu}}",
                 span.name, span.layer, double(span.start_ns) / 1e3,
                 double(span.dur_ns) / 1e3,
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  result.notes.push_back(ok ? "chrome trace: " + std::to_string(spans_.size()) +
                                  " spans in " + path
                            : "chrome trace: could not write " + path);
}

void report_layers(const std::map<std::string, double>& values,
                   Result& result) {
  std::vector<std::pair<std::string, const char*>> order = {
      {"net.roundtrip_ms", "ms"},
      {"net.self_ms", "ms"},
      {"net.codec_us", "us"},
      {"net.bytes_per_req", "bytes"},
      {"service.self_ms", "ms"},
      {"service.shed_ratio", "ratio"},
      {"service.queue_high_water", "count"},
      {"supervisor.self_ms", "ms"},
      {"supervisor.attempts_per_session", "count"},
      {"supervisor.degraded_ratio", "ratio"},
      {"reclaim.pass_ms", "ms"},
      {"reclaim.shared_mb", "MiB"},
      {"reclaim.shared_growth_mb", "MiB"},
      {"reclaim.rss_growth_kb_per_session", "KiB"},
      {"js.parse_ms", "ms"},
      {"js.parse_share", "ratio"},
      {"interp.run_ms", "ms"},
      {"interp.ticks_per_req", "count"},
      {"interp.ic_hit_ratio", "ratio"},
      {"ceres.mode3_overhead_ratio", "ratio"},
      {"ceres.mode1_overhead_ratio", "ratio"},
      {"dom.event_loop_ms", "ms"},
      {"dom.frames_per_req", "count"},
      {"dom.frame_stage_ms", "ms"},
      {"workloads.self_ms", "ms"},
  };
  for (const char* app : kAppNames) {
    order.emplace_back(std::string("workloads.") + app + ".session_ms", "ms");
  }
  order.emplace_back("trace.overhead_ratio", "ratio");
  order.emplace_back("trace.ladder_within_ratio", "ratio");
  for (const auto& [name, unit] : order) {
    const auto it = values.find(name);
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void LadderCheck::add(const std::vector<double>& selfs, double root_ms,
                      double untraced_ms) {
  double clamped = 0;
  for (const double self : selfs) clamped += std::max(self, 0.0);
  gaps_.push_back(root_ms > 0 ? clamped / root_ms - 1.0 : 1.0);
  repeat_noise_.push_back(untraced_ms > 0 ? std::abs(root_ms / untraced_ms - 1.0) : 1.0);
}

double LadderCheck::verify(double overhead_ratio, Result& result) const {
  const double noise = quantile(repeat_noise_, 0.5);
  const double tolerance = std::abs(overhead_ratio - 1.0) + 2 * noise;
  const double gap = quantile(gaps_, 0.5);
  const auto within = std::count_if(gaps_.begin(), gaps_.end(),
                                    [tolerance](double g) { return g <= tolerance; });
  const double share = gaps_.empty() ? 0 : double(within) / double(gaps_.size());
  const bool ok = !gaps_.empty() && gap <= tolerance;
  char line[320];
  std::snprintf(line, sizeof(line),
                "ladder check: the median request's clamped self times overshoot "
                "its root by %.2f%%; tolerance %.2f%% (overhead %.2f%% + 2 x "
                "repeat noise %.2f%%); %.0f%% of %zu requests within -> %s",
                100 * gap, 100 * tolerance, 100 * std::abs(overhead_ratio - 1.0),
                100 * noise, 100 * share, gaps_.size(), ok ? "PASS" : "FAIL");
  result.notes.push_back(line);
  if (!ok) result.correct = false;
  return share;
}

}  // namespace e2e
