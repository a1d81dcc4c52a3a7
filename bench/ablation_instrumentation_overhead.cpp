// Ablation: the cost of the three staged instrumentation modes (paper SS3:
// "the three modes are separated in order to minimize the bias in the
// results due to the instrumentation overhead").
//
// Host wall-clock per mode quantifies the tool overhead; virtual-time
// invariance across modes 0-2 checks that the instrumentation does not bias
// the measured application (the virtual clock only advances with executed
// program work, never with analysis work).
//
// Also sweeps the sampling profiler's function-granularity artifact, which
// reproduces the paper's Gecko anomaly (sampled active time undercounting a
// long single-function computation).
//
// Finally, gates the observability layer's own cost: a probed-vs-plain loop
// at interpreter-tick work density must show <= 5% overhead with probes
// compiled in (JSCERES_OBS=1), and <= 1% — i.e. free within noise — with
// probes compiled out (JSCERES_OBS=0). A breach exits nonzero so CI fails.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "ceres/sampling_profiler.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "support/obs.h"
#include "workloads/runner.h"

using namespace jsceres;

namespace {

double host_ms(workloads::Mode mode, const workloads::Workload& workload,
               double* virtual_s) {
  const auto start = std::chrono::steady_clock::now();
  auto run = workloads::run_workload(workload, mode);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  *virtual_s = run.clock.cpu_seconds();
  return ms;
}

// --- observability probe overhead gate -------------------------------------
//
// Per-iteration work: a chain of dependent 64-bit mixes (loads, shifts,
// multiplies — the same ALU/branch shape as interpreter dispatch) sized as a
// conservative LOWER bound on one interpreter tick (~80ns here vs hundreds
// of ns for a real tick). Understating the work overstates the probe's
// relative cost, so the gate errs strict. Integer work on purpose: the
// interpreter loop is integer/pointer-dominated, and a probe's cold init
// path (guard + shard registration calls) costs a tight *FP* chain extra
// xmm spills that the real hot loop never pays. noinline keeps the two
// loops structurally identical.

constexpr int kWorkRounds = 16;
constexpr std::size_t kProbeIters = 1'000'000;

inline std::uint64_t obs_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

__attribute__((noinline)) std::uint64_t obs_plain_loop(std::size_t iters) {
  std::uint64_t acc = 1;
  for (std::size_t i = 0; i < iters; ++i) {
    for (int u = 0; u < kWorkRounds; ++u) acc = obs_mix(acc + std::uint64_t(u));
  }
  return acc;
}

__attribute__((noinline)) std::uint64_t obs_probed_loop(std::size_t iters) {
  std::uint64_t acc = 1;
  for (std::size_t i = 0; i < iters; ++i) {
    for (int u = 0; u < kWorkRounds; ++u) acc = obs_mix(acc + std::uint64_t(u));
    JSCERES_OBS_COUNT("bench.obs_ticks", 1);
  }
  return acc;
}

/// Best-of-N wall time of `fn(kProbeIters)` in ns (min defeats scheduling
/// noise; the loops are deterministic so min is the honest cost).
template <typename Fn>
std::int64_t best_of(Fn fn, std::uint64_t* sink) {
  std::int64_t best = INT64_MAX;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = obs::mono_ns();
    *sink += fn(kProbeIters);
    best = std::min(best, obs::mono_ns() - t0);
  }
  return best;
}

/// Returns 0 when the probe overhead is within this build's budget, 1 on a
/// breach.
int run_obs_overhead_gate() {
#if JSCERES_OBS
  constexpr double kBudget = 0.05;  // metrics probes: <= 5% on the hot loop
  const char* config = "JSCERES_OBS=1 (probes compiled in)";
#else
  constexpr double kBudget = 0.01;  // compiled-out probes must be free
  const char* config = "JSCERES_OBS=0 (probes compiled out)";
#endif
  std::uint64_t sink = 0;
  // Warm both paths (first JSCERES_OBS_COUNT pays one-time registry
  // interning; that is setup, not steady-state probe cost).
  sink += obs_plain_loop(1000);
  sink += obs_probed_loop(1000);
  const std::int64_t plain_ns = best_of(obs_plain_loop, &sink);
  const std::int64_t probed_ns = best_of(obs_probed_loop, &sink);
  const double overhead =
      double(probed_ns - plain_ns) / double(plain_ns > 0 ? plain_ns : 1);

  std::printf("\nobservability probe overhead gate [%s]\n", config);
  std::printf("  %zu iterations x %d-mix tick: plain %.2f ms, probed %.2f ms "
              "-> %+.2f%% (budget %.0f%%)  [%s]  (sink %llu)\n",
              kProbeIters, kWorkRounds, double(plain_ns) / 1e6,
              double(probed_ns) / 1e6, overhead * 100.0, kBudget * 100.0,
              overhead <= kBudget ? "ok" : "BREACH",
              static_cast<unsigned long long>(sink & 7));
  return overhead <= kBudget ? 0 : 1;
}

}  // namespace

int main() {
  std::printf("instrumentation overhead per mode (host ms; virtual CPU s)\n");
  std::printf("%-20s %12s %12s %12s %12s\n", "workload", "mode0-none",
              "mode1-light", "mode2-loops", "mode3-deps");
  for (const char* name : {"CamanJS", "fluidSim", "Tear-able Cloth"}) {
    const auto& workload = workloads::workload_by_name(name);
    double v0 = 0;
    double v1 = 0;
    double v2 = 0;
    double v3 = 0;
    const double m0 = host_ms(workloads::Mode::Uninstrumented, workload, &v0);
    const double m1 = host_ms(workloads::Mode::Lightweight, workload, &v1);
    const double m2 = host_ms(workloads::Mode::LoopProfile, workload, &v2);
    const double m3 = host_ms(workloads::Mode::Dependence, workload, &v3);
    std::printf("%-20s %9.0fms %9.0fms %9.0fms %9.0fms   (mode3: x%.1f over mode 1, x%.1f over mode 0)\n",
                name, m0, m1, m2, m3, m3 / m1, m3 / m0);
    std::printf("%-20s virtual CPU: %.2fs / %.2fs / %.2fs / %.2fs %s\n", "", v0,
                v1, v2, v3,
                v0 == v1 && v1 == v2 ? "(modes 0-2 bias-free)"
                                     : "(WARNING: virtual drift)");
  }

  std::printf("\nsampling-profiler artifact sweep (400k-iteration single-function loop)\n");
  const char* source =
      "function hot() { var s = 0; for (var i = 0; i < 400000; i++) { s += i; } return s; }\n"
      "hot();\n";
  for (const int max_run : {0, 256, 64, 16}) {
    VirtualClock clock;
    ceres::SamplingProfiler::Options options;
    options.function_granularity_artifact = max_run > 0;
    options.max_same_fn_samples = max_run > 0 ? max_run : 1;
    ceres::SamplingProfiler sampler(clock, options);
    interp::Interpreter interp(js::parse(source), clock, &sampler);
    interp.run();
    sampler.finish();
    std::printf("  max same-function samples %-5s -> active %6.2fs of true %6.2fs (%.0f%%)\n",
                max_run > 0 ? std::to_string(max_run).c_str() : "off",
                sampler.active_seconds(), clock.cpu_seconds(),
                100.0 * sampler.active_seconds() / clock.cpu_seconds());
  }
  std::printf("  (the paper observed exactly this: Gecko's function-level sampling\n"
              "   can report less active time than JS-CERES measures inside loops)\n");
  return run_obs_overhead_gate();
}
