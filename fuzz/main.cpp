// Differential fuzzing driver for the engine sandbox.
//
//   fuzz_driver [--smoke] [--seed N] [--count N] [--corpus DIR] [--timers]
//   fuzz_driver --hostile
//   fuzz_driver --hostile-net
//   fuzz_driver --serve [--seed N] [--count N]
//   fuzz_driver --sessions N [--seed N] [--count N]
//   fuzz_driver --soak [--sessions N] [--seed N] [--metrics-out FILE]
//               [--trace-out FILE]
//
// Default (and --smoke) mode: generate `count` programs from consecutive
// seeds starting at `seed`, run the full oracle battery over each (every
// fourth program carries the event-loop epilogue and additionally exercises
// the serial-vs-frame-graph oracle), minimize any failure and persist it to
// the corpus directory. Exit status is the number of failing seeds (capped
// at 99), so CI can upload the corpus and fail the step in one go.
//
// --hostile runs the hostile-input demo suite: every case must trip its
// limit with a recoverable error and leave the engine reusable.
//
// --hostile-net runs the hostile-client suite against a real loopback
// AnalysisServer: garbage magic, oversized length prefixes, zero-length
// floods, a slow-drip writer, mid-frame and mid-response disconnects,
// connection/in-flight/rate floods. Every case must end in a typed error
// frame (or orderly close) with the server still serving afterwards.
//
// --serve streams `count` requests through the server over real sockets —
// generated programs with every tenth slot a hostile action — after first
// running the loopback differential oracle: in-process submit() and the
// wire round-trip must agree outcome-for-outcome on the same requests.
//
// --sessions N routes the generated programs through a real SessionSupervisor
// in batches of N concurrent sessions over one shared pool. Every session
// must end in a structured terminal outcome and no quarantine may be blamed
// on the runtime itself (outcome.runtime_fault stays false).
//
// --soak streams N sessions (default 2000) through the resident
// AnalysisService front-end and asserts the multi-tenant memory contract:
// after warmup, the shared structures (prefix atom table, live shapes,
// stamp segments) and the RSS must plateau instead of growing with session
// count, and once the stream drains, zero stamp-arena segments may remain
// checked out. Run under ASan to additionally prove zero leaks.
// --metrics-out FILE periodically overwrites FILE with the full metrics
// registry as JSON; --trace-out FILE records the whole soak into a Chrome
// trace-event file (open in chrome://tracing or ui.perfetto.dev).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "ceres/char_stack.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/triage.h"
#include "fuzz/wire.h"
#include "interp/shape.h"
#include "js/atom.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"
#include "support/service.h"
#include "support/supervisor.h"

namespace {

int run_hostile_suite() {
  int failures = 0;
  for (const jsceres::fuzz::HostileCase& hostile :
       jsceres::fuzz::hostile_suite()) {
    const jsceres::fuzz::HostileReport report =
        jsceres::fuzz::run_hostile_case(hostile);
    std::printf("[%s] %-16s (%s): %s\n",
                report.recovered ? "RECOVERED" : "FAILED",
                report.name.c_str(), hostile.contained_by.c_str(),
                report.error.c_str());
    if (!report.recovered) ++failures;
  }
  std::printf("hostile suite: %d failure(s)\n", failures);
  return failures;
}

int run_hostile_net() {
  int failures = 0;
  for (const jsceres::fuzz::NetHostileReport& report :
       jsceres::fuzz::run_hostile_net_suite()) {
    std::printf("[%s] %-24s %s\n", report.recovered ? "RECOVERED" : "FAILED",
                report.name.c_str(), report.detail.c_str());
    if (!report.recovered) ++failures;
  }
  std::printf("hostile-net suite: %d failure(s)\n", failures);
  return failures;
}

int run_smoke(std::uint64_t base_seed, int count, const std::string& corpus,
              bool force_timers) {
  int failures = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + std::uint64_t(i);
    jsceres::fuzz::GenOptions gen;
    gen.use_timers = force_timers || (i % 4 == 3);
    const std::string source = jsceres::fuzz::generate_program(seed, gen);
    jsceres::fuzz::OracleOptions oracle_options;
    oracle_options.has_timers = gen.use_timers;
    const jsceres::fuzz::OracleOutcome outcome =
        jsceres::fuzz::check_program(source, oracle_options);
    if (outcome.ok) continue;

    ++failures;
    std::printf("FAIL seed=%llu oracle=%s: %s\n",
                static_cast<unsigned long long>(seed), outcome.oracle.c_str(),
                outcome.detail.c_str());
    jsceres::fuzz::FailingCase failing;
    failing.seed = seed;
    failing.oracle = outcome.oracle;
    failing.detail = outcome.detail;
    failing.source = source;
    failing.minimized = jsceres::fuzz::minimize_lines(
        source, [&](const std::string& candidate) {
          const jsceres::fuzz::OracleOutcome repro =
              jsceres::fuzz::check_program(candidate, oracle_options);
          return !repro.ok && repro.oracle == outcome.oracle;
        });
    const std::string path = jsceres::fuzz::save_case(corpus, failing);
    if (!path.empty()) {
      std::printf("  minimized repro saved to %s\n", path.c_str());
    }
  }
  std::printf("fuzz smoke: %d program(s), %d failure(s)\n", count, failures);
  return failures > 99 ? 99 : failures;
}

int run_sessions(std::uint64_t base_seed, int count, int sessions) {
  jsceres::rivertrail::ThreadPool pool(4);
  jsceres::SessionSupervisor supervisor(pool);
  int failures = 0;
  int done = 0;
  while (done < count) {
    std::vector<jsceres::SessionRequest> batch;
    for (int s = 0; s < sessions && done + s < count; ++s) {
      const std::uint64_t seed = base_seed + std::uint64_t(done + s);
      jsceres::fuzz::GenOptions gen;
      gen.use_timers = (done + s) % 4 == 3;
      jsceres::SessionRequest request;
      request.name = "seed-" + std::to_string(seed);
      request.source = jsceres::fuzz::generate_program(seed, gen);
      request.limits.max_memory_bytes = 4u << 20;
      request.max_ticks = 2'000'000;
      request.has_timers = gen.use_timers;
      request.horizon_ms = 200;
      // A third of the batch gets a real wall deadline so the degradation
      // ladder sees traffic; a deadline miss is a legal structured outcome.
      if ((done + s) % 3 == 2) request.deadline_ms = 250;
      batch.push_back(std::move(request));
    }
    const std::vector<jsceres::SessionOutcome> outcomes =
        supervisor.run(batch);
    for (const jsceres::SessionOutcome& outcome : outcomes) {
      if (!outcome.runtime_fault && !outcome.history.empty()) continue;
      if (!outcome.runtime_fault &&
          outcome.state == jsceres::SessionState::Cancelled) {
        continue;  // attempts may legitimately be zero for a sticky cancel
      }
      ++failures;
      std::printf("FAIL %s: state=%s runtime_fault=%d error=%s\n",
                  outcome.name.c_str(), jsceres::to_string(outcome.state),
                  int(outcome.runtime_fault), outcome.error.c_str());
    }
    done += int(batch.size());
  }
  std::printf("session mode: %d program(s) in batches of %d, %d failure(s)\n",
              count, sessions, failures);
  return failures > 99 ? 99 : failures;
}

/// Overwrite `path` with the full metrics registry as JSON (engine gauges
/// refreshed first). Called periodically so a crash mid-soak still leaves
/// the last period's snapshot on disk.
void dump_metrics(jsceres::AnalysisService& service, const std::string& path) {
  if (path.empty()) return;
  const std::string json = service.metrics_snapshot().to_json();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "metrics-out: cannot open %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
}

int run_soak(std::uint64_t base_seed, int total,
             const std::string& metrics_out, const std::string& trace_out) {
  using namespace jsceres;
  if (!trace_out.empty()) obs::TraceRecorder::instance().start();
  obs::TraceRecorder::instance().set_thread_name("soak-driver");
  rivertrail::ThreadPool pool(4);
  ServiceOptions options;
  options.max_active = 4;
  options.max_queue = 32;
  options.max_per_tenant = 2;
  options.governor.ceiling_bytes = 256u << 20;
  options.watchdog_interval_ms = 100;
  options.watchdog_stuck_ms = 10'000;
  int failures = 0;
  std::size_t warm_shared = 0;
  std::size_t warm_rss = 0;
  std::size_t end_shared = 0;
  std::size_t end_rss = 0;
  {
    AnalysisService service(pool, options);
    const int warmup = std::max(total / 4, 1);
    std::deque<ServiceTicket> window;
    std::size_t runtime_faults = 0;
    std::size_t shed = 0;

    const auto pump = [&](std::size_t keep) {
      while (window.size() > keep) {
        const ServiceOutcome& outcome = window.front().wait();
        if (outcome.state == ServiceState::Shed) {
          ++shed;
        } else if (outcome.session.runtime_fault) {
          ++runtime_faults;
          std::printf("SOAK FAIL %s: state=%s error=%s\n",
                      outcome.session.name.c_str(), to_string(outcome.state),
                      outcome.session.error.c_str());
        }
        window.pop_front();
      }
    };

    for (int i = 0; i < total; ++i) {
      const std::uint64_t seed = base_seed + std::uint64_t(i);
      fuzz::GenOptions gen;
      gen.use_timers = i % 4 == 3;
      ServiceRequest request;
      request.tenant = "tenant-" + std::to_string(i % 8);
      request.memory_estimate = 4u << 20;
      request.session.name = "seed-" + std::to_string(seed);
      request.session.source = fuzz::generate_program(seed, gen);
      request.session.limits.max_memory_bytes = 4u << 20;
      request.session.max_ticks = 2'000'000;
      request.session.has_timers = gen.use_timers;
      request.session.horizon_ms = 200;
      // Timer sessions run their frames through the pipelined frame graph,
      // so soak traces carry per-frame kernel/upload/commit spans.
      if (gen.use_timers) request.session.frame_pool = &pool;
      if (i % 5 == 4) request.session.deadline_ms = 250;
      window.push_back(service.submit(std::move(request)));
      // Sliding completion window: bounded caller-side state, and the
      // queue never overflows purely from submission burstiness.
      pump(16);
      if ((i + 1) % 100 == 0) dump_metrics(service, metrics_out);

      if (i + 1 == warmup) {
        pump(0);
        service.drain();
        warm_shared = AnalysisService::shared_structure_bytes();
        warm_rss = jsceres::fuzz::current_rss_bytes();
      }
    }
    pump(0);
    service.drain();
    end_shared = AnalysisService::shared_structure_bytes();
    end_rss = jsceres::fuzz::current_rss_bytes();

    const ServiceStats stats = service.stats();
    std::printf(
        "soak: %d session(s), completed=%zu shed=%zu degraded=%zu "
        "watchdog-quarantines=%zu\n",
        total, stats.completed, shed, stats.degraded_admissions,
        stats.watchdog_quarantines);
    std::printf(
        "soak: governor high-water=%zu bytes, "
        "queue high-water=%zu, active high-water=%zu\n",
        stats.governor_high_water_bytes, stats.queue_high_water,
        stats.active_high_water);
    failures += int(runtime_faults);
    dump_metrics(service, metrics_out);
  }
  if (!trace_out.empty()) {
    obs::TraceRecorder::instance().stop();
    if (obs::TraceRecorder::instance().write_chrome_trace(trace_out)) {
      std::printf("soak: trace written to %s\n", trace_out.c_str());
    } else {
      std::printf("SOAK FAIL: cannot write trace to %s\n", trace_out.c_str());
      ++failures;
    }
  }

  // Plateau: post-warmup growth of the shared structures must be marginal —
  // every program frees its own atoms and shapes, so a drained service holds
  // none of them. The slack absorbs hash-table capacity rounding.
  const std::size_t shared_slack = warm_shared / 2 + (1u << 20);
  std::printf("soak: shared structures warm=%zu end=%zu (slack %zu)\n",
              warm_shared, end_shared, shared_slack);
  if (end_shared > warm_shared + shared_slack) {
    std::printf("SOAK FAIL: shared structures grew past the plateau\n");
    ++failures;
  }
  // RSS plateau, generous: allocator caching and ASan quarantines make RSS
  // noisy, but session-linear growth (the leak this guards against) dwarfs
  // the slack at soak counts.
  if (warm_rss > 0 && end_rss > 0) {
    // Sanitizer builds keep freed memory quarantined and shadow-mapped, so
    // their RSS trails session count by design; the plateau assertion gets
    // a wide berth there (the sanitizer run's job is leak detection).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const std::size_t base_slack = 768u << 20;
#else
    const std::size_t base_slack = 96u << 20;
#endif
    const std::size_t rss_slack = warm_rss / 2 + base_slack;
    std::printf("soak: rss warm=%zu end=%zu (slack %zu)\n", warm_rss, end_rss,
                rss_slack);
    if (end_rss > warm_rss + rss_slack) {
      std::printf("SOAK FAIL: rss grew past the plateau\n");
      ++failures;
    }
  }
  // Every analyzer is gone: no stamp segment may still be checked out.
  if (jsceres::ceres::stamp_segments_live() != 0) {
    std::printf("SOAK FAIL: %zu stamp segment(s) leaked\n",
                jsceres::ceres::stamp_segments_live());
    ++failures;
  }
  jsceres::ceres::drain_stamp_segment_pool();
  std::printf("soak: %d failure(s)\n", failures);
  return failures > 99 ? 99 : failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool hostile = false;
  bool hostile_net = false;
  bool serve = false;
  bool timers = false;
  bool soak = false;
  int sessions = 0;
  std::uint64_t seed = 1;
  int count = 500;
  std::string corpus = "fuzz-corpus";
  std::string metrics_out;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--hostile") == 0) {
      hostile = true;
    } else if (std::strcmp(arg, "--hostile-net") == 0) {
      hostile_net = true;
    } else if (std::strcmp(arg, "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(arg, "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      // Default mode; the flag exists so CI invocations read clearly.
    } else if (std::strcmp(arg, "--timers") == 0) {
      timers = true;
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--count") == 0 && i + 1 < argc) {
      count = int(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--corpus") == 0 && i + 1 < argc) {
      corpus = argv[++i];
    } else if (std::strcmp(arg, "--sessions") == 0 && i + 1 < argc) {
      sessions = int(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_driver [--smoke] [--hostile] [--hostile-net] "
                   "[--serve] [--soak] [--sessions N] [--seed N] [--count N] "
                   "[--corpus DIR] [--timers] [--metrics-out FILE] "
                   "[--trace-out FILE]\n");
      return 2;
    }
  }

  if (hostile) return run_hostile_suite();
  if (hostile_net) return run_hostile_net();
  // In serve mode --count N is the stream length (slots, including the
  // hostile ones), defaulting to 500 like smoke mode.
  if (serve) return jsceres::fuzz::run_serve_mode(seed, count);
  // In soak mode --sessions N is the stream length (how many sessions flow
  // through the resident service), defaulting to 2000.
  if (soak) {
    return run_soak(seed, sessions > 0 ? sessions : 2000, metrics_out,
                    trace_out);
  }
  if (sessions > 0) return run_sessions(seed, count, sessions);
  return run_smoke(seed, count, corpus, timers);
}
