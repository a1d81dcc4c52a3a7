// study_mode3 / study_mode0: one closed-loop client cycling the 12 Table-1
// applications, each as a supervised session whose attempt body is
// workloads::run_workload (what run_workloads_supervised does). No wire, no
// admission: the interpreter, the Ceres hooks and the DOM event loop (frame
// graph for the rAF canvas apps) do the work.

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>

#include "ceres/dependence_analyzer.h"
#include "ceres/lightweight_profiler.h"
#include "ceres/sampling_profiler.h"
#include "common.h"
#include "dom/page.h"
#include "interp/hooks.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "rivertrail/thread_pool.h"
#include "support/supervisor.h"
#include "workloads/runner.h"

namespace e2e {
namespace {

using namespace jsceres;
using workloads::Workload;

constexpr int kSetupRepeats = 9;

workloads::Mode run_mode(int mode) {
  return mode >= 3   ? workloads::Mode::Dependence
         : mode >= 1 ? workloads::Mode::Lightweight
                     : workloads::Mode::Uninstrumented;
}

/// SCALE run_workload picks for `mode` (no override).
double scale_of(const Workload& workload, int mode) {
  return mode >= 3 ? workload.dependence_scale : 1.0;
}

struct App {
  const Workload* workload = nullptr;
  const char* name = "";
  std::string console;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
};

/// Reference answers: a bare run_workload per app at `mode`.
std::vector<App> make_reference(int mode) {
  std::vector<App> apps;
  const std::vector<Workload>& all = workloads::all_workloads();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const workloads::InstrumentedRun run = workloads::run_workload(all[i], run_mode(mode));
    apps.push_back({&all[i], kAppNames[i], run.interp->console_output(),
                    run.clock.cpu_ns(), run.clock.wall_ns()});
  }
  return apps;
}

/// The supervised session of one app, as run_workloads_supervised builds it
/// (requested mode `mode`, no deadline, no limits).
SessionRequest make_request(const App& app, int mode) {
  SessionRequest request;
  request.name = app.workload->name;
  request.mode = mode;
  const Workload* workload = app.workload;
  request.attempt = [workload](const SessionRequest&, int attempt_mode,
                               const EngineLimits& limits, std::int64_t ticks,
                               CancelToken token) {
    const workloads::SessionKnobs knobs{limits, ticks, token};
    const workloads::InstrumentedRun run =
        workloads::run_workload(*workload, run_mode(attempt_mode), 0, &knobs);
    AttemptSuccess success;
    success.console = run.interp->console_output();
    success.cpu_ns = run.clock.cpu_ns();
    success.wall_ns = run.clock.wall_ns();
    return success;
  };
  return request;
}

bool matches(const SessionOutcome& got, const App& app, int mode) {
  return got.state == SessionState::Completed && got.final_mode == mode &&
         got.console == app.console && got.cpu_ns == app.cpu_ns &&
         got.wall_ns == app.wall_ns;
}

/// Seeded order of one cycle over the apps.
std::vector<std::size_t> cycle_order(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

Result run_timed(const Options& options, int mode) {
  Result result;
  const std::vector<App> apps = make_reference(mode);
  std::vector<SessionRequest> requests;
  for (const App& app : apps) requests.push_back(make_request(app, mode));

  // Set-up: start the pool and the supervisor, then one warm pass over the
  // apps, kSetupRepeats times. setup_s adds up each step's median over the
  // repetitions: one pass is only 12 sessions, and a single slow Cloth
  // session moves a whole pass by a tenth. The sessions are engine work, so
  // each is taken at nominal host speed like the timed phase's latencies.
  std::unique_ptr<rivertrail::ThreadPool> pool;
  std::unique_ptr<SessionSupervisor> supervisor;
  HostProbe probe;
  std::vector<double> start_ms;
  std::vector<std::vector<double>> session_ms(apps.size());
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    supervisor.reset();
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<rivertrail::ThreadPool>(1);
    supervisor = std::make_unique<SessionSupervisor>(*pool);
    start_ms.push_back(ms_between(t0, Clock::now()));
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const double factor = probe.factor();
      const auto s0 = Clock::now();
      ++result.attempted;
      if (!matches(supervisor->run_one(requests[i]), apps[i], mode)) ++result.failed;
      session_ms[i].push_back(ms_between(s0, Clock::now()) * factor);
    }
  }
  double setup_ms = quantile(start_ms, 0.5);
  for (const std::vector<double>& app_ms : session_ms) setup_ms += quantile(app_ms, 0.5);

  const double setup_s = setup_ms / 1e3;
  const double rss_mb = rss_peak_mb();
  std::mt19937_64 rng(options.seed);
  std::vector<std::size_t> order;
  TimedPhase phase = run_closed_loop(
      1, options.seconds, 1,
      [&](int, std::uint64_t k) {
        if (k % apps.size() == 0) order = cycle_order(rng, apps.size());
        const std::size_t i = order[k % apps.size()];
        return matches(supervisor->run_one(requests[i]), apps[i], mode);
      },
      result);
  phase.setup_s = setup_s;
  phase.rss_peak_mb = rss_mb;
  report_end_to_end(phase, true, result);
  return result;
}

// --- traced run: replay each session down the ladder ------------------------

struct BareApp {
  double exec_ms = 0;
  double event_loop_ms = 0;
  std::string console;
  std::int64_t ticks = 0;
  interp::Interpreter::ICStats ic;
  dom::FrameGraphStats frames;
};

/// run_workload's body after parsing, with the hooks of `mode` (none at 0)
/// and the SCALE of `scale_mode`: interpreter, page, canvas, main script,
/// user events, optional frame graph, event loop to the session horizon.
BareApp run_bare(const js::Program& program, const Workload& workload, int mode,
                 int scale_mode, SpanRecorder* spans, std::uint64_t id) {
  BareApp out;
  VirtualClock clock;
  interp::HookList hooks;
  std::unique_ptr<ceres::LightweightProfiler> lightweight;
  std::unique_ptr<ceres::SamplingProfiler> sampler;
  std::unique_ptr<ceres::DependenceAnalyzer> dependence;
  if (mode >= 3) {
    dependence = std::make_unique<ceres::DependenceAnalyzer>(program);
    hooks.add(dependence.get());
  } else if (mode >= 1) {
    lightweight = std::make_unique<ceres::LightweightProfiler>(clock);
    sampler = std::make_unique<ceres::SamplingProfiler>(clock);
    hooks.add(lightweight.get());
    hooks.add(sampler.get());
  }
  interp::InterpreterConfig config;
  config.preempt_interval_ticks = workload.preempt_interval_ticks;
  config.preempt_block_ns = workload.preempt_block_ns;

  const auto t0 = Clock::now();
  interp::Interpreter interp(program, clock, mode == 0 ? nullptr : &hooks, config);
  interp.define_global("SCALE", interp::Value::number(scale_of(workload, scale_mode)));
  dom::Page page(interp);
  if (workload.canvas) {
    page.add_canvas(workload.canvas_id, workload.canvas_w, workload.canvas_h);
  }
  interp.run();
  page.event_loop().push_user_events(workload.events);
  std::unique_ptr<rivertrail::ThreadPool> frame_pool;
  if (workload.pipeline_schedule == rivertrail::PipelineSchedule::FrameGraph) {
    frame_pool = std::make_unique<rivertrail::ThreadPool>(2);
    page.event_loop().enable_frame_graph(
        *frame_pool, page.canvas_context(workload.canvas_id).get(),
        workload.pipeline_depth);
  }
  const auto e0 = Clock::now();
  page.event_loop().run(workload.session_ms);
  const auto e1 = Clock::now();
  if (sampler != nullptr) sampler->finish();
  const auto t1 = Clock::now();

  out.exec_ms = ms_between(t0, t1);
  out.event_loop_ms = ms_between(e0, e1);
  if (spans != nullptr) {
    spans->push("dom.event_loop", "dom", id, e0, e1);
    spans->push(mode >= 3   ? "ceres.mode3_session"
                : mode >= 1 ? "ceres.mode1_session"
                            : "interp.session",
                mode > 0 ? "ceres" : "interp", id, t0, t1);
  }
  out.console = interp.console_output();
  out.ticks = clock.cpu_ns() / VirtualClock::kTickNs;
  out.ic = interp.ic_stats();
  out.frames = page.event_loop().frame_graph_stats();
  return out;
}

Result run_traced(const Options& options, int mode) {
  Result result;
  const std::vector<App> apps = make_reference(mode);
  std::vector<SessionRequest> requests;
  for (const App& app : apps) requests.push_back(make_request(app, mode));
  rivertrail::ThreadPool pool(1);
  SessionSupervisor supervisor(pool);
  const auto check = [&](bool ok) {
    ++result.attempted;
    if (!ok) ++result.failed;
  };
  for (std::size_t i = 0; i < apps.size(); ++i) {
    check(matches(supervisor.run_one(requests[i]), apps[i], mode));  // warm pass
  }

  // Exact counts: one unhooked pass over every app at this mode's SCALE.
  std::map<std::string, double> v;
  {
    double ticks = 0, ic_hits = 0, ic_all = 0, frames = 0;
    for (const App& app : apps) {
      const js::Program program = js::parse(app.workload->source, app.workload->name);
      const BareApp bare = run_bare(program, *app.workload, 0, mode, nullptr, 0);
      ticks += double(bare.ticks);
      ic_hits += double(bare.ic.read_hits + bare.ic.write_hits);
      ic_all += double(bare.ic.read_hits + bare.ic.write_hits +
                       bare.ic.read_misses + bare.ic.write_misses);
      frames += double(bare.frames.frames);
    }
    v["interp.ticks_per_req"] = ticks / double(apps.size());
    v["interp.ic_hit_ratio"] = ic_all > 0 ? ic_hits / ic_all : 0;
    v["dom.frames_per_req"] = frames / double(apps.size());
  }

  SpanRecorder spans;
  LadderCheck ladder;
  const double rss_before = rss_now_mb();
  std::uint64_t engine_sessions = 0;  // every engine run of the replay
  double sum_untraced = 0, sum_sup = 0, sum_wl = 0, sum_parse = 0;
  double sum_hooked = 0, sum_unhooked = 0, sum_event_loop = 0, sum_stage_ms = 0;
  std::vector<double> app_ms(apps.size(), 0);
  std::vector<std::uint64_t> app_n(apps.size(), 0);
  std::uint64_t sessions = 0, attempts = 0, degraded = 0, n = 0;
  std::mt19937_64 rng(options.seed);
  const auto deadline = after_seconds(Clock::now(), options.seconds);
  std::uint64_t id = 0;
  while (Clock::now() < deadline) {
    for (const std::size_t i : cycle_order(rng, apps.size())) {
      ++id;
      ++n;
      const App& app = apps[i];
      const Workload& workload = *app.workload;

      const auto u0 = Clock::now();
      check(matches(supervisor.run_one(requests[i]), app, mode));
      const double untraced = ms_between(u0, Clock::now());
      sum_untraced += untraced;

      const auto r0 = Clock::now();
      SessionOutcome outcome;
      const double sup = spans.time("supervisor.run_one", "supervisor", id, [&] {
        outcome = supervisor.run_one(requests[i]);
      });
      check(matches(outcome, app, mode));
      ++sessions;
      attempts += std::uint64_t(outcome.attempts);
      if (outcome.state == SessionState::Degraded) ++degraded;

      std::string wl_console;
      const double wl = spans.time("workloads.run_workload", "workloads", id, [&] {
        wl_console = workloads::run_workload(workload, run_mode(mode)).interp->console_output();
      });
      check(wl_console == app.console);

      js::Program program;
      const double parse = spans.time("js.parse", "js", id, [&] {
        program = js::parse(workload.source, workload.name);
      });
      const BareApp hooked = run_bare(program, workload, mode, mode, &spans, id);
      check(hooked.console == app.console);
      BareApp unhooked = hooked;
      if (mode > 0) {
        unhooked = run_bare(program, workload, 0, mode, &spans, id);
      }
      spans.push(app.name, "request", id, r0, Clock::now());

      engine_sessions += mode > 0 ? 5 : 4;
      sum_sup += sup;
      sum_wl += wl;
      sum_parse += parse;
      sum_hooked += hooked.exec_ms;
      sum_unhooked += unhooked.exec_ms;
      sum_event_loop += unhooked.event_loop_ms;
      sum_stage_ms += double(unhooked.frames.kernel_ns + unhooked.frames.upload_ns +
                             unhooked.frames.commit_ns) / 1e6;
      app_ms[i] += sup;
      ++app_n[i];
      ladder.add({sup - wl, wl - (parse + hooked.exec_ms), parse,
                  hooked.exec_ms - unhooked.exec_ms, unhooked.exec_ms},
                 sup, untraced);
    }
  }

  const double dn = double(std::max<std::uint64_t>(n, 1));
  v["supervisor.self_ms"] = (sum_sup - sum_wl) / dn;
  v["supervisor.attempts_per_session"] =
      sessions == 0 ? 0 : double(attempts) / double(sessions);
  v["supervisor.degraded_ratio"] = sessions == 0 ? 0 : double(degraded) / double(sessions);
  v["workloads.self_ms"] = (sum_wl - sum_parse - sum_hooked) / dn;
  v["js.parse_ms"] = sum_parse / dn;
  v["js.parse_share"] = sum_parse / (sum_parse + sum_hooked);
  v["interp.run_ms"] = sum_unhooked / dn;
  if (mode > 0) {
    v[mode >= 3 ? "ceres.mode3_overhead_ratio" : "ceres.mode1_overhead_ratio"] =
        sum_hooked / sum_unhooked;
  }
  v["dom.event_loop_ms"] = sum_event_loop / dn;
  v["dom.frame_stage_ms"] = sum_stage_ms / dn;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    v[std::string("workloads.") + apps[i].name + ".session_ms"] =
        app_n[i] == 0 ? 0 : app_ms[i] / double(app_n[i]);
  }
  v["trace.overhead_ratio"] = sum_untraced > 0 ? sum_sup / sum_untraced : 0;
  v["trace.ladder_within_ratio"] = ladder.verify(v["trace.overhead_ratio"], result);
  v["reclaim.rss_growth_kb_per_session"] =
      (rss_now_mb() - rss_before) * 1024.0 / double(std::max<std::uint64_t>(engine_sessions, 1));
  report_layers(v, result);

  result.notes.push_back("traced: " + std::to_string(n) +
                         " sessions replayed down the ladder");
  spans.write_chrome_trace(
      options.out_dir + "/trace_study_mode" + std::to_string(mode) + ".json", result);
  return result;
}

}  // namespace

Result run_study(const Options& options, int mode) {
  if (workloads::all_workloads().size() != std::size(kAppNames)) {
    Result result;
    result.correct = false;
    result.notes.push_back("the app list no longer matches kAppNames");
    return result;
  }
  return options.trace ? run_traced(options, mode) : run_timed(options, mode);
}

}  // namespace e2e
