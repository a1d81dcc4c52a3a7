#include "fuzz/oracles.h"

#include <cstdio>
#include <string>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "js/lexer.h"
#include "js/parser.h"
#include "support/cancel.h"
#include "support/limits.h"
#include "support/session.h"

namespace jsceres::fuzz {

namespace {

/// Everything the oracles compare about one execution. Virtual time is part
/// of the observable surface: the whole reproduction rests on the clocks
/// being a pure function of the executed program, so any instrumentation or
/// scheduling mode that shifts them is a bug even when console output agrees.
struct RunResult {
  bool engine_error = false;
  std::string error;
  std::string console;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
};

/// Run `session` — main script, then (`with_page`) a page's event loop to
/// `horizon_ms` — and capture what the oracles compare. An uncaught JS throw
/// or limit trip is an observable outcome here, not an oracle failure.
RunResult observe(Session& session, bool with_page, std::int64_t horizon_ms) {
  RunResult result;
  if (with_page) session.open_page();
  try {
    session.run(horizon_ms);
  } catch (const interp::EngineError& e) {
    result.engine_error = true;
    result.error = e.what();
  }
  result.console = session.interp().console_output();
  result.cpu_ns = session.clock().cpu_ns();
  result.wall_ns = session.clock().wall_ns();
  return result;
}

/// The tight sandbox of the limit-recovery and supervision oracles.
SessionSandbox tight_sandbox(CancelToken cancel = {}) {
  SessionSandbox sandbox;
  sandbox.max_ticks = 2'000'000;
  sandbox.limits.max_memory_bytes = 4u << 20;
  sandbox.cancel = cancel;
  return sandbox;
}

/// Empty detail == the runs agree.
std::string diff_runs(const RunResult& a, const RunResult& b) {
  if (a.engine_error != b.engine_error || a.error != b.error) {
    return "error divergence: [" + a.error + "] vs [" + b.error + "]";
  }
  if (a.console != b.console) {
    return "console divergence: [" + a.console + "] vs [" + b.console + "]";
  }
  if (a.cpu_ns != b.cpu_ns) {
    return "cpu clock divergence: " + std::to_string(a.cpu_ns) + " vs " +
           std::to_string(b.cpu_ns) + " ns";
  }
  if (a.wall_ns != b.wall_ns) {
    return "wall clock divergence: " + std::to_string(a.wall_ns) + " vs " +
           std::to_string(b.wall_ns) + " ns";
  }
  return {};
}

OracleOutcome fail(std::string oracle, std::string detail) {
  return OracleOutcome{false, std::move(oracle), std::move(detail)};
}

}  // namespace

OracleOutcome check_program(const std::string& source,
                            const OracleOptions& options) {
  js::Program program;
  try {
    program = js::parse(source, "<fuzz>");
  } catch (const js::ParseError& e) {
    return fail("generator-validity", std::string("parse failed: ") + e.what());
  } catch (const js::LexError& e) {
    return fail("generator-validity", std::string("lex failed: ") + e.what());
  }

  const bool page = options.has_timers;
  const std::int64_t horizon = options.horizon_ms;

  // 1. Mode invariance: lightweight profiling must not perturb execution.
  {
    Session plain_session(program, CeresMode::Uninstrumented);
    const RunResult plain = observe(plain_session, page, horizon);
    Session profiled_session(program, CeresMode::Lightweight);
    const RunResult profiled = observe(profiled_session, page, horizon);
    if (profiled_session.lightweight()->in_loops_ns() > profiled.wall_ns) {
      return fail("mode-invariance", "in-loops time exceeds wall time");
    }
    if (const std::string detail = diff_runs(plain, profiled); !detail.empty()) {
      return fail("mode-invariance", detail);
    }
  }

  // 2. Dependence-analysis determinism + compact-delta shape.
  {
    std::string reports[2];
    for (int round = 0; round < 2; ++round) {
      Session session(program, CeresMode::Dependence);
      observe(session, false, 0);  // both rounds see any uncaught JS throw
      const ceres::DependenceAnalyzer& analyzer = *session.dependence();
      reports[round] = analyzer.report();
      for (const auto& warning : analyzer.warnings()) {
        bool seen_dep = false;
        for (const ceres::LevelFlags& level : warning.characterization.levels) {
          if (level.instance_dep && !level.iteration_dep) {
            return fail("stamp-shape", "dependence-ok level in " +
                                           warning.render(program));
          }
          if (seen_dep && !(level.instance_dep && level.iteration_dep)) {
            return fail("stamp-shape", "non-monotone delta in " +
                                           warning.render(program));
          }
          if (level.instance_dep || level.iteration_dep) seen_dep = true;
        }
      }
    }
    if (reports[0] != reports[1]) {
      return fail("analyzer-determinism", "reports differ across re-runs");
    }
  }

  // 3. Serial vs frame-graph event loop (timer programs only).
  if (page) {
    Session serial_session(program, CeresMode::Uninstrumented);
    const RunResult serial = observe(serial_session, true, horizon);
    Session pipelined_session(program, CeresMode::Uninstrumented);
    pipelined_session.enable_frame_graph();
    const RunResult pipelined = observe(pipelined_session, true, horizon);
    if (const std::string detail = diff_runs(serial, pipelined);
        !detail.empty()) {
      return fail("event-loop", detail);
    }
  }

  // 4. Sandbox recovery: a tight-limit run either completes or trips a
  // recoverable EngineError, and the engine object stays usable.
  {
    Session session(program, CeresMode::Uninstrumented, tight_sandbox());
    interp::Interpreter& interp = session.interp();
    bool tripped = false;
    try {
      session.run();
    } catch (const interp::EngineError&) {
      tripped = true;
    } catch (...) {
      return fail("limit-recovery", "non-EngineError escaped a limited run");
    }
    if (interp.debug_arg_stack_in_use() != 0) {
      return fail("limit-recovery",
                  "argument stack not empty after " +
                      std::string(tripped ? "a limit trip" : "completion"));
    }
    try {
      interp.run();  // re-entry arms a fresh budget window
    } catch (const interp::EngineError&) {
      // A second trip is fine; crashing or corrupting state is not.
    } catch (...) {
      return fail("limit-recovery", "non-EngineError escaped the re-run");
    }
    if (interp.debug_arg_stack_in_use() != 0) {
      return fail("limit-recovery", "argument stack not empty after re-run");
    }
  }

  // 5. Supervision: cancellation at every flavour of trigger is contained
  // exactly like a limit trip.
  if (const OracleOutcome supervised = check_supervised(source, options);
      !supervised.ok) {
    return supervised;
  }

  return OracleOutcome{};
}

OracleOutcome check_supervised(const std::string& source,
                               const OracleOptions& options) {
  js::Program program;
  try {
    program = js::parse(source, "<fuzz>");
  } catch (const js::ParseError& e) {
    return fail("generator-validity", std::string("parse failed: ") + e.what());
  } catch (const js::LexError& e) {
    return fail("generator-validity", std::string("lex failed: ") + e.what());
  }

  // K = 0 encodes "no cancel at all"; K = -1 encodes "deadline already
  // expired before the first tick". Positive K latches an explicit cancel at
  // the K-th cooperative observation, so the sweep lands the cancellation on
  // a spread of interpreter tick probes without wall-clock races. Programs
  // that finish before the K-th observation simply complete — that is a
  // legal outcome, not a hole in the sweep.
  static constexpr std::int64_t kCancelPoints[] = {0,  -1, 1,  2,  4,
                                                   8,  16, 64, 256};

  for (const std::int64_t point : kCancelPoints) {
    CancelSource cancel_source;
    if (point < 0) {
      cancel_source.expire_now();
    } else if (point > 0) {
      cancel_source.cancel_after_observations(point);
    }

    Session session(program, CeresMode::Uninstrumented,
                    tight_sandbox(CancelToken(cancel_source)));
    interp::Interpreter& interp = session.interp();

    const std::string where = " (cancel point " + std::to_string(point) + ")";
    try {
      session.run();
    } catch (const CancelledError&) {
      // cancelled: the legal third outcome.
    } catch (const interp::EngineError&) {
      // recoverable limit trip (or uncaught JS throw): legal.
    } catch (...) {
      return fail("supervision", "non-EngineError escaped" + where);
    }
    if (interp.debug_arg_stack_in_use() != 0) {
      return fail("supervision", "argument stack not empty" + where);
    }

    // Reuse proof: reset the source (deadline expiry clears; an explicit
    // cancel stays latched by design) and re-enter the same engine object.
    cancel_source.reset();
    try {
      interp.run();
    } catch (const interp::EngineError&) {
      // A second trip — including the still-latched cancel — is fine.
    } catch (...) {
      return fail("supervision", "non-EngineError escaped the re-run" + where);
    }
    if (interp.debug_arg_stack_in_use() != 0) {
      return fail("supervision",
                  "argument stack not empty after re-run" + where);
    }
  }

  // Timer programs: also land cancels on the event loop's dispatch boundary.
  if (options.has_timers) {
    for (const std::int64_t point : {std::int64_t(1), std::int64_t(3),
                                     std::int64_t(9)}) {
      CancelSource cancel_source;
      cancel_source.cancel_after_observations(point);
      Session session(program, CeresMode::Uninstrumented,
                    tight_sandbox(CancelToken(cancel_source)));
      const std::string where =
          " (event-loop cancel point " + std::to_string(point) + ")";
      try {
        session.open_page();
        session.run(options.horizon_ms);
      } catch (const interp::EngineError&) {
        // CancelledError or a limit trip: both contained.
      } catch (...) {
        return fail("supervision", "non-EngineError escaped" + where);
      }
      if (session.interp().debug_arg_stack_in_use() != 0) {
        return fail("supervision", "argument stack not empty" + where);
      }
    }
  }

  return OracleOutcome{};
}

// ---------------------------------------------------------------------------
// Hostile-input demo suite
// ---------------------------------------------------------------------------

std::vector<HostileCase> hostile_suite() {
  std::vector<HostileCase> cases;

  HostileCase nesting;
  nesting.name = "deep-nesting";
  nesting.source = std::string(2000, '(') + "1" + std::string(2000, ')') + ";";
  nesting.contained_by = "max_parse_depth";
  nesting.expect_parse_error = true;
  cases.push_back(std::move(nesting));

  HostileCase alloc;
  alloc.name = "alloc-loop";
  alloc.source = "var a = []; while (true) { a.push(a.length); }";
  alloc.contained_by = "max_memory_bytes";
  alloc.max_memory_bytes = 4u << 20;
  cases.push_back(std::move(alloc));

  HostileCase ticks;
  ticks.name = "runaway-ticks";
  ticks.source = "var x = 0; while (true) { x = x + 1; }";
  ticks.contained_by = "max_ticks";
  ticks.max_ticks = 2'000'000;
  cases.push_back(std::move(ticks));

  HostileCase wall;
  wall.name = "runaway-wall";
  wall.source = "var x = 0; while (true) { x = x + 1; }";
  wall.contained_by = "max_wall_ms";
  wall.max_wall_ms = 150;
  cases.push_back(std::move(wall));

  HostileCase props;
  props.name = "10k-properties";
  props.source =
      "var o = {}; for (var i = 0; i < 10000; i++) { o[\"k\" + i] = i; }";
  props.contained_by = "max_memory_bytes";
  props.max_memory_bytes = 256u << 10;
  cases.push_back(std::move(props));

  HostileCase growth;
  growth.name = "array-growth";
  growth.source = "var a = []; a[50000000] = 1;";
  growth.contained_by = "max_array_length";
  growth.max_array_length = 1'000'000;
  cases.push_back(std::move(growth));

  // Every object points at itself, so no reference count could ever free
  // one: only the session heap, freed whole at teardown, contains this.
  HostileCase cyclic;
  cyclic.name = "cyclic-sessions";
  cyclic.source =
      "var o; for (var i = 0; i < 2000; i++) { o = {}; o.self = o; o.arr = [o, i]; }";
  cyclic.contained_by = "session heap";
  cyclic.sessions = 200;
  cyclic.max_rss_growth_bytes = std::size_t(8) << 20;
  cases.push_back(std::move(cyclic));

  return cases;
}

std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &total, &resident);
  std::fclose(statm);
  if (fields != 2) return 0;
  return std::size_t(resident) * std::size_t(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

namespace {

/// A HostileCase with `sessions` set: one warm-up session (the builtin
/// realm, the program's shapes, the heap's chunk cache), then the loop.
HostileReport run_session_loop(const HostileCase& hostile, const js::Program& program,
                               HostileReport report) {
  try {
    Session(program, CeresMode::Uninstrumented).run();
    const std::size_t before = current_rss_bytes();
    for (int i = 0; i < hostile.sessions; ++i) {
      Session(program, CeresMode::Uninstrumented).run();
    }
    const std::size_t after = current_rss_bytes();
    const std::size_t growth = after > before ? after - before : 0;
    report.error = std::to_string(hostile.sessions) + " sessions grew RSS by " +
                   std::to_string(growth >> 10) + " KiB (bound " +
                   std::to_string(hostile.max_rss_growth_bytes >> 10) + " KiB)";
    report.recovered = !kRssTracksFrees || growth <= hostile.max_rss_growth_bytes;
  } catch (const std::exception& e) {
    report.error = std::string("session failed: ") + e.what();
  }
  return report;
}

}  // namespace

HostileReport run_hostile_case(const HostileCase& hostile) {
  HostileReport report;
  report.name = hostile.name;

  EngineLimits limits;
  limits.max_memory_bytes = hostile.max_memory_bytes;
  limits.max_array_length = hostile.max_array_length;
  limits.max_wall_ms = hostile.max_wall_ms;

  js::Program program;
  try {
    program = js::parse(hostile.source, "<hostile:" + hostile.name + ">",
                        limits);
  } catch (const js::ParseError& e) {
    report.recovered = hostile.expect_parse_error;
    report.error = e.what();
    return report;
  } catch (const js::LexError& e) {
    report.recovered = hostile.expect_parse_error;
    report.error = e.what();
    return report;
  }
  if (hostile.expect_parse_error) {
    report.error = "expected a front-end error, but the source parsed";
    return report;
  }
  if (hostile.sessions > 0) return run_session_loop(hostile, program, std::move(report));

  Session session(program, CeresMode::Uninstrumented, {limits, hostile.max_ticks, {}});
  interp::Interpreter& interp = session.interp();
  try {
    session.run();
    report.error = "ran to completion without tripping a limit";
    return report;
  } catch (const interp::EngineError& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "non-EngineError escaped";
    return report;
  }

  // Recovery proof: clean machine state, and the same engine object accepts
  // another run (which may legitimately trip again).
  if (interp.debug_arg_stack_in_use() != 0) {
    report.error += " [argument stack not unwound]";
    return report;
  }
  try {
    interp.run();
  } catch (const interp::EngineError&) {
  } catch (...) {
    report.error += " [re-run crashed]";
    return report;
  }
  report.recovered = true;
  return report;
}

}  // namespace jsceres::fuzz
