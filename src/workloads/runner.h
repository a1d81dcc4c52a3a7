#pragma once

#include <vector>

#include "js/parser.h"
#include "rivertrail/thread_pool.h"
#include "support/session.h"
#include "support/supervisor.h"
#include "workloads/workload.h"

namespace jsceres::workloads {

/// Table 2 row: the three time bases of instrumentation mode 1 + the Gecko
/// emulation.
struct LightweightResult {
  double total_s = 0;     // virtual wall clock at session end
  double active_s = 0;    // sampled CPU-active time
  double in_loops_s = 0;  // mode-1 loop time
};

using Mode = CeresMode;

/// Supervisor-facing knobs threaded into a run_workload session: the
/// sandbox limits, tick budget, and cooperative cancel token of one
/// supervised attempt. All-default knobs reproduce the unsupervised run.
using SessionKnobs = SessionSandbox;

/// A completed instrumented run of one workload; owns everything the
/// analyses reference. Pinned in place like its Session: returned by
/// run_workload through guaranteed copy elision.
struct InstrumentedRun {
  InstrumentedRun(const Workload& workload, Mode mode, double scale_override,
                  const SessionKnobs* knobs);

  js::Program program;
  Session session;

  // Views into `session`, under the names the analyses and benches read.
  VirtualClock& clock;
  interp::Interpreter* interp;
  ceres::LightweightProfiler* lightweight;
  ceres::LoopProfiler* loops;
  ceres::DependenceAnalyzer* dependence;
  dom::Page* page = nullptr;

  /// Loop ids of the workload's reported nests (resolved nest_markers).
  std::vector<int> nest_roots;

  [[nodiscard]] LightweightResult table2_row() const;
};

/// Parse, instrument, run to completion (init + event script + session
/// horizon). `scale_override` > 0 forces the SCALE global (otherwise 1.0
/// for profiling modes, workload.dependence_scale for dependence mode).
/// `knobs` (optional) sandboxes and time-bounds the run for supervision.
InstrumentedRun run_workload(const Workload& workload, Mode mode,
                             double scale_override = 0,
                             const SessionKnobs* knobs = nullptr);

/// Runner integration of the session supervisor: run each named workload as
/// one supervised analysis session over the shared `pool`, requesting mode 3
/// (dependence analysis) and letting the supervisor's policy degrade to
/// mode 1 / mode 0 on limit trips or deadline misses. Outcome i corresponds
/// to names[i].
std::vector<SessionOutcome> run_workloads_supervised(
    const std::vector<std::string>& names, rivertrail::ThreadPool& pool,
    std::int64_t deadline_ms = 0,
    const EngineLimits& limits = {}, std::int64_t max_ticks = 0);

}  // namespace jsceres::workloads
