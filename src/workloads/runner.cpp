#include "workloads/runner.h"

#include <stdexcept>

namespace jsceres::workloads {

int line_of_marker(const std::string& source, const std::string& marker) {
  const std::size_t pos = source.find(marker);
  if (pos == std::string::npos) return 0;
  int line = 1;
  for (std::size_t i = 0; i < pos; ++i) {
    if (source[i] == '\n') ++line;
  }
  return line;
}

LightweightResult InstrumentedRun::table2_row() const {
  LightweightResult row;
  row.total_s = clock.wall_seconds();
  if (const ceres::SamplingProfiler* sampler = session.sampler()) {
    row.active_s = sampler->active_seconds();
  } else {
    row.active_s = clock.cpu_seconds();
  }
  if (lightweight != nullptr) {
    row.in_loops_s = lightweight->in_loops_seconds();
  } else if (loops != nullptr) {
    row.in_loops_s = double(loops->total_in_loops_ns()) / 1e9;
  }
  return row;
}

InstrumentedRun::InstrumentedRun(const Workload& workload, Mode mode,
                                 double scale_override, const SessionKnobs* knobs)
    : program(js::parse(workload.source, workload.name,
                        knobs != nullptr ? knobs->limits : EngineLimits{})),
      session(program, mode, knobs != nullptr ? *knobs : SessionKnobs{},
              workload.preempt_interval_ticks, workload.preempt_block_ns),
      clock(session.clock()),
      interp(&session.interp()),
      lightweight(session.lightweight()),
      loops(session.loops()),
      dependence(session.dependence()) {
  double scale = 1.0;
  if (mode == Mode::Dependence) scale = workload.dependence_scale;
  if (scale_override > 0) scale = scale_override;
  interp->define_global("SCALE", interp::Value::number(scale));

  page = &session.open_page();
  if (workload.canvas) {
    page->add_canvas(workload.canvas_id, workload.canvas_w, workload.canvas_h);
  }
  if (workload.pipeline_schedule == rivertrail::PipelineSchedule::FrameGraph) {
    // Frame-graph mode: rAF ticks pipeline kernel -> canvas-upload ->
    // commit over the session's own worker pool so adjacent frames overlap.
    // On a single-core host the workers timeshare, and the overlap shows up
    // in the per-stage span accounting rather than wall clock.
    session.enable_frame_graph(nullptr, workload.canvas_id, workload.pipeline_depth);
  }
  session.run(workload.session_ms, workload.events);

  for (const std::string& marker : workload.nest_markers) {
    const int line = line_of_marker(workload.source, marker);
    const int loop_id = program->loop_id_at_line(line);
    if (line == 0 || loop_id == 0) {
      throw std::runtime_error(workload.name + ": nest marker not found: " + marker);
    }
    nest_roots.push_back(loop_id);
  }
}

InstrumentedRun run_workload(const Workload& workload, Mode mode,
                             double scale_override, const SessionKnobs* knobs) {
  return InstrumentedRun(workload, mode, scale_override, knobs);
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      make_haar(),    make_cloth(),     make_caman(),      make_fluid(),
      make_harmony(), make_ace(),       make_myscript(),   make_raytrace(),
      make_normalmap(), make_sigma(),   make_processing(), make_d3(),
  };
  return workloads;
}

std::vector<SessionOutcome> run_workloads_supervised(
    const std::vector<std::string>& names, rivertrail::ThreadPool& pool,
    std::int64_t deadline_ms,
    const EngineLimits& limits, std::int64_t max_ticks) {
  std::vector<SessionRequest> requests;
  requests.reserve(names.size());
  for (const std::string& name : names) {
    const Workload& workload = workload_by_name(name);  // static storage
    SessionRequest request;
    request.name = name;
    request.mode = 3;
    request.limits = limits;
    request.max_ticks = max_ticks;
    request.deadline_ms = deadline_ms;
    // The attempt body is the real workload runner — page, canvas, user
    // events, SCALE — with the supervisor's per-attempt budgets and token
    // threaded through SessionKnobs. Exceptions propagate for the
    // supervisor to classify.
    request.attempt = [&workload](const SessionRequest&, int mode,
                                  const EngineLimits& attempt_limits,
                                  std::int64_t attempt_ticks,
                                  CancelToken token) {
      const SessionKnobs knobs{attempt_limits, attempt_ticks, token};
      const InstrumentedRun run =
          run_workload(workload, mode_of_rung(mode), 0, &knobs);
      AttemptSuccess success;
      success.console = run.interp->console_output();
      success.cpu_ns = run.clock.cpu_ns();
      success.wall_ns = run.clock.wall_ns();
      return success;
    };
    requests.push_back(std::move(request));
  }
  return SessionSupervisor(pool).run(requests);
}

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::out_of_range("unknown workload: " + name);
}

}  // namespace jsceres::workloads
