#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ceres/dependence_analyzer.h"
#include "ceres/lightweight_profiler.h"
#include "ceres/loop_profiler.h"
#include "ceres/sampling_profiler.h"
#include "dom/page.h"
#include "rivertrail/thread_pool.h"

namespace jsceres {

/// The paper's staged Ceres instrumentation modes (§3) — 1 lightweight
/// profiling, 2 loop profiling, 3 dependence analysis — plus Uninstrumented
/// (mode 0: no hooks at all, the engine-only baseline).
enum class CeresMode { Uninstrumented, Lightweight, LoopProfile, Dependence };

/// The supervisor's rung numbering (3 dependence, 1 lightweight, 0 none).
CeresMode mode_of_rung(int rung);

/// Sandbox inputs of one session: the limits, tick budget and cancel token
/// the supervisor hands each attempt. All-default runs unbounded.
struct SessionSandbox {
  EngineLimits limits;
  std::int64_t max_ticks = 0;  // <=0: no tick budget
  CancelToken cancel;
};

/// One analysis session over a parsed program: the virtual clock, the Ceres
/// hooks of its mode, the interpreter, and — when asked for — a dom::Page
/// whose event loop runs after the main script. The workload runner, the
/// supervisor and the fuzz oracles all run the engine through it. Its
/// interpreter and analyzer keep the program alive; the session stays in
/// place (they hold its clock). See src/support/README.md.
class Session {
 public:
  /// `preempt_*`: simulated thread preemption (see InterpreterConfig).
  Session(const js::Program& program, CeresMode mode,
          const SessionSandbox& sandbox = {}, std::int64_t preempt_interval_ticks = 0,
          std::int64_t preempt_block_ns = 0);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] interp::Interpreter& interp() { return *interp_; }
  [[nodiscard]] VirtualClock& clock() { return clock_; }

  // The mode's observers; nullptr when the mode does not install one.
  [[nodiscard]] ceres::LightweightProfiler* lightweight() const { return lightweight_.get(); }
  [[nodiscard]] ceres::SamplingProfiler* sampler() const { return sampler_.get(); }
  [[nodiscard]] ceres::LoopProfiler* loops() const { return loops_.get(); }
  [[nodiscard]] ceres::DependenceAnalyzer* dependence() const { return dependence_.get(); }

  /// Attach a page (document, window, timers, canvas) to the interpreter.
  /// Call before run(); without a page, run() executes the main script only.
  dom::Page& open_page();

  /// Run the page's rAF frames as a kernel -> upload -> commit pipeline on
  /// `pool` (nullptr: a 2-worker pool the session owns). run() applies it
  /// after the main script, once the app has created the `canvas_id` context
  /// the upload stage snapshots (empty: no canvas).
  void enable_frame_graph(rivertrail::ThreadPool* pool = nullptr,
                          std::string canvas_id = {}, std::size_t depth = 2);

  /// Run the main script; with a page, then replay `events` and run the
  /// event loop to `horizon_ms` of virtual time under the sandbox's cancel
  /// token. Engine errors propagate and leave the session inspectable.
  void run(std::int64_t horizon_ms = 0, const std::vector<dom::UserEvent>& events = {});

 private:
  VirtualClock clock_;
  CancelToken cancel_;
  std::unique_ptr<ceres::LightweightProfiler> lightweight_;
  std::unique_ptr<ceres::SamplingProfiler> sampler_;
  std::unique_ptr<ceres::LoopProfiler> loops_;
  std::unique_ptr<ceres::DependenceAnalyzer> dependence_;
  std::unique_ptr<interp::HookList> hook_list_;  // only for two or more hooks
  std::unique_ptr<interp::Interpreter> interp_;
  std::unique_ptr<dom::Page> page_;
  rivertrail::ThreadPool* frame_pool_ = nullptr;  // non-null: frame graph on
  std::string frame_canvas_id_;
  std::size_t frame_depth_ = 2;
  std::unique_ptr<rivertrail::ThreadPool> owned_pool_;  // destroyed first
};

}  // namespace jsceres
