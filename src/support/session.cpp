#include "support/session.h"

#include <utility>

namespace jsceres {

namespace {

/// The mode -> hooks table, indexed by CeresMode. Mode 1 pairs the
/// lightweight profiler with the Gecko-style sampler (§3.1); both only
/// observe, so console output and virtual clocks are those of mode 0.
struct HookSet {
  bool lightweight_and_sampler, loops, dependence;
};
constexpr HookSet kHooksOf[] = {
    {false, false, false},  // Uninstrumented
    {true, false, false},   // Lightweight
    {false, true, false},   // LoopProfile
    {false, false, true},   // Dependence
};

}  // namespace

CeresMode mode_of_rung(int rung) {
  return rung >= 3   ? CeresMode::Dependence
         : rung >= 1 ? CeresMode::Lightweight
                     : CeresMode::Uninstrumented;
}

Session::Session(const js::Program& program, CeresMode mode, const SessionSandbox& sandbox,
                 std::int64_t preempt_interval_ticks, std::int64_t preempt_block_ns)
    : cancel_(sandbox.cancel) {
  const HookSet& set = kHooksOf[static_cast<int>(mode)];
  std::vector<interp::ExecutionHooks*> hooks;
  if (set.lightweight_and_sampler) {
    lightweight_ = std::make_unique<ceres::LightweightProfiler>(clock_);
    sampler_ = std::make_unique<ceres::SamplingProfiler>(clock_);
    hooks.insert(hooks.end(), {lightweight_.get(), sampler_.get()});
  }
  if (set.loops) {
    loops_ = std::make_unique<ceres::LoopProfiler>(clock_);
    hooks.push_back(loops_.get());
  }
  if (set.dependence) {
    dependence_ = std::make_unique<ceres::DependenceAnalyzer>(program);
    hooks.push_back(dependence_.get());
  }
  // No hooks: a null pointer, so even the per-event virtual dispatch
  // disappears. One hook: passed directly, skipping the fan-out layer.
  interp::ExecutionHooks* root = hooks.size() == 1 ? hooks.front() : nullptr;
  if (hooks.size() > 1) {
    hook_list_ = std::make_unique<interp::HookList>();
    for (interp::ExecutionHooks* hook : hooks) hook_list_->add(hook);
    root = hook_list_.get();
  }

  interp::InterpreterConfig config;
  config.limits = sandbox.limits;
  // The interpreter's "unlimited" sentinel is negative-only (0 would arm a
  // zero-tick budget).
  config.max_ticks = sandbox.max_ticks > 0 ? sandbox.max_ticks : -1;
  config.cancel = sandbox.cancel;
  config.preempt_interval_ticks = preempt_interval_ticks;
  config.preempt_block_ns = preempt_block_ns;
  interp_ = std::make_unique<interp::Interpreter>(program, clock_, root, config);
}

dom::Page& Session::open_page() {
  if (page_ == nullptr) page_ = std::make_unique<dom::Page>(*interp_);
  return *page_;
}

void Session::enable_frame_graph(rivertrail::ThreadPool* pool, std::string canvas_id,
                                 std::size_t depth) {
  if (pool == nullptr) {
    if (owned_pool_ == nullptr) owned_pool_ = std::make_unique<rivertrail::ThreadPool>(2);
    pool = owned_pool_.get();
  }
  frame_pool_ = pool;
  frame_canvas_id_ = std::move(canvas_id);
  frame_depth_ = depth;
}

void Session::run(std::int64_t horizon_ms, const std::vector<dom::UserEvent>& events) {
  interp_->run();
  if (page_ != nullptr) {
    dom::EventLoop& loop = page_->event_loop();
    loop.push_user_events(events);
    if (frame_pool_ != nullptr) {
      const auto canvas = page_->canvas_context(frame_canvas_id_);
      loop.enable_frame_graph(*frame_pool_, canvas.get(), frame_depth_);
    }
    loop.run(horizon_ms, cancel_);
  }
  if (sampler_ != nullptr) sampler_->finish();
}

}  // namespace jsceres
