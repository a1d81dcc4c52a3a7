#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "js/atom.h"

namespace jsceres::interp {

/// Static loop metadata forwarded to hooks (mirrors js::LoopSite, duplicated
/// here to keep the hook interface free of front-end includes).
struct LoopEvent {
  int loop_id = 0;
  int line = 0;
  int kind = 0;  // cast of js::LoopKind
};

/// How the base object of a property access was reached. The dependence
/// analysis characterizes a property access by the *reference path*: when a
/// loop body writes `p.vX` and `p` is a `var` binding hoisted to function
/// scope, the access inherits the binding's sharing across iterations (the
/// paper's Fig. 6 walkthrough); when the object is reached anonymously
/// (e.g. `bodies[i].vX`), the object's own creation stamp is used.
struct BaseProvenance {
  enum class Kind : std::uint8_t {
    Object,   // complex base expression: use the object's creation stamp
    Binding,  // base was an identifier: use the owning environment's stamp
    This,     // base was `this`: use the call environment's stamp
  };
  Kind kind = Kind::Object;
  std::uint64_t env_id = 0;  // valid for Binding / This
};

/// One variable or property access, delivered only inside
/// ExecutionHooks::on_memory_batch.
/// `id` is the environment id for Var* kinds and the object id for Prop*
/// kinds; `base` is meaningful for Prop* kinds only.
struct MemoryEvent {
  enum class Kind : std::uint8_t { VarWrite, VarRead, PropWrite, PropRead };
  Kind kind = Kind::VarWrite;
  int line = 0;
  std::uint64_t id = 0;
  js::Atom name;
  BaseProvenance base;
};

/// Category of host (browser-substrate) API touched by a native call.
enum class HostAccess : std::uint8_t {
  Dom,      // document tree reads/writes
  Canvas,   // 2D context draw calls / image data
  WebGl,    // shader-style calls
  Storage,  // localStorage-style calls
  Timer,    // setTimeout / requestAnimationFrame
  Network,  // simulated resource loading
};

/// Engine-level instrumentation interface — the reproduction's equivalent of
/// JS-CERES's source-to-source instrumentation. The interpreter emits these
/// events as it executes; the three instrumentation modes of the paper
/// (lightweight profiling, loop profiling, dependence analysis) are
/// implementations of this interface in `src/ceres`.
///
/// Memory accesses arrive only as batches (on_memory_batch); every other
/// event is one call. All callbacks default to no-ops so a mode only pays
/// for what it observes.
class ExecutionHooks {
 public:
  virtual ~ExecutionHooks() = default;

  // --- loops ---
  virtual void on_loop_enter(const LoopEvent&) {}
  /// Fired before each iteration's body executes (after the condition).
  virtual void on_loop_iteration(const LoopEvent&) {}
  virtual void on_loop_exit(const LoopEvent&) {}

  // --- calls ---
  virtual void on_function_enter(int /*fn_id*/) {}
  virtual void on_function_exit(int /*fn_id*/) {}

  // --- heap / environments ---
  virtual void on_env_created(std::uint64_t /*env_id*/) {}
  virtual void on_object_created(std::uint64_t /*obj_id*/, int /*line*/) {}

  // --- memory accesses ---
  /// The one delivery path for mode-3 variable and property accesses. The
  /// interpreter buffers memory events per statement and flushes the run in
  /// ONE virtual call (BM_DependenceEndToEnd is bounded by event *emission*,
  /// not analysis). Events arrive in exact program order, and the
  /// interpreter flushes the buffer before emitting any non-memory event, so
  /// a batch never straddles a loop, call or creation event. Names are
  /// interned atoms: variable names by the lexer, property keys by the
  /// emitter (statically-known keys at parse time, computed keys on first
  /// use), so implementations can key their tables on atom identity and
  /// still read the text through js::Atom's implicit string conversion.
  /// Interpreters only pay the computed-key interning when a hook actually
  /// wants memory events.
  virtual void on_memory_batch(const MemoryEvent* /*events*/, std::size_t /*count*/) {}

  // --- substrate ---
  virtual void on_host_access(HostAccess, const char* /*api_name*/) {}

  /// Periodic low-frequency callback (every few dozen cost-model ticks and
  /// after event-loop idle jumps); used by the sampling profiler.
  virtual void on_clock_advance(int /*current_fn_id*/) {}

  /// The close of an outermost run window: the end of Interpreter::run and
  /// of an outermost Interpreter::call, still inside the window's ledger
  /// scope and after the last memory batch of the window was delivered.
  /// `completed` is false when the window unwinds with an error (a JS throw,
  /// a limit or tick trip, a deadline or a cancel); the call is then made
  /// from the unwind and must not throw. An observer that defers work past
  /// its callbacks (the dependence analyzer analyzes its stream in
  /// segments) finishes it here, so whatever it charges to the session's
  /// ledger lands inside the window that caused it.
  virtual void on_run_window_end(bool /*completed*/) {}

  /// Whether memory-access callbacks are wanted at all. The interpreter
  /// checks this once per access site; returning false keeps the lightweight
  /// and loop-profiling modes cheap (the paper's reason for staging modes).
  [[nodiscard]] virtual bool wants_memory_events() const { return false; }

  /// The object memory-event batches should be delivered to. A composite
  /// with exactly ONE member that wants memory events returns that member,
  /// letting the interpreter skip the fan-out layer on every flush (e.g. a
  /// HookList holding one DependenceAnalyzer next to observers that do not
  /// want memory events).
  [[nodiscard]] virtual ExecutionHooks* memory_event_sink() { return this; }
};

/// Fan-out composite so several observers (e.g. loop profiler + sampling
/// profiler) can be attached to one run.
class HookList final : public ExecutionHooks {
 public:
  void add(ExecutionHooks* hooks) {
    if (hooks == nullptr) return;
    hooks_.push_back(hooks);
    // Cache the memory-events fan-out at add() time: the interpreter and
    // builtins query this per access site, and re-walking the observer list
    // on every query made the cheap modes pay for the expensive one.
    wants_memory_ = wants_memory_ || hooks->wants_memory_events();
  }

  void on_loop_enter(const LoopEvent& e) override {
    for (auto* h : hooks_) h->on_loop_enter(e);
  }
  void on_loop_iteration(const LoopEvent& e) override {
    for (auto* h : hooks_) h->on_loop_iteration(e);
  }
  void on_loop_exit(const LoopEvent& e) override {
    for (auto* h : hooks_) h->on_loop_exit(e);
  }
  void on_function_enter(int fn_id) override {
    for (auto* h : hooks_) h->on_function_enter(fn_id);
  }
  void on_function_exit(int fn_id) override {
    for (auto* h : hooks_) h->on_function_exit(fn_id);
  }
  void on_env_created(std::uint64_t env_id) override {
    for (auto* h : hooks_) h->on_env_created(env_id);
  }
  void on_object_created(std::uint64_t obj_id, int line) override {
    for (auto* h : hooks_) h->on_object_created(obj_id, line);
  }
  void on_memory_batch(const MemoryEvent* events, std::size_t count) override {
    // Whole-batch fan-out: every observer sees the whole stream, in order,
    // and in the same place relative to the non-memory events.
    for (auto* h : hooks_) h->on_memory_batch(events, count);
  }
  void on_host_access(HostAccess access, const char* api_name) override {
    for (auto* h : hooks_) h->on_host_access(access, api_name);
  }
  void on_clock_advance(int fn_id) override {
    for (auto* h : hooks_) h->on_clock_advance(fn_id);
  }
  void on_run_window_end(bool completed) override {
    for (auto* h : hooks_) h->on_run_window_end(completed);
  }
  [[nodiscard]] bool wants_memory_events() const override {
    return wants_memory_;
  }
  [[nodiscard]] ExecutionHooks* memory_event_sink() override {
    ExecutionHooks* sole = nullptr;
    for (auto* h : hooks_) {
      if (!h->wants_memory_events()) continue;
      if (sole != nullptr) return this;  // several consumers: keep fan-out
      sole = h->memory_event_sink();
    }
    return sole != nullptr ? sole : this;
  }

 private:
  std::vector<ExecutionHooks*> hooks_;
  bool wants_memory_ = false;
};

}  // namespace jsceres::interp
