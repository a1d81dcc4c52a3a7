#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <chrono>

#include "interp/args.h"
#include "interp/environment.h"
#include "interp/heap.h"
#include "interp/hooks.h"
#include "interp/object.h"
#include "interp/value.h"
#include "js/ast.h"
#include "js/token.h"
#include "support/cancel.h"
#include "support/clock.h"
#include "support/limits.h"
#include "support/rng.h"

namespace jsceres::interp {

/// A JavaScript `throw` propagating through C++ frames. Caught by
/// try/catch statements; escapes `run()` as an EngineError if uncaught.
struct JSException {
  Value value;
};

// EngineError lives in support/limits.h (the sandbox layer below js/ and
// interp/); re-exported here so interp::EngineError keeps working.
using ::jsceres::EngineError;

/// Tree-walking interpreter for the engine's JavaScript subset.
///
/// Deterministic by construction: Math.random is seeded, Date.now /
/// performance.now read the virtual clock, and property enumeration follows
/// insertion order. Every evaluated node advances the cost-model clock, so
/// "CPU time" in the reproduction is a pure function of the executed
/// program.
struct InterpreterConfig {
  std::int64_t max_ticks = -1;  // <0: unlimited
  /// Simulated OS/browser thread preemption: every `preempt_interval_ticks`
  /// of CPU work the engine is suspended for `preempt_block_ns` of
  /// wall-clock. Models the paper's §3.1 observation that "if ... the OS or
  /// Firefox decides to suspend the thread, JS-CERES continues to count the
  /// time as part of the loop" — the mechanism behind In-Loops > Active.
  std::int64_t preempt_interval_ticks = 0;  // 0: disabled
  std::int64_t preempt_block_ns = 0;
  /// Hard resource limits (memory ceiling, array-length cap, wall-clock
  /// watchdog, allocation-failure injection). Every trip raises a
  /// recoverable EngineError; the interpreter stays destructible and
  /// reusable afterwards. The tick budget above and the wall-clock watchdog
  /// are both armed per run window (each run() / top-level call()), so a
  /// tripped interpreter gets a fresh budget on its next entry.
  EngineLimits limits;
  /// Cooperative cancellation/deadline token, observed in the amortized
  /// tick probe (every ~64 ticks, the wall-watchdog cadence). A trip raises
  /// CancelledError — an EngineError, so the recovery/reuse contract is
  /// identical to any other limit trip. The token's CancelSource must
  /// outlive the interpreter's runs; default is inert.
  CancelToken cancel;
};

class Interpreter {
 public:
  using Config = InterpreterConfig;

  /// Keeps a copy of the `program` handle: the program lives at least as
  /// long as the interpreter. Every object the interpreter makes lives in
  /// its heap and is freed with it.
  Interpreter(const js::Program& program, VirtualClock& clock,
              ExecutionHooks* hooks = nullptr, Config config = Config());
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Execute the top-level program.
  void run();

  /// Invoke a callable value (used by builtins, the event loop, tests).
  /// `args` is a borrowed view; vectors and braced lists convert implicitly.
  Value call(const Value& callee, const Value& this_val, Args args);

  /// call(), with the argument list copied into a frame on the reused
  /// ArgStack first — Function.prototype.apply's path. The copy is load-
  /// bearing (the callee may mutate `elements`' owner mid-call, and a
  /// vector reallocation would invalidate a borrowed span), but the frame
  /// comes from the same segmented stack as every other call, so a steady-
  /// state apply() allocates nothing.
  Value call_spread(const Value& callee, const Value& this_val,
                    const std::vector<Value>& elements);

  // --- globals ---
  void define_global(const std::string& name, Value value);
  [[nodiscard]] Value global(const std::string& name);

  // --- object construction (used by builtins and substrate bindings) ---
  JSObject* make_object();
  JSObject* make_array(std::size_t reserve = 0);
  /// A native function object. The builtins are not made here but copied
  /// from the process's realm (interp/realm.h); this is for host bindings.
  /// Every object gets a fresh id from 1 up: the dependence analyzer's
  /// tables treat id 0 as an empty slot.
  JSObject* make_native_function(std::string name, NativeFn fn);
  /// Create an error object ({name, message}) ready to be thrown.
  [[noreturn]] void throw_error(const std::string& kind, const std::string& message);

  // --- property protocol (prototype-chain aware, hook-emitting) ---
  // String-keyed generic path, used for computed accesses and by hosts.
  // Non-computed accesses go through the atom-keyed inline-cached fast path
  // (eval_member_named / assign_member_named below).
  Value property_get(const Value& base, const std::string& key, int line,
                     const BaseProvenance& prov);
  void property_set(const Value& base, const std::string& key, Value value,
                    int line, const BaseProvenance& prov);

  // --- conversions (exposed for builtins) ---
  static bool to_boolean(const Value& v);
  double to_number(const Value& v);
  std::string to_string_value(const Value& v);
  static std::int32_t to_int32(double d);
  static std::uint32_t to_uint32(double d);

  // --- services ---
  [[nodiscard]] VirtualClock& clock() {
    flush_ticks();  // make batched cost-model ticks visible to the reader
    return *clock_;
  }
  [[nodiscard]] ExecutionHooks* hooks() { return hooks_; }
  /// hooks(), with any buffered mode-3 memory events flushed first. Every
  /// non-memory hook emission (loops, calls, creations, host accesses,
  /// clock probes) goes through this so observers see all event kinds in
  /// exact program order despite the memory-event batching.
  ExecutionHooks* sync_hooks() {
    if (!memory_batch_.empty()) flush_memory_events();
    return hooks_;
  }
  /// Internal (FunctionFrame): a hook flush failed inside a destructor,
  /// where propagating would std::terminate. Latch the in-flight exception;
  /// the next flush_ticks() on a normal frame rethrows it. Recovery clears
  /// the latch (when an exception was already unwinding, that one wins).
  void note_hook_failure() noexcept {
    if (deferred_hook_error_ == nullptr) {
      deferred_hook_error_ = std::current_exception();
    }
  }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// The program's atom space: every name this interpreter interns (its
  /// own hot atoms, computed keys, globals) goes through it.
  [[nodiscard]] js::AtomSpace& atoms() const { return atoms_; }
  /// Root of the program's shape tree; every object this interpreter and
  /// its host bindings build hangs off it.
  [[nodiscard]] const Shape* shape_root() const { return shape_root_; }
  [[nodiscard]] const std::string& console_output() const { return console_; }
  void console_write(const std::string& text);
  /// fn_id of the innermost JS function currently executing (0 == top level).
  [[nodiscard]] int current_fn_id() const {
    return fn_stack_.empty() ? 0 : fn_stack_.back();
  }
  /// Report a host API touch to the active instrumentation.
  void note_host_access(HostAccess access, const char* api_name) {
    if (hooks_ != nullptr) sync_hooks()->on_host_access(access, api_name);
  }
  /// Whether the attached hooks want memory-access events (mode 3).
  [[nodiscard]] bool wants_memory_events() const { return memory_events_; }
  /// Native-initiated property write (the builtins' stand-in for a Proxy
  /// trapping Array internals). Buffered with interpreter-emitted memory
  /// events so observers see one stream in program order.
  void note_prop_write(std::uint64_t obj_id, js::Atom key, int line,
                       const BaseProvenance& prov) {
    if (memory_events_) {
      buffer_memory_event(MemoryEvent::Kind::PropWrite, obj_id, key, line, prov);
    }
  }
  /// Charge `ticks` cost-model ticks (used by substrate bindings to model
  /// non-trivial native work, e.g. canvas raster fills).
  void charge(std::int64_t ticks);
  /// Advance wall-clock only (blocking host work: decode, compositor, ...).
  void block(std::int64_t ns);

  /// The per-interpreter allocation ledger (limit introspection, and
  /// arming `fail_after_n_allocations` injection after construction so the
  /// stdlib baseline doesn't consume injection charges).
  [[nodiscard]] AllocationLedger& ledger() { return ledger_; }
  /// Grow an array's dense element store to `new_len`, enforcing
  /// `limits.max_array_length` and charging the ledger for the growth.
  /// All engine-initiated element growth (computed stores past the end,
  /// Array builtins, `new Array(n)`) funnels through here.
  void grow_elements(JSObject& obj, std::size_t new_len);
  /// The length-cap check + ledger charge of grow_elements without the
  /// resize, for callers that append element by element.
  void charge_elements(JSObject& obj, std::size_t new_len);

  [[nodiscard]] JSObject* array_prototype() const { return array_proto_; }
  [[nodiscard]] JSObject* object_prototype() const { return object_proto_; }
  [[nodiscard]] JSObject* string_prototype() const { return string_proto_; }
  [[nodiscard]] JSObject* function_prototype() const { return function_proto_; }

  /// Atom spelling a small array index ("0", "1", ...), served from a
  /// per-interpreter cache so mode-3 instrumentation of hot array loops
  /// stops taking the atom space's lock per element access. Indices beyond
  /// the cache cap fall back to a plain intern.
  [[nodiscard]] js::Atom index_atom(std::size_t index) {
    if (index >= kIndexAtomCacheCap) {
      return atoms().intern(js::number_to_string(double(index)));
    }
    if (index >= index_atom_cache_.size()) index_atom_cache_.resize(index + 1);
    js::Atom& slot = index_atom_cache_[index];
    if (slot.empty()) slot = atoms().intern(js::number_to_string(double(index)));
    return slot;
  }

  // --- test/debug introspection (tests/test_interp_hotpath.cpp) ---
  struct ReadICDebug {
    int ways = 0;
    bool megamorphic = false;
    const Shape* shapes[4] = {nullptr, nullptr, nullptr, nullptr};
  };
  struct WriteICDebug {
    int ways = 0;
    bool megamorphic = false;
    const Shape* shapes[4] = {nullptr, nullptr, nullptr, nullptr};
    bool is_transition[4] = {false, false, false, false};
  };
  [[nodiscard]] ReadICDebug debug_read_ic(std::uint32_t ic_id) const;
  [[nodiscard]] WriteICDebug debug_write_ic(std::uint32_t ic_id) const;
  /// Cumulative inline-cache transition counters for this interpreter.
  /// Plain (non-atomic) members bumped on the hot paths; flushed into the
  /// process-wide obs registry (interp.ic_*) at the end of every run().
  struct ICStats {
    std::uint64_t read_hits = 0;       // PIC way hits at read sites
    std::uint64_t read_misses = 0;     // read_ic_miss entries (incl. generic)
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t megamorphic_trips = 0;  // caching -> megamorphic
    std::uint64_t recaches = 0;           // megamorphic -> caching
  };
  [[nodiscard]] const ICStats& ic_stats() const { return ic_stats_; }
  /// Argument-stack slots currently reserved (0 whenever no call is live).
  [[nodiscard]] std::size_t debug_arg_stack_in_use() const {
    return arg_stack_.in_use();
  }

 private:
  struct Completion {
    enum class Type : std::uint8_t { Normal, Return, Break, Continue };
    Type type = Type::Normal;
    Value value;
  };

  /// Polymorphic (up to kWays-way) inline cache for one named property
  /// *read* site. Ways are probed linearly; a hit is `receiver->shape() ==
  /// way.shape` (own property at `slot`), optionally chained through the
  /// direct prototype (`holder` + `holder_shape` checks) for method lookups
  /// like `arr.push`. On a miss the resolved way is inserted at the front
  /// and the oldest way rotates out; once a full cache keeps missing
  /// (kMegamorphicMisses rotations) the site goes megamorphic and falls
  /// back to `Shape::slot_of` with no cache writes.
  ///
  /// Megamorphic is not terminal: the generic path keeps a one-entry streak
  /// counter (`last_shape`/`stable`), and kRecacheHits consecutive accesses
  /// with the same receiver shape flip the site back to the caching state —
  /// a polymorphic warmup phase (setup code touching many shapes) no longer
  /// condemns the monomorphic steady state that follows it.
  struct ReadIC {
    static constexpr std::uint8_t kWays = 4;
    static constexpr std::uint8_t kMegamorphicMisses = 8;
    static constexpr std::uint8_t kRecacheHits = 16;
    struct Way {
      const Shape* shape = nullptr;
      std::uint32_t slot = 0;
      JSObject* holder = nullptr;  // non-null: prototype hit
      const Shape* holder_shape = nullptr;
    };
    Way ways[kWays];
    std::uint8_t count = 0;   // filled ways (probe bound)
    std::uint8_t misses = 0;  // full-cache misses; saturates into megamorphic
    bool megamorphic = false;
    /// Megamorphic-state streak tracking; compared by identity only (never
    /// dereferenced — the pointers may name shapes this session no longer
    /// reaches). The streak is over the PAIR (receiver shape, holder shape):
    /// a stable receiver over a churning prototype chain must not re-cache,
    /// since the cached way would be invalidated by the very next access.
    /// last_holder is nullptr for own-property accesses.
    const Shape* last_shape = nullptr;
    const Shape* last_holder = nullptr;
    std::uint8_t stable = 0;  // consecutive same-(shape,holder) accesses
  };
  /// Polymorphic inline cache for one named property *write* site: each way
  /// is either an in-place store to `slot`, or (when `new_shape` is set) the
  /// cached property-add transition `shape -> new_shape` appending at
  /// `slot`. Caching the transition target means repeated object-literal /
  /// constructor shapes append without touching the shape tree's mutex.
  /// Megamorphic write sites re-cache exactly like read sites (see ReadIC).
  struct WriteIC {
    static constexpr std::uint8_t kWays = 4;
    static constexpr std::uint8_t kMegamorphicMisses = 8;
    static constexpr std::uint8_t kRecacheHits = 16;
    struct Way {
      const Shape* shape = nullptr;
      std::uint32_t slot = 0;
      const Shape* new_shape = nullptr;
    };
    Way ways[kWays];
    std::uint8_t count = 0;
    std::uint8_t misses = 0;
    bool megamorphic = false;
    /// Streak pair as in ReadIC; writes always resolve on the receiver, so
    /// last_holder stays nullptr and only participates for symmetry.
    const Shape* last_shape = nullptr;
    const Shape* last_holder = nullptr;
    std::uint8_t stable = 0;
  };

  // Statement / expression evaluation.
  Completion exec(const js::Stmt& stmt, Environment* env);
  Completion exec_block(const js::Block& block, Environment* env);
  Value eval(const js::Expr& expr, Environment* env);
  Value eval_call(const js::Call& call, Environment* env);
  Value eval_new(const js::New& node, Environment* env);
  Value eval_member(const js::Member& member, Environment* env);
  Value eval_assign(const js::Assign& assign, Environment* env);
  Value eval_update(const js::Update& update, Environment* env);
  Value eval_binary(const js::Binary& binary, Environment* env);
  Value apply_binary(js::BinaryOp op, const Value& lhs, const Value& rhs, int line);

  Completion exec_for(const js::For& node, Environment* env);
  Completion exec_for_in(const js::ForIn& node, Environment* env);
  Completion exec_while(const js::While& node, Environment* env);
  Completion exec_do_while(const js::DoWhile& node, Environment* env);

  /// Key for a property access; resolves computed indices.
  std::string property_key(const Value& key);

  /// Inline-cached named property read/write (non-computed member sites).
  Value eval_member_named(const Value& base, const js::Member& member,
                          Environment* env);

  /// PIC miss paths: resolve the access, then rotate the resolved way into
  /// the cache (or trip the site megamorphic). Out of line to keep the hit
  /// path small.
  Value read_ic_miss(ReadIC& ic, JSObject& obj, const Shape* shape, js::Atom key);
  void write_ic_miss(WriteIC& ic, JSObject& obj, const Shape* shape, js::Atom key,
                     Value value);

  /// Inline-dispatched evaluation of the two dominant expression leaves
  /// (number literals, identifier reads); everything else forwards to eval.
  /// Charges exactly the same ticks as eval would.
  Value eval_leaf(const js::Expr& expr, Environment* env);

  /// Boolean evaluation of a branch/loop condition. Numeric comparisons —
  /// the dominant loop-condition form — produce the bool directly without a
  /// Value round trip; everything else is to_boolean(eval(...)). Tick
  /// charging matches eval exactly.
  bool eval_condition(const js::Expr& expr, Environment* env);
  void assign_member_named(const Value& base, const js::Member& member,
                           Value value, Environment* env);

  /// Slot-resolved identifier access. Statically resolved references chase
  /// `hops` parent pointers and index the slot directly; global references
  /// go through the per-site global slot cache; unresolved nodes fall back
  /// to the dynamic scope walk. Returns nullptr when the name is unbound
  /// (read path only). `owner` receives the owning environment for
  /// provenance stamping.
  Value* lookup_for_read(js::Atom name, const js::SlotRef& ref,
                         Environment* env, Environment** owner);
  /// Write flavour: a global miss creates the binding (sloppy mode).
  Value* lookup_for_write(js::Atom name, const js::SlotRef& ref,
                          Environment* env, Environment** owner);

  Value call_js_function(JSObject& fn_obj, const Value& this_val,
                         const Value* argv, std::size_t argc);

  /// A fresh object in this session's heap, with the next id.
  JSObject* new_object(JSObject* proto, JSObject::Cls cls = JSObject::Cls::Plain) {
    JSObject* obj = heap_.make<JSObject>(heap_, next_obj_id_++, shape_root(), cls);
    obj->set_prototype(proto);
    return obj;
  }
  JSObject* make_function_from_node(const js::FunctionNode& node, Environment* env);
  void hoist_into(Environment* env, std::span<const js::Atom> vars,
                  std::span<const js::FunctionDecl* const> fns);

  bool strict_equals(const Value& a, const Value& b);
  bool loose_equals(const Value& a, const Value& b);

  /// Charge `n` cost-model ticks. The hot path only bumps a pending counter;
  /// the clock store, sampling probe, budget check and simulated preemption
  /// run in flush_ticks() every `tick_flush_threshold_` ticks (and at every
  /// external observation point: clock(), block(), end of run()/call()), so
  /// all observable totals match per-node charging exactly.
  void tick(std::int64_t n = 1) {
    ticks_pending_ += n;
    if (ticks_pending_ >= tick_flush_threshold_) flush_ticks();
  }
  void flush_ticks();
  /// Exception-safe flush used while unwinding (and by nothing else).
  void flush_ticks_on_unwind() noexcept;

  /// Arm the per-window budgets (tick budget end, wall-clock deadline) at
  /// each outermost entry — run() and depth-0 call(). Re-arming per window
  /// is what makes the interpreter reusable after a budget trip.
  void begin_run_window();
  /// Backstop after an EngineError escapes an outermost entry: the RAII
  /// frames have already unwound, but anything a mid-statement trip left
  /// half-open (call depth, fn stack, buffered memory events, ArgStack
  /// slots) is reset so the next run starts from a clean machine state.
  /// Ends the window for the hooks (on_run_window_end(false)).
  void recover_after_engine_error() noexcept;

  BaseProvenance provenance_of(const js::Expr& base_expr, Environment* env);

  // --- mode-3 memory-event batching (see ExecutionHooks::on_memory_batch) -
  // Every memory-access event is appended here; the buffer drains to the
  // memory sink in one call at each statement boundary and before ANY
  // non-memory hook event, so observers see all events in program order.
  // All emission sites below are already gated on memory_events_, so
  // modes 0-2 never touch the buffer.
  void buffer_memory_event(MemoryEvent::Kind kind, std::uint64_t id, js::Atom name,
                           int line, const BaseProvenance& base = BaseProvenance{}) {
    memory_batch_.push_back(MemoryEvent{kind, line, id, name, base});
  }
  void flush_memory_events() {
    memory_sink_->on_memory_batch(memory_batch_.data(), memory_batch_.size());
    memory_batch_.clear();
  }

  /// A reused or fresh activation environment; only a fresh one charges
  /// the ledger.
  Environment* make_env(Environment* parent) {
    if (!free_envs_.empty()) {
      Environment* env = free_envs_.back();
      free_envs_.pop_back();
      env->rebind(next_env_id_++, parent);
      return env;
    }
    AllocationLedger::charge_current(sizeof(Environment) + 64);
    return heap_.make<Environment>(next_env_id_++, parent);
  }
  /// An activation for one call or catch clause (interpreter.cpp).
  class ActivationScope;

  // Declared first, so it outlives every object below. Atoms and shape root
  // are cached: the computed-key path skips a dereference through the handle.
  const js::Program program_;
  js::AtomSpace& atoms_;
  const Shape* const shape_root_;
  /// Everything the session allocates; freed after the members below.
  Heap heap_;
  VirtualClock* clock_;
  ExecutionHooks* hooks_;
  Config config_;
  AllocationLedger ledger_;
  Rng rng_;

  Environment* global_env_ = nullptr;
  std::vector<Environment*> free_envs_;
  JSObject* object_proto_ = nullptr;
  JSObject* array_proto_ = nullptr;
  JSObject* string_proto_ = nullptr;
  JSObject* function_proto_ = nullptr;

  // Per-interpreter caches indexed by the ids resolve_scopes assigned to
  // the program's AST (the AST itself stays immutable and shareable).
  std::vector<ReadIC> read_ics_;
  std::vector<WriteIC> write_ics_;
  ICStats ic_stats_;
  /// Watermark of what flush_ic_stats() already pushed to the registry, so
  /// repeated run() calls and the destructor only add deltas.
  ICStats ic_stats_flushed_;
  void flush_ic_stats();
  std::vector<std::int32_t> global_ref_cache_;  // -1: not yet resolved

  /// Reused argument storage for Call/New evaluation (see ArgStack).
  ArgStack arg_stack_;
  /// index → atom cache for computed numeric property keys (mode 3).
  static constexpr std::size_t kIndexAtomCacheCap = 4096;
  std::vector<js::Atom> index_atom_cache_;

  // Pre-interned hot atoms.
  js::Atom atom_length_;
  js::Atom atom_prototype_;
  js::Atom atom_constructor_;
  js::Atom atom_name_;
  js::Atom atom_message_;

  std::uint64_t next_env_id_ = 1;
  std::uint64_t next_obj_id_ = 1;
  int call_depth_ = 0;
  std::vector<int> fn_stack_;
  std::int64_t ticks_pending_ = 0;
  std::int64_t tick_flush_threshold_ = 64;
  std::int64_t ticks_since_probe_ = 0;
  std::int64_t ticks_since_preempt_ = 0;
  /// End of the current window's tick budget in cpu_ns (<0: unlimited).
  std::int64_t tick_budget_end_ns_ = -1;
  /// Wall-clock watchdog deadline for the current window.
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool wall_watchdog_ = false;
  bool memory_events_ = false;
  /// Where memory-event batches land: hooks_->memory_event_sink(), cached
  /// at construction (a HookList with one mode-3 consumer resolves to that
  /// consumer, skipping the fan-out layer per flush). Null iff hooks_ is.
  ExecutionHooks* memory_sink_ = nullptr;
  std::vector<MemoryEvent> memory_batch_;
  /// Sandbox trip that surfaced inside a destructor's hook flush (see
  /// note_hook_failure); rethrown by the next flush_ticks() probe.
  std::exception_ptr deferred_hook_error_;
  std::string console_;
};

}  // namespace jsceres::interp
