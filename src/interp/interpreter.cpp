#include "interp/interpreter.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>

#include "interp/realm.h"
#include "support/obs.h"

namespace jsceres::interp {

namespace {

constexpr std::uint64_t kRandomSeed = 42;  // Math.random: same draws every run
constexpr int kMaxCallDepth = 256;         // deeper JS calls throw RangeError

/// Canonical array index parse: "0", "1", ... without leading zeros.
bool index_from_string(const std::string& key, std::size_t* out) {
  if (key.empty() || key.size() > 10) return false;
  if (key.size() > 1 && key[0] == '0') return false;
  std::size_t value = 0;
  for (const char c : key) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + std::size_t(c - '0');
  }
  *out = value;
  return true;
}

// typeof's answers, borrowed by the string Values it returns.
const std::string kTypeofUndefined = "undefined";
const std::string kTypeofObject = "object";
const std::string kTypeofBoolean = "boolean";
const std::string kTypeofNumber = "number";
const std::string kTypeofString = "string";
const std::string kTypeofFunction = "function";

bool number_as_index(double d, std::size_t* out) {
  if (!(d >= 0) || d != std::floor(d) || d >= 4294967295.0) return false;
  *out = std::size_t(d);
  return true;
}

/// RAII guard pairing on_function_enter / on_function_exit even when a JS
/// exception unwinds through C++ frames.
class FunctionFrame {
 public:
  FunctionFrame(Interpreter& interp, std::vector<int>& stack, int fn_id)
      : interp_(interp), stack_(stack), fn_id_(fn_id) {
    stack_.push_back(fn_id_);
    if (interp_.hooks() != nullptr) interp_.sync_hooks()->on_function_enter(fn_id_);
  }
  ~FunctionFrame() {
    stack_.pop_back();
    // sync_hooks: memory events buffered by the body flush before the exit.
    // The flush can trip the sandbox (the analyzer's tables charge the
    // ledger), and a destructor is an implicitly-noexcept frame — letting
    // the trip escape would terminate the process whether or not another
    // exception is unwinding. Latch it instead; the next probe rethrows.
    if (interp_.hooks() == nullptr) return;
    try {
      interp_.sync_hooks()->on_function_exit(fn_id_);
    } catch (...) {
      interp_.note_hook_failure();
    }
  }

 private:
  Interpreter& interp_;
  std::vector<int>& stack_;
  int fn_id_;
};

}  // namespace

/// On exit, including by an exception, an activation no closure can have
/// captured (the resolver's `recyclable` flags) goes back to the free list.
class Interpreter::ActivationScope {
 public:
  ActivationScope(Interpreter& interp, Environment* parent, bool recyclable)
      : interp_(interp), env_(interp.make_env(parent)), recyclable_(recyclable) {}
  ~ActivationScope() {
    if (!recyclable_) return;
    env_->clear_for_reuse();
    interp_.free_envs_.push_back(env_);
  }
  ActivationScope(const ActivationScope&) = delete;
  ActivationScope& operator=(const ActivationScope&) = delete;

  [[nodiscard]] Environment* env() const { return env_; }

 private:
  Interpreter& interp_;
  Environment* env_;
  bool recyclable_;
};

Interpreter::Interpreter(const js::Program& program, VirtualClock& clock,
                         ExecutionHooks* hooks, Config config)
    : program_(program),
      atoms_(program_->atoms),
      shape_root_(program_->shape_root.get()),
      clock_(&clock),
      hooks_(hooks),
      config_(config),
      ledger_(config.limits),
      rng_(kRandomSeed) {
  memory_events_ = hooks_ != nullptr && hooks_->wants_memory_events();
  if (hooks_ != nullptr) memory_sink_ = hooks_->memory_event_sink();

  // Prefix atoms (js/atom.cpp), so the space answers without creating one.
  atom_length_ = atoms().intern("length");
  atom_prototype_ = atoms().intern("prototype");
  atom_constructor_ = atoms().intern("constructor");
  atom_name_ = atoms().intern("name");
  atom_message_ = atoms().intern("message");

  if (config_.preempt_interval_ticks > 0) {
    tick_flush_threshold_ =
        std::min<std::int64_t>(64, config_.preempt_interval_ticks);
  }

  // Per-site caches sized by the resolver's id assignment.
  read_ics_.resize(program_->ic_count);
  write_ics_.resize(program_->ic_count);
  global_ref_cache_.assign(program_->global_ref_count, -1);

  global_env_ = make_env(nullptr);
  if (hooks_ != nullptr) sync_hooks()->on_env_created(global_env_->id());

  // The builtins and their global bindings: this interpreter's own copy of
  // the process's realm, ids 1 up, made in one step in the heap's first
  // chunk.
  Realm::Copy realm = Realm::get().instantiate(heap_, shape_root(), *global_env_);
  object_proto_ = realm.object_proto;
  array_proto_ = realm.array_proto;
  string_proto_ = realm.string_proto;
  function_proto_ = realm.function_proto;
  next_obj_id_ = realm.next_obj_id;
}

Interpreter::~Interpreter() {
  // Callbacks run via call() after the last run() (event-loop sessions)
  // accrue IC transitions too; push the remainder before teardown. The heap
  // member then frees every object and environment in one step.
  flush_ic_stats();
}

void Interpreter::begin_run_window() {
  if (config_.max_ticks >= 0) {
    tick_budget_end_ns_ =
        clock_->cpu_ns() + config_.max_ticks * VirtualClock::kTickNs;
  }
  if (config_.limits.max_wall_ms > 0) {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(config_.limits.max_wall_ms);
    wall_watchdog_ = true;
  }
}

void Interpreter::recover_after_engine_error() noexcept {
  // The RAII frames (ArgFrame, FunctionFrame, call-depth catch blocks)
  // unwind their own state; this clears whatever a mid-statement trip can
  // leave half-open so the next run window starts clean.
  if (hooks_ != nullptr) hooks_->on_run_window_end(false);
  call_depth_ = 0;
  fn_stack_.clear();
  memory_batch_.clear();
  arg_stack_.unwind_all();
  ticks_pending_ = 0;
  // A trip latched during the unwind is redundant with the error that
  // triggered this recovery; dropping it keeps the next window clean.
  deferred_hook_error_ = nullptr;
}

void Interpreter::flush_ticks_on_unwind() noexcept {
  // Exception-path flush: charge pending ticks so caller-owned clocks stay
  // exact, but never let a budget overrun replace the in-flight exception.
  try {
    flush_ticks();
  } catch (...) {
    // Budget exhaustion discovered while unwinding: the original error wins.
  }
}

void Interpreter::flush_ticks() {
  // Surface a sandbox trip that was latched inside a destructor's hook
  // flush (see FunctionFrame): this is the first probe on a normal frame,
  // where throwing is safe and the usual recovery contract applies.
  if (deferred_hook_error_ != nullptr) {
    std::exception_ptr error = deferred_hook_error_;
    deferred_hook_error_ = nullptr;
    std::rethrow_exception(error);
  }
  // Charge the batched ticks to the clock and run the low-frequency work
  // (sampling probe, budget check, simulated preemption). The probe cadence
  // (every ~64 ticks) and all totals are identical to charging per node;
  // only the store into the clock is amortized over the batch.
  // Drain the memory-event buffer even when no ticks are pending: every
  // external observation point (clock(), end of run()/call(), unwinding)
  // funnels through here, so observers never see a stale event stream.
  if (!memory_batch_.empty()) flush_memory_events();
  const std::int64_t pending = ticks_pending_;
  if (pending == 0) return;
  ticks_pending_ = 0;
  clock_->tick(pending);
  ticks_since_probe_ += pending;
  if (ticks_since_probe_ >= 64) {
    ticks_since_probe_ = 0;
    if (hooks_ != nullptr) sync_hooks()->on_clock_advance(current_fn_id());
    if (tick_budget_end_ns_ >= 0 && clock_->cpu_ns() > tick_budget_end_ns_) {
      throw EngineError("tick budget exceeded");
    }
    if (wall_watchdog_ && std::chrono::steady_clock::now() > wall_deadline_) {
      throw EngineError("wall-clock limit exceeded (" +
                        std::to_string(config_.limits.max_wall_ms) + "ms)");
    }
    // Cooperative cancellation rides the same amortized probe: a supervisor
    // cancel or expired deadline surfaces as CancelledError (an EngineError,
    // so the reuse/recovery contract is the limit-trip one).
    config_.cancel.raise_if_cancelled();
  }
  if (config_.preempt_interval_ticks > 0) {
    ticks_since_preempt_ += pending;
    if (ticks_since_preempt_ >= config_.preempt_interval_ticks) {
      ticks_since_preempt_ = 0;
      block(config_.preempt_block_ns);
    }
  }
}

void Interpreter::charge(std::int64_t ticks) { tick(ticks); }

void Interpreter::block(std::int64_t ns) {
  flush_ticks();
  clock_->block_ns(ns);
  if (hooks_ != nullptr) sync_hooks()->on_clock_advance(current_fn_id());
}

void Interpreter::charge_elements(JSObject& obj, std::size_t new_len) {
  const std::size_t len = obj.elements().size();
  if (new_len <= len) return;
  const std::size_t cap = config_.limits.max_array_length;
  if (cap != 0 && new_len > cap) {
    throw EngineError("array length limit exceeded: " + std::to_string(new_len) +
                      " > " + std::to_string(cap));
  }
  ledger_.charge((new_len - len) * sizeof(Value));
}

void Interpreter::grow_elements(JSObject& obj, std::size_t new_len) {
  if (new_len <= obj.elements().size()) return;
  charge_elements(obj, new_len);
  obj.elements().resize(new_len);
}

void Interpreter::console_write(const std::string& text) {
  console_ += text;
  console_ += '\n';
}

// ---------------------------------------------------------------------------
// Object construction
// ---------------------------------------------------------------------------

JSObject* Interpreter::make_object() {
  JSObject* obj = new_object(object_proto_);
  if (hooks_ != nullptr) sync_hooks()->on_object_created(obj->id(), 0);
  return obj;
}

JSObject* Interpreter::make_array(std::size_t reserve) {
  JSObject* obj = new_object(array_proto_, JSObject::Cls::Array);
  if (reserve > 0) {
    charge_elements(*obj, reserve);
    obj->elements().reserve(reserve);
  }
  if (hooks_ != nullptr) sync_hooks()->on_object_created(obj->id(), 0);
  return obj;
}

JSObject* Interpreter::make_native_function(std::string name, NativeFn fn) {
  return native_function_object(heap_, next_obj_id_++, shape_root(), function_proto_,
                                std::move(name), std::move(fn));
}

JSObject* Interpreter::make_function_from_node(const js::FunctionNode& node,
                                            Environment* env) {
  JSObject* obj = new_object(function_proto_, JSObject::Cls::Function);
  auto* data = heap_.make<FunctionData>();
  data->decl = &node;
  data->closure = env;
  data->name = node.name;
  data->fn_id = node.fn_id;
  obj->set_function(data);
  // Constructor protocol: every function carries a fresh `prototype` object.
  JSObject* proto = new_object(object_proto_);
  // No `proto.constructor` backref: it would give every function's
  // prototype a property, and so change its shape, its keys and the
  // ledger's charges. Nothing in the engine or the study corpus reads
  // `constructor` (documented simplification).
  obj->set_property(atom_prototype_, Value::object(proto));
  if (hooks_ != nullptr) sync_hooks()->on_object_created(obj->id(), node.line);
  return obj;
}

void Interpreter::throw_error(const std::string& kind, const std::string& message) {
  JSObject* obj = new_object(object_proto_);
  obj->set_property(atom_name_, Value::str(kind));
  obj->set_property(atom_message_, Value::str(message));
  throw JSException{Value::object(obj)};
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

bool Interpreter::to_boolean(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Undefined:
    case Value::Kind::Null:
      return false;
    case Value::Kind::Boolean:
      return v.as_boolean();
    case Value::Kind::Number:
      return v.as_number() != 0 && !std::isnan(v.as_number());
    case Value::Kind::String:
      return !v.as_string().empty();
    case Value::Kind::Object:
      return true;
  }
  return false;
}

double Interpreter::to_number(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Undefined:
      return std::numeric_limits<double>::quiet_NaN();
    case Value::Kind::Null:
      return 0;
    case Value::Kind::Boolean:
      return v.as_boolean() ? 1 : 0;
    case Value::Kind::Number:
      return v.as_number();
    case Value::Kind::String: {
      const std::string& s = v.as_string();
      std::size_t begin = 0;
      std::size_t end = s.size();
      while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
      while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
      if (begin == end) return 0;
      char* parse_end = nullptr;
      const std::string trimmed = s.substr(begin, end - begin);
      const double d = std::strtod(trimmed.c_str(), &parse_end);
      if (parse_end != trimmed.c_str() + trimmed.size()) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return d;
    }
    case Value::Kind::Object:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return 0;
}

std::string Interpreter::to_string_value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Undefined:
      return "undefined";
    case Value::Kind::Null:
      return "null";
    case Value::Kind::Boolean:
      return v.as_boolean() ? "true" : "false";
    case Value::Kind::Number:
      return js::number_to_string(v.as_number());
    case Value::Kind::String:
      return v.as_string();
    case Value::Kind::Object: {
      JSObject* obj = v.as_object();
      if (obj->is_array()) {
        std::string out;
        for (std::size_t i = 0; i < obj->elements().size(); ++i) {
          if (i > 0) out += ",";
          const Value& e = obj->elements()[i];
          if (!e.is_nullish()) out += to_string_value(e);
        }
        return out;
      }
      if (obj->is_function()) {
        const auto* fn = obj->function();
        return "function " + (fn != nullptr ? fn->name : "") + "() { ... }";
      }
      return "[object Object]";
    }
  }
  return "";
}

std::int32_t Interpreter::to_int32(double d) {
  if (std::isnan(d) || std::isinf(d)) return 0;
  return std::int32_t(std::uint32_t(std::fmod(std::trunc(d), 4294967296.0)));
}

std::uint32_t Interpreter::to_uint32(double d) {
  if (std::isnan(d) || std::isinf(d)) return 0;
  return std::uint32_t(std::int64_t(std::fmod(std::trunc(d), 4294967296.0)));
}

std::string Interpreter::property_key(const Value& key) {
  if (key.is_string()) return key.as_string();
  if (key.is_number()) return js::number_to_string(key.as_number());
  return to_string_value(key);
}

// ---------------------------------------------------------------------------
// Property protocol
// ---------------------------------------------------------------------------

Value Interpreter::property_get(const Value& base, const std::string& key, int line,
                                const BaseProvenance& prov) {
  if (base.is_string()) {
    const std::string& s = base.as_string();
    if (key == "length") return Value::number(double(s.size()));
    if (const Value* method = string_proto_->own_property(atoms(), key)) return *method;
    std::size_t index = 0;
    if (index_from_string(key, &index) && index < s.size()) {
      return Value::str(std::string(1, s[index]));
    }
    return Value::undefined();
  }
  if (base.is_number()) {
    // Allow Number method lookups (toFixed) through a tiny implicit box.
    if (const Value* method = string_proto_->own_property(atoms(), key)) return *method;
    return Value::undefined();
  }
  if (!base.is_object()) {
    throw_error("TypeError",
                "cannot read property '" + key + "' of " + to_string_value(base));
  }
  JSObject* obj = base.as_object();
  if (obj->host() != nullptr) {
    note_host_access(obj->host()->category(), key.c_str());
  }

  if (obj->is_array()) {
    if (key == "length") return Value::number(double(obj->elements().size()));
    std::size_t index = 0;
    if (index_from_string(key, &index)) {
      // Only mode 3 needs an atom for the key, and it comes from the
      // per-interpreter index cache — no atom-table lock in hot loops.
      if (memory_events_) {
        buffer_memory_event(MemoryEvent::Kind::PropRead, obj->id(), index_atom(index), line, prov);
      }
      return index < obj->elements().size() ? obj->elements()[index]
                                            : Value::undefined();
    }
  }
  if (memory_events_) {
    buffer_memory_event(MemoryEvent::Kind::PropRead, obj->id(), atoms().intern(key), line, prov);
  }
  for (const JSObject* walk = obj; walk != nullptr;
       walk = walk->prototype()) {
    if (const Value* found = walk->own_property(atoms(), key)) return *found;
  }
  return Value::undefined();
}

void Interpreter::property_set(const Value& base, const std::string& key, Value value,
                               int line, const BaseProvenance& prov) {
  if (!base.is_object()) {
    throw_error("TypeError",
                "cannot set property '" + key + "' of " + to_string_value(base));
  }
  JSObject* obj = base.as_object();
  if (obj->host() != nullptr) {
    note_host_access(obj->host()->category(), key.c_str());
  }
  std::size_t index = 0;
  const bool is_index = obj->is_array() && index_from_string(key, &index);
  if (memory_events_) {
    buffer_memory_event(MemoryEvent::Kind::PropWrite, obj->id(),
                        is_index ? index_atom(index) : atoms().intern(key), line, prov);
  }

  if (obj->is_array()) {
    if (key == "length") {
      std::size_t n = 0;
      if (number_as_index(to_number(value), &n)) {
        if (n > obj->elements().size()) grow_elements(*obj, n);
        else obj->elements().resize(n);
      }
      return;
    }
    if (is_index) {
      if (index >= obj->elements().size()) grow_elements(*obj, index + 1);
      obj->elements()[index] = std::move(value);
      return;
    }
  }
  obj->set_property(atoms(), key, std::move(value));
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

void Interpreter::define_global(const std::string& name, Value value) {
  global_env_->declare(atoms().intern(name), std::move(value));
}

Value Interpreter::global(const std::string& name) {
  js::Atom atom;
  const Value* slot = atoms().try_find(name, &atom) ? global_env_->own_slot(atom) : nullptr;
  return slot == nullptr ? Value::undefined() : *slot;
}

// ---------------------------------------------------------------------------
// Identifier resolution — the slot-resolved fast paths
// ---------------------------------------------------------------------------

Value* Interpreter::lookup_for_read(js::Atom name, const js::SlotRef& ref,
                                    Environment* env, Environment** owner) {
  if (ref.hops >= 0) {
    // Statically resolved: two pointer chases, no hashing.
    Environment* target = env->ancestor(ref.hops);
    *owner = target;
    return target->slot_at(ref.slot);
  }
  if (ref.ref_id != js::kNoCacheId) {
    // Global reference: hash once per site, then direct slot index (global
    // bindings are never removed, so a cached index stays valid).
    Environment* global = global_env_;
    *owner = global;
    std::int32_t& cached = global_ref_cache_[ref.ref_id];
    if (cached >= 0) return global->slot_at(std::uint32_t(cached));
    const std::int64_t index = global->slot_index(name);
    if (index < 0) return nullptr;
    cached = std::int32_t(index);
    return global->slot_at(std::uint32_t(index));
  }
  // Unresolved AST (synthesized without resolve_scopes): dynamic walk.
  const Environment::Resolution res = env->resolve(name);
  *owner = res.env;
  return res.slot;
}

Value* Interpreter::lookup_for_write(js::Atom name, const js::SlotRef& ref,
                                     Environment* env, Environment** owner) {
  if (ref.hops >= 0) {
    Environment* target = env->ancestor(ref.hops);
    *owner = target;
    return target->slot_at(ref.slot);
  }
  Environment* global = global_env_;
  if (ref.ref_id != js::kNoCacheId) {
    *owner = global;
    std::int32_t& cached = global_ref_cache_[ref.ref_id];
    if (cached >= 0) return global->slot_at(std::uint32_t(cached));
    std::int64_t index = global->slot_index(name);
    if (index < 0) {
      // Sloppy-mode JavaScript: assigning an undeclared name creates a global.
      global->declare(name, Value::undefined());
      index = global->slot_index(name);
    }
    cached = std::int32_t(index);
    return global->slot_at(std::uint32_t(index));
  }
  const Environment::Resolution res = env->resolve(name);
  if (res.slot != nullptr) {
    *owner = res.env;
    return res.slot;
  }
  *owner = global;
  global->declare(name, Value::undefined());
  return global->own_slot(name);
}

// ---------------------------------------------------------------------------
// Equality
// ---------------------------------------------------------------------------

bool Interpreter::strict_equals(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::Undefined:
    case Value::Kind::Null:
      return true;
    case Value::Kind::Boolean:
      return a.as_boolean() == b.as_boolean();
    case Value::Kind::Number:
      return a.as_number() == b.as_number();
    case Value::Kind::String:
      return a.as_string() == b.as_string();
    case Value::Kind::Object:
      return a.as_object() == b.as_object();
  }
  return false;
}

bool Interpreter::loose_equals(const Value& a, const Value& b) {
  if (a.kind() == b.kind()) return strict_equals(a, b);
  if (a.is_nullish() && b.is_nullish()) return true;
  if (a.is_nullish() || b.is_nullish()) return false;
  if (a.is_object() || b.is_object()) {
    // Compare via string representation when one side is an object
    // (sufficient for the study corpus, which compares primitives).
    return to_string_value(a) == to_string_value(b);
  }
  return to_number(a) == to_number(b);
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

void Interpreter::hoist_into(Environment* env, std::span<const js::Atom> vars,
                             std::span<const js::FunctionDecl* const> fns) {
  for (const auto& name : vars) {
    if (!env->has_own(name)) env->declare(name, Value::undefined());
  }
  for (const auto* decl : fns) {
    env->declare(decl->fn->name, Value::object(make_function_from_node(*decl->fn, env)));
  }
}

Value Interpreter::call(const Value& callee, const Value& this_val, Args args) {
  if (!callee.is_object() || !callee.as_object()->is_function()) {
    throw_error("TypeError", to_string_value(callee) + " is not a function");
  }
  JSObject& fn_obj = *callee.as_object();
  const FunctionData& fn = *fn_obj.function();
  if (fn.native) {
    tick(2);
    return fn.native(*this, this_val, args);
  }
  const bool outermost = call_depth_ == 0;
  std::optional<AllocationLedger::Scope> ledger_scope;
  if (outermost) {
    ledger_scope.emplace(&ledger_);
    begin_run_window();
  }
  Value result;
  try {
    result = call_js_function(fn_obj, this_val, args.data(), args.size());
    if (outermost) {
      flush_ticks();  // external observers see exact totals
      if (hooks_ != nullptr) hooks_->on_run_window_end(true);
    }
  } catch (...) {
    if (outermost) {
      flush_ticks_on_unwind();
      recover_after_engine_error();
    }
    throw;
  }
  return result;
}

Value Interpreter::call_spread(const Value& callee, const Value& this_val,
                               const std::vector<Value>& elements) {
  // The snapshot into a frame is required (the callee can mutate the array
  // mid-call, and a reallocation would invalidate a borrowed span), but it
  // goes through the reused segmented ArgStack, so steady-state apply()
  // touches no allocator.
  ArgFrame frame(arg_stack_, elements.size());
  Value* slots = frame.data();
  for (std::size_t i = 0; i < elements.size(); ++i) slots[i] = elements[i];
  return call(callee, this_val, frame.args());
}

Value Interpreter::call_js_function(JSObject& fn_obj, const Value& this_val,
                                    const Value* argv, std::size_t argc) {
  const FunctionData& fn = *fn_obj.function();
  const js::FunctionNode& node = *fn.decl;
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    throw_error("RangeError", "maximum call stack size exceeded");
  }

  const ActivationScope activation(*this, fn.closure, node.recyclable_activation);
  Environment* env = activation.env();
  // Stamp the activation from the resolver's template when the function has
  // enough names for the per-call declare scan (quadratic in the name
  // count) to matter; for tiny activations a handful of pointer compares
  // beats the template stamp. Each slot is written exactly once: the
  // resolver's per-slot init provenance replaces the old fill-undefined-
  // then-store-params double write (entry-written slots skip the zero-fill).
  if (node.layout != nullptr && node.layout->names.size() > 4) {
    const js::ActivationLayout& layout = *node.layout;
    using SlotInit = js::ActivationLayout::SlotInit;
    env->adopt_layout(layout.names, [&](std::size_t slot) -> Value {
      const js::ActivationLayout::SlotSource& src = layout.inits[slot];
      switch (src.kind) {
        case SlotInit::Param:
          return src.index < argc ? argv[src.index] : Value::undefined();
        case SlotInit::Fn:
          return Value::object(
              make_function_from_node(*node.hoisted_functions[src.index]->fn, env));
        case SlotInit::Zero:
        default:
          return Value::undefined();
      }
    });
    if (!layout.fns_in_slot_order) {
      // Degenerate shadowing (a function re-binding a parameter or an
      // earlier function): store in declaration order so closure-object
      // creation order matches the declare-scan path exactly.
      for (std::size_t j = 0; j < node.hoisted_functions.size(); ++j) {
        *env->slot_at(layout.fn_slots[j]) = Value::object(
            make_function_from_node(*node.hoisted_functions[j]->fn, env));
      }
    }
  } else {
    // Synthesized AST that never went through resolve_scopes.
    env->reserve(node.params.size() + node.hoisted_vars.size());
    for (std::size_t i = 0; i < node.params.size(); ++i) {
      env->declare(node.params[i], i < argc ? argv[i] : Value::undefined());
    }
    hoist_into(env, node.hoisted_vars, node.hoisted_functions);
  }
  env->set_this(this_val);
  if (hooks_ != nullptr) sync_hooks()->on_env_created(env->id());

  FunctionFrame frame(*this, fn_stack_, node.fn_id);
  tick(3);
  Value result;
  try {
    Completion completion = exec(*static_cast<const js::Block*>(node.body), env);
    if (completion.type == Completion::Type::Return) result = std::move(completion.value);
  } catch (...) {
    --call_depth_;
    throw;
  }
  --call_depth_;
  return result;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

void Interpreter::flush_ic_stats() {
#if JSCERES_OBS
  const auto delta = [](std::uint64_t cur, std::uint64_t& flushed) {
    const std::uint64_t d = cur - flushed;
    flushed = cur;
    return d;
  };
  JSCERES_OBS_COUNT("interp.ic_read_hits",
                    delta(ic_stats_.read_hits, ic_stats_flushed_.read_hits));
  JSCERES_OBS_COUNT(
      "interp.ic_read_misses",
      delta(ic_stats_.read_misses, ic_stats_flushed_.read_misses));
  JSCERES_OBS_COUNT("interp.ic_write_hits",
                    delta(ic_stats_.write_hits, ic_stats_flushed_.write_hits));
  JSCERES_OBS_COUNT(
      "interp.ic_write_misses",
      delta(ic_stats_.write_misses, ic_stats_flushed_.write_misses));
  JSCERES_OBS_COUNT("interp.ic_megamorphic_trips",
                    delta(ic_stats_.megamorphic_trips,
                          ic_stats_flushed_.megamorphic_trips));
  JSCERES_OBS_COUNT("interp.ic_recaches",
                    delta(ic_stats_.recaches, ic_stats_flushed_.recaches));
  JSCERES_OBS_HIST("interp.ledger_peak_bytes", ledger_.peak());
#endif
}

void Interpreter::run() {
  const AllocationLedger::Scope ledger_scope(&ledger_);
  begin_run_window();
  try {
    hoist_into(global_env_, program_->hoisted_vars, program_->hoisted_functions);
    for (const auto& stmt : program_->statements) {
      const Completion completion = exec(*stmt, global_env_);
      if (completion.type != Completion::Type::Normal) break;
    }
    flush_ticks();
    if (hooks_ != nullptr) hooks_->on_run_window_end(true);
    flush_ic_stats();
  } catch (const JSException& ex) {
    flush_ticks_on_unwind();
    flush_ic_stats();
    std::string name = "Error";
    std::string message = to_string_value(ex.value);
    if (ex.value.is_object()) {
      if (const Value* n = ex.value.as_object()->own_property(atom_name_)) {
        name = to_string_value(*n);
      }
      if (const Value* m = ex.value.as_object()->own_property(atom_message_)) {
        message = to_string_value(*m);
      }
    }
    recover_after_engine_error();
    throw EngineError("uncaught " + name + ": " + message);
  } catch (...) {
    flush_ticks_on_unwind();
    flush_ic_stats();
    recover_after_engine_error();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::Completion Interpreter::exec_block(const js::Block& block,
                                                Environment* env) {
  for (const auto& stmt : block.statements) {
    Completion completion = exec(*stmt, env);
    if (completion.type != Completion::Type::Normal) return completion;
  }
  return {};
}

Interpreter::Completion Interpreter::exec(const js::Stmt& stmt, Environment* env) {
  tick(1);
  switch (stmt.kind) {
    case js::NodeKind::Block:
      return exec_block(static_cast<const js::Block&>(stmt), env);
    case js::NodeKind::ExprStmt:
      eval(*static_cast<const js::ExprStmt&>(stmt).expr, env);
      return {};
    case js::NodeKind::VarDecl: {
      const auto& decl = static_cast<const js::VarDecl&>(stmt);
      for (const auto& d : decl.declarators) {
        if (!d.init) continue;
        Value value = eval(*d.init, env);
        Environment* owner = nullptr;
        Value* slot = lookup_for_write(d.name, d.ref, env, &owner);
        if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarWrite, owner->id(), d.name, stmt.line);
        *slot = std::move(value);
      }
      return {};
    }
    case js::NodeKind::FunctionDecl:
      return {};  // bound during hoisting
    case js::NodeKind::If: {
      const auto& node = static_cast<const js::If&>(stmt);
      if (eval_condition(*node.condition, env)) return exec(*node.consequent, env);
      if (node.alternate) return exec(*node.alternate, env);
      return {};
    }
    case js::NodeKind::For:
      return exec_for(static_cast<const js::For&>(stmt), env);
    case js::NodeKind::ForIn:
      return exec_for_in(static_cast<const js::ForIn&>(stmt), env);
    case js::NodeKind::While:
      return exec_while(static_cast<const js::While&>(stmt), env);
    case js::NodeKind::DoWhile:
      return exec_do_while(static_cast<const js::DoWhile&>(stmt), env);
    case js::NodeKind::Return: {
      const auto& node = static_cast<const js::Return&>(stmt);
      Completion completion;
      completion.type = Completion::Type::Return;
      if (node.value) completion.value = eval(*node.value, env);
      return completion;
    }
    case js::NodeKind::Break:
      return {Completion::Type::Break, {}};
    case js::NodeKind::Continue:
      return {Completion::Type::Continue, {}};
    case js::NodeKind::Empty:
      return {};
    case js::NodeKind::Throw:
      throw JSException{eval(*static_cast<const js::Throw&>(stmt).value, env)};
    case js::NodeKind::TryCatch: {
      const auto& node = static_cast<const js::TryCatch&>(stmt);
      Completion completion;
      try {
        completion = exec(*node.try_block, env);
      } catch (const JSException& ex) {
        if (node.catch_block) {
          const ActivationScope activation(*this, env, node.recyclable_catch_scope);
          Environment* catch_env = activation.env();
          catch_env->declare(node.catch_param, ex.value);
          if (hooks_ != nullptr) sync_hooks()->on_env_created(catch_env->id());
          completion = exec(*node.catch_block, catch_env);
        } else {
          if (node.finally_block) exec(*node.finally_block, env);
          throw;
        }
      }
      if (node.finally_block) {
        const Completion fin = exec(*node.finally_block, env);
        if (fin.type != Completion::Type::Normal) return fin;
      }
      return completion;
    }
    default:
      throw EngineError("unexpected statement node");
  }
}

// ---------------------------------------------------------------------------
// Loops — the instrumented events the whole study hangs off
// ---------------------------------------------------------------------------

namespace {
LoopEvent loop_event(int loop_id, int line, js::LoopKind kind) {
  return LoopEvent{loop_id, line, int(kind)};
}
}  // namespace

Interpreter::Completion Interpreter::exec_for(const js::For& node, Environment* env) {
  if (node.init) exec(*node.init, env);
  const LoopEvent event = loop_event(node.loop_id, node.line, js::LoopKind::For);
  if (hooks_ != nullptr) sync_hooks()->on_loop_enter(event);
  Completion result;
  while (true) {
    if (node.condition && !eval_condition(*node.condition, env)) break;
    if (hooks_ != nullptr) sync_hooks()->on_loop_iteration(event);
    Completion completion = exec(*node.body, env);
    if (completion.type == Completion::Type::Break) break;
    if (completion.type == Completion::Type::Return) {
      result = std::move(completion);
      break;
    }
    if (node.update) eval(*node.update, env);
  }
  if (hooks_ != nullptr) sync_hooks()->on_loop_exit(event);
  return result;
}

Interpreter::Completion Interpreter::exec_while(const js::While& node,
                                                Environment* env) {
  const LoopEvent event = loop_event(node.loop_id, node.line, js::LoopKind::While);
  if (hooks_ != nullptr) sync_hooks()->on_loop_enter(event);
  Completion result;
  while (eval_condition(*node.condition, env)) {
    if (hooks_ != nullptr) sync_hooks()->on_loop_iteration(event);
    Completion completion = exec(*node.body, env);
    if (completion.type == Completion::Type::Break) break;
    if (completion.type == Completion::Type::Return) {
      result = std::move(completion);
      break;
    }
  }
  if (hooks_ != nullptr) sync_hooks()->on_loop_exit(event);
  return result;
}

Interpreter::Completion Interpreter::exec_do_while(const js::DoWhile& node,
                                                   Environment* env) {
  const LoopEvent event = loop_event(node.loop_id, node.line, js::LoopKind::DoWhile);
  if (hooks_ != nullptr) sync_hooks()->on_loop_enter(event);
  Completion result;
  do {
    if (hooks_ != nullptr) sync_hooks()->on_loop_iteration(event);
    Completion completion = exec(*node.body, env);
    if (completion.type == Completion::Type::Break) break;
    if (completion.type == Completion::Type::Return) {
      result = std::move(completion);
      break;
    }
  } while (eval_condition(*node.condition, env));
  if (hooks_ != nullptr) sync_hooks()->on_loop_exit(event);
  return result;
}

Interpreter::Completion Interpreter::exec_for_in(const js::ForIn& node,
                                                 Environment* env) {
  const Value object = eval(*node.object, env);
  const LoopEvent event = loop_event(node.loop_id, node.line, js::LoopKind::ForIn);
  if (hooks_ != nullptr) sync_hooks()->on_loop_enter(event);
  Completion result;

  std::vector<Value> keys;
  if (object.is_object()) {
    JSObject* obj = object.as_object();
    if (obj->is_array()) {
      keys.reserve(obj->elements().size() + obj->key_order().size());
      for (std::size_t i = 0; i < obj->elements().size(); ++i) {
        keys.push_back(Value::str(js::number_to_string(double(i))));
      }
    }
    for (const auto& key : obj->key_order()) keys.push_back(Value::str(key));
  }

  for (auto& key : keys) {
    Environment* owner = nullptr;
    Value* slot = lookup_for_write(node.var_name, node.var_ref, env, &owner);
    if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarWrite, owner->id(), node.var_name, node.line);
    *slot = std::move(key);
    if (hooks_ != nullptr) sync_hooks()->on_loop_iteration(event);
    Completion completion = exec(*node.body, env);
    if (completion.type == Completion::Type::Break) break;
    if (completion.type == Completion::Type::Return) {
      result = std::move(completion);
      break;
    }
  }
  if (hooks_ != nullptr) sync_hooks()->on_loop_exit(event);
  return result;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

BaseProvenance Interpreter::provenance_of(const js::Expr& base_expr, Environment* env) {
  if (base_expr.kind == js::NodeKind::Ident) {
    const auto& ident = static_cast<const js::Ident&>(base_expr);
    Environment* owner = nullptr;
    if (lookup_for_read(ident.name, ident.ref, env, &owner) != nullptr) {
      return BaseProvenance{BaseProvenance::Kind::Binding, owner->id()};
    }
    return BaseProvenance{BaseProvenance::Kind::Object, 0};
  }
  if (base_expr.kind == js::NodeKind::ThisExpr) {
    const Environment* owner = env->this_env();
    if (owner != nullptr) {
      return BaseProvenance{BaseProvenance::Kind::This, owner->id()};
    }
  }
  return BaseProvenance{BaseProvenance::Kind::Object, 0};
}

Value Interpreter::eval(const js::Expr& expr, Environment* env) {
  tick(1);
  switch (expr.kind) {
    case js::NodeKind::NumberLit:
      return Value::number(static_cast<const js::NumberLit&>(expr).value);
    case js::NodeKind::StringLit:
      return Value::str(static_cast<const js::StringLit&>(expr).value);
    case js::NodeKind::BoolLit:
      return Value::boolean(static_cast<const js::BoolLit&>(expr).value);
    case js::NodeKind::NullLit:
      return Value::null();
    case js::NodeKind::Ident: {
      const auto& ident = static_cast<const js::Ident&>(expr);
      Environment* owner = nullptr;
      const Value* slot = lookup_for_read(ident.name, ident.ref, env, &owner);
      if (slot == nullptr) {
        throw_error("ReferenceError", ident.name.str() + " is not defined");
      }
      if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarRead, owner->id(), ident.name, expr.line);
      return *slot;
    }
    case js::NodeKind::ThisExpr: {
      const Value* this_val = env->this_value();
      return this_val == nullptr ? Value::undefined() : *this_val;
    }
    case js::NodeKind::ArrayLit: {
      const auto& lit = static_cast<const js::ArrayLit&>(expr);
      JSObject* arr = new_object(array_proto_, JSObject::Cls::Array);
      if (hooks_ != nullptr) sync_hooks()->on_object_created(arr->id(), expr.line);
      charge_elements(*arr, lit.elements.size());
      arr->elements().reserve(lit.elements.size());
      const BaseProvenance prov{BaseProvenance::Kind::Object, 0};
      for (std::size_t i = 0; i < lit.elements.size(); ++i) {
        arr->elements().push_back(eval(*lit.elements[i], env));
        if (memory_events_) {
          buffer_memory_event(MemoryEvent::Kind::PropWrite, arr->id(), index_atom(i),
                                expr.line, prov);
        }
      }
      return Value::object(arr);
    }
    case js::NodeKind::ObjectLit: {
      const auto& lit = static_cast<const js::ObjectLit&>(expr);
      JSObject* obj = new_object(object_proto_);
      if (hooks_ != nullptr) sync_hooks()->on_object_created(obj->id(), expr.line);
      const BaseProvenance prov{BaseProvenance::Kind::Object, 0};
      for (const auto& [key, value_expr] : lit.properties) {
        obj->set_property(key, eval(*value_expr, env));
        if (memory_events_) buffer_memory_event(MemoryEvent::Kind::PropWrite, obj->id(), key, expr.line, prov);
      }
      return Value::object(obj);
    }
    case js::NodeKind::FunctionExpr: {
      const auto& node = static_cast<const js::FunctionExpr&>(expr);
      return Value::object(make_function_from_node(*node.fn, env));
    }
    case js::NodeKind::Call:
      return eval_call(static_cast<const js::Call&>(expr), env);
    case js::NodeKind::New:
      return eval_new(static_cast<const js::New&>(expr), env);
    case js::NodeKind::Member:
      return eval_member(static_cast<const js::Member&>(expr), env);
    case js::NodeKind::Assign:
      return eval_assign(static_cast<const js::Assign&>(expr), env);
    case js::NodeKind::Conditional: {
      const auto& node = static_cast<const js::Conditional&>(expr);
      return to_boolean(eval(*node.condition, env)) ? eval(*node.consequent, env)
                                                    : eval(*node.alternate, env);
    }
    case js::NodeKind::Binary:
      return eval_binary(static_cast<const js::Binary&>(expr), env);
    case js::NodeKind::Logical: {
      const auto& node = static_cast<const js::Logical&>(expr);
      Value lhs = eval(*node.lhs, env);
      if (node.op == js::LogicalOp::And) {
        return to_boolean(lhs) ? eval(*node.rhs, env) : lhs;
      }
      return to_boolean(lhs) ? lhs : eval(*node.rhs, env);
    }
    case js::NodeKind::Unary: {
      const auto& node = static_cast<const js::Unary&>(expr);
      switch (node.op) {
        case js::UnaryOp::Neg:
          return Value::number(-to_number(eval(*node.operand, env)));
        case js::UnaryOp::Plus:
          return Value::number(to_number(eval(*node.operand, env)));
        case js::UnaryOp::Not:
          return Value::boolean(!to_boolean(eval(*node.operand, env)));
        case js::UnaryOp::BitNot:
          return Value::number(double(~to_int32(to_number(eval(*node.operand, env)))));
        case js::UnaryOp::TypeOf: {
          // typeof tolerates unresolved identifiers.
          if (node.operand->kind == js::NodeKind::Ident) {
            const auto& ident = static_cast<const js::Ident&>(*node.operand);
            Environment* owner = nullptr;
            if (lookup_for_read(ident.name, ident.ref, env, &owner) == nullptr) {
              return Value::borrowed_str(kTypeofUndefined);
            }
          }
          const Value v = eval(*node.operand, env);
          switch (v.kind()) {
            case Value::Kind::Undefined: return Value::borrowed_str(kTypeofUndefined);
            case Value::Kind::Null: return Value::borrowed_str(kTypeofObject);
            case Value::Kind::Boolean: return Value::borrowed_str(kTypeofBoolean);
            case Value::Kind::Number: return Value::borrowed_str(kTypeofNumber);
            case Value::Kind::String: return Value::borrowed_str(kTypeofString);
            case Value::Kind::Object:
              return Value::borrowed_str(v.as_object()->is_function() ? kTypeofFunction
                                                                      : kTypeofObject);
          }
          return Value::borrowed_str(kTypeofUndefined);
        }
        case js::UnaryOp::Delete: {
          const auto& member = static_cast<const js::Member&>(*node.operand);
          const Value base = eval(*member.object, env);
          if (!base.is_object()) return Value::boolean(true);
          std::string key = member.computed ? property_key(eval(*member.index, env))
                                            : member.property.str();
          JSObject* obj = base.as_object();
          std::size_t index = 0;
          if (obj->is_array() && index_from_string(key, &index)) {
            if (index < obj->elements().size()) {
              obj->elements()[index] = Value::undefined();
            }
            return Value::boolean(true);
          }
          return Value::boolean(obj->delete_property(atoms(), key));
        }
      }
      return Value::undefined();
    }
    case js::NodeKind::Update:
      return eval_update(static_cast<const js::Update&>(expr), env);
    case js::NodeKind::Sequence: {
      const auto& node = static_cast<const js::Sequence&>(expr);
      Value last;
      for (const auto& e : node.exprs) last = eval(*e, env);
      return last;
    }
    default:
      throw EngineError("unexpected expression node");
  }
}

Value Interpreter::eval_member(const js::Member& member, Environment* env) {
  const Value base = eval_leaf(*member.object, env);
  if (member.computed) {
    const Value key = eval_leaf(*member.index, env);
    // Fast path: numeric index into a dense array. Mode 3 takes it too —
    // the element-read event's key atom comes from the per-interpreter
    // index cache instead of interning a freshly formatted string, so hot
    // array loops never touch the process-wide atom-table lock.
    if (base.is_object() && base.as_object()->is_array() && key.is_number() &&
        base.as_object()->host() == nullptr) {
      std::size_t index = 0;
      if (number_as_index(key.as_number(), &index)) {
        JSObject& obj = *base.as_object();
        if (memory_events_) {
          buffer_memory_event(MemoryEvent::Kind::PropRead, obj.id(), index_atom(index),
                              member.line, provenance_of(*member.object, env));
        }
        const auto& elements = obj.elements();
        return index < elements.size() ? elements[index] : Value::undefined();
      }
    }
    return property_get(base, property_key(key), member.line,
                        memory_events_ ? provenance_of(*member.object, env)
                                       : BaseProvenance{});
  }
  return eval_member_named(base, member, env);
}

/// Named (non-computed) property read with a polymorphic shape inline
/// cache: steady state is a linear probe of up to four (shape, slot) ways —
/// one pointer compare per way — plus one indexed load.
Value Interpreter::eval_member_named(const Value& base, const js::Member& member,
                                     Environment* env) {
  const js::Atom key = member.property;
  if (base.is_object()) {
    JSObject& obj = *base.as_object();
    if (obj.host() != nullptr) {
      note_host_access(obj.host()->category(), key.str().c_str());
    }
    if (obj.is_array() && key == atom_length_) {
      return Value::number(double(obj.elements().size()));
    }
    if (memory_events_) {
      buffer_memory_event(MemoryEvent::Kind::PropRead, obj.id(), key, member.line,
                           provenance_of(*member.object, env));
    }
    const Shape* shape = obj.shape();
    if (shape != nullptr && member.ic_id != js::kNoCacheId) {
      ReadIC& ic = read_ics_[member.ic_id];
      for (std::uint8_t i = 0; i < ic.count; ++i) {
        const ReadIC::Way& way = ic.ways[i];
        if (way.shape != shape) continue;
        if (way.holder == nullptr) {
          ++ic_stats_.read_hits;
          return *obj.prop_slot(way.slot);
        }
        if (obj.prototype() == way.holder &&
            way.holder->shape() == way.holder_shape) {
          ++ic_stats_.read_hits;
          return *way.holder->prop_slot(way.slot);
        }
        break;  // receiver matched but the holder moved: re-resolve
      }
      return read_ic_miss(ic, obj, shape, key);
    }
    for (const JSObject* walk = &obj; walk != nullptr;
         walk = walk->prototype()) {
      if (const Value* found = walk->own_property(key)) return *found;
    }
    return Value::undefined();
  }
  // Non-object bases (string/number/nullish): one implementation lives in
  // the generic string-keyed path.
  return property_get(base, key.str(), member.line, BaseProvenance{});
}

namespace {

/// Rotate `way` into the front of a PIC's way array: an existing way for
/// the same shape is overwritten in place (holder revalidation); otherwise
/// ways shift down one slot and the oldest falls off the end. Returns false
/// when the cache was full and a way was evicted (a megamorphic signal).
template <typename IC, typename Way>
bool pic_insert(IC& ic, const Way& way) {
  for (std::uint8_t i = 0; i < ic.count; ++i) {
    if (ic.ways[i].shape == way.shape) {
      ic.ways[i] = way;
      return true;
    }
  }
  const bool evicted = ic.count == IC::kWays;
  const std::uint8_t tail = evicted ? IC::kWays - 1 : ic.count++;
  for (std::uint8_t i = tail; i > 0; --i) ic.ways[i] = ic.ways[i - 1];
  ic.ways[0] = way;
  return !evicted;
}

/// Megamorphic-state streak tracking: called with the (receiver shape,
/// holder shape) pair of a generic (megamorphic) access — holder_shape is
/// nullptr when the property resolved on the receiver itself. Returns true
/// when kRecacheHits consecutive accesses shared one pair — the site is
/// reset to the caching state (the caller's normal insert path then
/// repopulates the ways), so a site condemned during a polymorphic warmup
/// phase recovers once the workload settles on one shape. Tracking the pair
/// (not the receiver alone) keeps a stable receiver over a CHURNING
/// prototype chain megamorphic: re-caching it would install a way the very
/// next access invalidates, paying resolve-and-insert forever.
template <typename IC>
bool recache_if_stable(IC& ic, const Shape* shape, const Shape* holder_shape) {
  if (shape == ic.last_shape && holder_shape == ic.last_holder) {
    if (++ic.stable < IC::kRecacheHits) return false;
    ic.megamorphic = false;
    ic.misses = 0;
    ic.stable = 0;
    ic.last_shape = nullptr;
    ic.last_holder = nullptr;
    return true;
  }
  ic.last_shape = shape;
  ic.last_holder = holder_shape;
  ic.stable = 1;
  return false;
}

}  // namespace

Value Interpreter::read_ic_miss(ReadIC& ic, JSObject& obj, const Shape* shape,
                                js::Atom key) {
  ++ic_stats_.read_misses;
  const std::int32_t own = shape->slot_of(key);
  if (own >= 0) {
    // Own-property access: the streak holder is the nullptr sentinel. A
    // megamorphic site that just crossed the stable-(shape,holder) streak
    // re-enters caching here — the insert below runs on this very access.
    if (ic.megamorphic && recache_if_stable(ic, shape, nullptr)) {
      ++ic_stats_.recaches;
    }
    if (!ic.megamorphic &&
        !pic_insert(ic, ReadIC::Way{shape, std::uint32_t(own), nullptr, nullptr}) &&
        ++ic.misses >= ReadIC::kMegamorphicMisses) {
      ic.megamorphic = true;
      ic.count = 0;  // stop probing stale ways; all accesses go generic
      ++ic_stats_.megamorphic_trips;
    }
    return *obj.prop_slot(std::uint32_t(own));
  }
  // Not an own property: resolve the direct-prototype holder FIRST, so the
  // megamorphic streak can be fed with the pair it would actually cache.
  JSObject* proto = obj.prototype();
  const Shape* proto_shape = proto != nullptr ? proto->shape() : nullptr;
  const std::int32_t proto_slot =
      proto_shape != nullptr ? proto_shape->slot_of(key) : -1;
  if (proto_slot >= 0) {
    if (ic.megamorphic && recache_if_stable(ic, shape, proto_shape)) {
      ++ic_stats_.recaches;
    }
    if (!ic.megamorphic) {
      if (!pic_insert(ic, ReadIC::Way{shape, std::uint32_t(proto_slot), proto,
                                      proto_shape}) &&
          ++ic.misses >= ReadIC::kMegamorphicMisses) {
        ic.megamorphic = true;
        ic.count = 0;
        ++ic_stats_.megamorphic_trips;
      }
      return *proto->prop_slot(std::uint32_t(proto_slot));
    }
  }
  // Megamorphic site, or a deeper/dictionary-mode holder or absent key.
  // Uncacheable resolutions are streak-neutral: they could never be served
  // by a re-cached way, so they neither build nor break a stable streak.
  // Generic prototype walk with no cache churn (`own` above already settled
  // the receiver).
  if (proto_slot >= 0) return *proto->prop_slot(std::uint32_t(proto_slot));
  for (const JSObject* walk = obj.prototype(); walk != nullptr;
       walk = walk->prototype()) {
    if (const Value* found = walk->own_property(key)) return *found;
  }
  return Value::undefined();
}

/// Named property write with a store inline cache: an in-place slot store or
/// a cached property-add shape transition.
void Interpreter::assign_member_named(const Value& base, const js::Member& member,
                                      Value value, Environment* env) {
  const js::Atom key = member.property;
  if (!base.is_object()) {
    throw_error("TypeError",
                "cannot set property '" + key.str() + "' of " + to_string_value(base));
  }
  JSObject& obj = *base.as_object();
  if (obj.host() != nullptr) {
    note_host_access(obj.host()->category(), key.str().c_str());
  }
  if (memory_events_) {
    buffer_memory_event(MemoryEvent::Kind::PropWrite, obj.id(), key, member.line,
                          provenance_of(*member.object, env));
  }
  if (obj.is_array() && key == atom_length_) {
    std::size_t n = 0;
    if (number_as_index(to_number(value), &n)) {
      if (n > obj.elements().size()) grow_elements(obj, n);
      else obj.elements().resize(n);
    }
    return;
  }
  const Shape* shape = obj.shape();
  if (shape != nullptr && member.ic_id != js::kNoCacheId) {
    WriteIC& ic = write_ics_[member.ic_id];
    for (std::uint8_t i = 0; i < ic.count; ++i) {
      const WriteIC::Way& way = ic.ways[i];
      if (way.shape != shape) continue;
      ++ic_stats_.write_hits;
      if (way.new_shape == nullptr) {
        *obj.prop_slot(way.slot) = std::move(value);
      } else {
        // Cached property-add transition: append without consulting the
        // shape tree (no transition-map mutex on the steady-state path).
        obj.append_prop(way.new_shape, std::move(value));
      }
      return;
    }
    write_ic_miss(ic, obj, shape, key, std::move(value));
    return;
  }
  obj.set_property(key, std::move(value));
}

void Interpreter::write_ic_miss(WriteIC& ic, JSObject& obj, const Shape* shape,
                                js::Atom key, Value value) {
  ++ic_stats_.write_misses;
  if (ic.megamorphic) {
    if (!recache_if_stable(ic, shape, nullptr)) {
      obj.set_property(key, std::move(value));
      return;
    }
    ++ic_stats_.recaches;
  }
  const std::int32_t own = shape->slot_of(key);
  if (own < 0 && shape->frozen()) {
    // A realm copy adding a property leaves the frozen tree for dictionary
    // mode; there is no transition to cache.
    obj.set_property(key, std::move(value));
    return;
  }
  WriteIC::Way way;
  if (own >= 0) {
    way = WriteIC::Way{shape, std::uint32_t(own), nullptr};
  } else {
    way = WriteIC::Way{shape, shape->slot_count(), shape->transition(key)};
  }
  if (!pic_insert(ic, way) && ++ic.misses >= WriteIC::kMegamorphicMisses) {
    ic.megamorphic = true;
    ic.count = 0;
    ++ic_stats_.megamorphic_trips;
  }
  if (way.new_shape == nullptr) {
    *obj.prop_slot(way.slot) = std::move(value);
  } else {
    obj.append_prop(way.new_shape, std::move(value));
  }
}

Value Interpreter::eval_assign(const js::Assign& assign, Environment* env) {
  if (assign.target->kind == js::NodeKind::Ident) {
    const auto& ident = static_cast<const js::Ident&>(*assign.target);
    Value value;
    if (assign.op == js::AssignOp::None) {
      value = eval(*assign.value, env);
    } else {
      Environment* owner = nullptr;
      const Value* pre = lookup_for_read(ident.name, ident.ref, env, &owner);
      if (pre == nullptr) {
        throw_error("ReferenceError", ident.name.str() + " is not defined");
      }
      if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarRead, owner->id(), ident.name, assign.line);
      // Copy before evaluating the RHS: the RHS may declare new bindings,
      // which can reallocate the slot storage behind `pre`.
      const Value current = *pre;
      value = apply_binary(js::BinaryOp(int(assign.op) - 1 + int(js::BinaryOp::Add)),
                           current, eval(*assign.value, env), assign.line);
    }
    Environment* owner = nullptr;
    Value* slot = lookup_for_write(ident.name, ident.ref, env, &owner);
    if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarWrite, owner->id(), ident.name, assign.line);
    *slot = value;
    return value;
  }

  const auto& member = static_cast<const js::Member&>(*assign.target);
  const Value base = eval_leaf(*member.object, env);

  if (!member.computed) {
    Value value;
    if (assign.op == js::AssignOp::None) {
      value = eval(*assign.value, env);
    } else {
      const Value current = eval_member_named(base, member, env);
      value = apply_binary(js::BinaryOp(int(assign.op) - 1 + int(js::BinaryOp::Add)),
                           current, eval(*assign.value, env), assign.line);
    }
    assign_member_named(base, member, value, env);
    return value;
  }

  const Value key_val = eval_leaf(*member.index, env);
  // Fast path mirror of eval_member: numeric index into a dense array, in
  // every mode — mode 3 buffers its events with index-cache atoms.
  if (base.is_object() && base.as_object()->is_array() && key_val.is_number() &&
      base.as_object()->host() == nullptr) {
    std::size_t index = 0;
    if (number_as_index(key_val.as_number(), &index)) {
      JSObject& obj = *base.as_object();
      const BaseProvenance prov = memory_events_ ? provenance_of(*member.object, env)
                                                 : BaseProvenance{};
      Value value;
      if (assign.op == js::AssignOp::None) {
        value = eval(*assign.value, env);
      } else {
        if (memory_events_) {
          buffer_memory_event(MemoryEvent::Kind::PropRead, obj.id(), index_atom(index),
                              assign.line, prov);
        }
        const Value current = index < obj.elements().size() ? obj.elements()[index]
                                                            : Value::undefined();
        value = apply_binary(js::BinaryOp(int(assign.op) - 1 + int(js::BinaryOp::Add)),
                             current, eval(*assign.value, env), assign.line);
      }
      if (memory_events_) {
        buffer_memory_event(MemoryEvent::Kind::PropWrite, obj.id(), index_atom(index),
                            assign.line, prov);
      }
      if (index >= obj.elements().size()) grow_elements(obj, index + 1);
      obj.elements()[index] = value;
      return value;
    }
  }
  std::string key = property_key(key_val);
  const BaseProvenance prov = memory_events_ ? provenance_of(*member.object, env)
                                             : BaseProvenance{};
  Value value;
  if (assign.op == js::AssignOp::None) {
    value = eval(*assign.value, env);
  } else {
    const Value current = property_get(base, key, assign.line, prov);
    value = apply_binary(js::BinaryOp(int(assign.op) - 1 + int(js::BinaryOp::Add)),
                         current, eval(*assign.value, env), assign.line);
  }
  property_set(base, key, value, assign.line, prov);
  return value;
}

Value Interpreter::eval_update(const js::Update& update, Environment* env) {
  const double delta = update.increment ? 1 : -1;
  if (update.target->kind == js::NodeKind::Ident) {
    const auto& ident = static_cast<const js::Ident&>(*update.target);
    Environment* owner = nullptr;
    Value* slot = lookup_for_read(ident.name, ident.ref, env, &owner);
    if (slot == nullptr) {
      throw_error("ReferenceError", ident.name.str() + " is not defined");
    }
    const double before = to_number(*slot);
    if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarWrite, owner->id(), ident.name, update.line);
    *slot = Value::number(before + delta);
    return Value::number(update.prefix ? before + delta : before);
  }
  const auto& member = static_cast<const js::Member&>(*update.target);
  const Value base = eval_leaf(*member.object, env);
  if (!member.computed) {
    const double before = to_number(eval_member_named(base, member, env));
    assign_member_named(base, member, Value::number(before + delta), env);
    return Value::number(update.prefix ? before + delta : before);
  }
  std::string key = property_key(eval(*member.index, env));
  const BaseProvenance prov = memory_events_ ? provenance_of(*member.object, env)
                                             : BaseProvenance{};
  const double before = to_number(property_get(base, key, update.line, prov));
  property_set(base, key, Value::number(before + delta), update.line, prov);
  return Value::number(update.prefix ? before + delta : before);
}

Value Interpreter::eval_call(const js::Call& call, Environment* env) {
  Value this_val;
  Value callee;
  if (call.callee->kind == js::NodeKind::Member) {
    const auto& member = static_cast<const js::Member&>(*call.callee);
    this_val = eval_leaf(*member.object, env);
    if (member.computed) {
      const std::string key = property_key(eval(*member.index, env));
      callee = property_get(this_val, key, member.line,
                            memory_events_ ? provenance_of(*member.object, env)
                                           : BaseProvenance{});
      if (!callee.is_object() || !callee.as_object()->is_function()) {
        throw_error("TypeError", key + " is not a function");
      }
    } else {
      callee = eval_member_named(this_val, member, env);
      if (!callee.is_object() || !callee.as_object()->is_function()) {
        throw_error("TypeError", member.property.str() + " is not a function");
      }
    }
  } else {
    callee = eval(*call.callee, env);
  }
  // Argument values live in a frame on the reused per-interpreter stack:
  // the span is reserved up front (nested calls in argument position push
  // above it), filled left to right, and released by the frame's destructor
  // even when an argument's evaluation throws.
  const std::size_t argc = call.args.size();
  ArgFrame frame(arg_stack_, argc);
  Value* argv = frame.data();
  for (std::size_t i = 0; i < argc; ++i) argv[i] = eval_leaf(*call.args[i], env);
  return this->call(callee, this_val, frame.args());
}

Value Interpreter::eval_new(const js::New& node, Environment* env) {
  const Value callee = eval(*node.callee, env);
  if (!callee.is_object() || !callee.as_object()->is_function()) {
    throw_error("TypeError", "constructor is not a function");
  }
  const Value* proto = callee.as_object()->own_property(atom_prototype_);
  JSObject* obj =
      new_object(proto != nullptr && proto->is_object() ? proto->as_object() : object_proto_);
  if (hooks_ != nullptr) sync_hooks()->on_object_created(obj->id(), node.line);

  const std::size_t argc = node.args.size();
  ArgFrame frame(arg_stack_, argc);
  Value* argv = frame.data();
  for (std::size_t i = 0; i < argc; ++i) argv[i] = eval(*node.args[i], env);
  const Value result = call(callee, Value::object(obj), frame.args());
  return result.is_object() ? result : Value::object(obj);
}

inline Value Interpreter::eval_leaf(const js::Expr& expr, Environment* env) {
  if (expr.kind == js::NodeKind::NumberLit) {
    tick(1);
    return Value::number(static_cast<const js::NumberLit&>(expr).value);
  }
  if (expr.kind == js::NodeKind::Ident) {
    tick(1);
    const auto& ident = static_cast<const js::Ident&>(expr);
    Environment* owner = nullptr;
    const Value* slot = lookup_for_read(ident.name, ident.ref, env, &owner);
    if (slot == nullptr) {
      throw_error("ReferenceError", ident.name.str() + " is not defined");
    }
    if (memory_events_) buffer_memory_event(MemoryEvent::Kind::VarRead, owner->id(), ident.name, expr.line);
    return *slot;
  }
  return eval(expr, env);
}

Value Interpreter::eval_binary(const js::Binary& binary, Environment* env) {
  const Value lhs = eval_leaf(*binary.lhs, env);
  const Value rhs = eval_leaf(*binary.rhs, env);
  return apply_binary(binary.op, lhs, rhs, binary.line);
}

inline bool Interpreter::eval_condition(const js::Expr& expr, Environment* env) {
  if (expr.kind == js::NodeKind::Binary) {
    const auto& binary = static_cast<const js::Binary&>(expr);
    switch (binary.op) {
      case js::BinaryOp::Lt:
      case js::BinaryOp::Gt:
      case js::BinaryOp::Le:
      case js::BinaryOp::Ge: {
        tick(1);  // the Binary node's own charge
        const Value lhs = eval_leaf(*binary.lhs, env);
        const Value rhs = eval_leaf(*binary.rhs, env);
        if (lhs.is_number() && rhs.is_number()) {
          const double a = lhs.as_number();
          const double b = rhs.as_number();
          switch (binary.op) {
            case js::BinaryOp::Lt: return a < b;
            case js::BinaryOp::Gt: return a > b;
            case js::BinaryOp::Le: return a <= b;
            default: return a >= b;
          }
        }
        return to_boolean(apply_binary(binary.op, lhs, rhs, binary.line));
      }
      default:
        break;
    }
  }
  return to_boolean(eval(expr, env));
}

Value Interpreter::apply_binary(js::BinaryOp op, const Value& lhs, const Value& rhs,
                                int line) {
  using js::BinaryOp;
  // Number ⊕ number covers the vast majority of loop arithmetic: dispatch
  // once on the kinds, then once on the operator, skipping the per-operand
  // to_number coercion switches.
  if (lhs.is_number() && rhs.is_number()) {
    const double a = lhs.as_number();
    const double b = rhs.as_number();
    switch (op) {
      case BinaryOp::Add: return Value::number(a + b);
      case BinaryOp::Sub: return Value::number(a - b);
      case BinaryOp::Mul: return Value::number(a * b);
      case BinaryOp::Div: return Value::number(a / b);
      case BinaryOp::Mod: return Value::number(std::fmod(a, b));
      case BinaryOp::BitAnd: return Value::number(double(to_int32(a) & to_int32(b)));
      case BinaryOp::BitOr: return Value::number(double(to_int32(a) | to_int32(b)));
      case BinaryOp::BitXor: return Value::number(double(to_int32(a) ^ to_int32(b)));
      case BinaryOp::Shl:
        return Value::number(double(to_int32(a) << (to_uint32(b) & 31)));
      case BinaryOp::Shr:
        return Value::number(double(to_int32(a) >> (to_uint32(b) & 31)));
      case BinaryOp::UShr:
        return Value::number(double(to_uint32(a) >> (to_uint32(b) & 31)));
      case BinaryOp::Lt: return Value::boolean(a < b);
      case BinaryOp::Gt: return Value::boolean(a > b);
      case BinaryOp::Le: return Value::boolean(a <= b);
      case BinaryOp::Ge: return Value::boolean(a >= b);
      case BinaryOp::Eq:
      case BinaryOp::StrictEq: return Value::boolean(a == b);
      case BinaryOp::Ne:
      case BinaryOp::StrictNe: return Value::boolean(a != b);
      default: break;  // In / InstanceOf fall through to the generic path
    }
  }
  switch (op) {
    case BinaryOp::Add:
      if (lhs.is_number() && rhs.is_number()) {
        return Value::number(lhs.as_number() + rhs.as_number());
      }
      if (lhs.is_string() || rhs.is_string() || lhs.is_object() || rhs.is_object()) {
        // A string operand's text is read in place; only a non-string one
        // is converted first.
        std::string converted_left;
        std::string converted_right;
        const std::string& left =
            lhs.is_string() ? lhs.as_string() : (converted_left = to_string_value(lhs));
        const std::string& right =
            rhs.is_string() ? rhs.as_string() : (converted_right = to_string_value(rhs));
        // Concatenation is the string-doubling amplifier (`s = s + s`):
        // charge large results before building them. Small results are
        // value-churn temporaries and stay off the ledger.
        const std::size_t result_size = left.size() + right.size();
        if (result_size >= 1024) ledger_.charge(result_size);
        std::string result;
        result.reserve(result_size);
        result.append(left).append(right);
        return Value::str(std::move(result));
      }
      return Value::number(to_number(lhs) + to_number(rhs));
    case BinaryOp::Sub:
      return Value::number(to_number(lhs) - to_number(rhs));
    case BinaryOp::Mul:
      return Value::number(to_number(lhs) * to_number(rhs));
    case BinaryOp::Div:
      return Value::number(to_number(lhs) / to_number(rhs));
    case BinaryOp::Mod:
      return Value::number(std::fmod(to_number(lhs), to_number(rhs)));
    case BinaryOp::BitAnd:
      return Value::number(double(to_int32(to_number(lhs)) & to_int32(to_number(rhs))));
    case BinaryOp::BitOr:
      return Value::number(double(to_int32(to_number(lhs)) | to_int32(to_number(rhs))));
    case BinaryOp::BitXor:
      return Value::number(double(to_int32(to_number(lhs)) ^ to_int32(to_number(rhs))));
    case BinaryOp::Shl:
      return Value::number(
          double(to_int32(to_number(lhs)) << (to_uint32(to_number(rhs)) & 31)));
    case BinaryOp::Shr:
      return Value::number(
          double(to_int32(to_number(lhs)) >> (to_uint32(to_number(rhs)) & 31)));
    case BinaryOp::UShr:
      return Value::number(
          double(to_uint32(to_number(lhs)) >> (to_uint32(to_number(rhs)) & 31)));
    case BinaryOp::Lt:
      if (lhs.is_string() && rhs.is_string()) {
        return Value::boolean(lhs.as_string() < rhs.as_string());
      }
      return Value::boolean(to_number(lhs) < to_number(rhs));
    case BinaryOp::Gt:
      if (lhs.is_string() && rhs.is_string()) {
        return Value::boolean(lhs.as_string() > rhs.as_string());
      }
      return Value::boolean(to_number(lhs) > to_number(rhs));
    case BinaryOp::Le:
      if (lhs.is_string() && rhs.is_string()) {
        return Value::boolean(lhs.as_string() <= rhs.as_string());
      }
      return Value::boolean(to_number(lhs) <= to_number(rhs));
    case BinaryOp::Ge:
      if (lhs.is_string() && rhs.is_string()) {
        return Value::boolean(lhs.as_string() >= rhs.as_string());
      }
      return Value::boolean(to_number(lhs) >= to_number(rhs));
    case BinaryOp::Eq:
      return Value::boolean(loose_equals(lhs, rhs));
    case BinaryOp::Ne:
      return Value::boolean(!loose_equals(lhs, rhs));
    case BinaryOp::StrictEq:
      return Value::boolean(strict_equals(lhs, rhs));
    case BinaryOp::StrictNe:
      return Value::boolean(!strict_equals(lhs, rhs));
    case BinaryOp::In: {
      if (!rhs.is_object()) throw_error("TypeError", "'in' requires an object");
      const std::string key = property_key(lhs);
      JSObject* obj = rhs.as_object();
      std::size_t index = 0;
      if (obj->is_array() && index_from_string(key, &index)) {
        return Value::boolean(index < obj->elements().size());
      }
      for (const JSObject* walk = obj; walk != nullptr;
           walk = walk->prototype()) {
        if (walk->own_property(atoms(), key) != nullptr) return Value::boolean(true);
      }
      return Value::boolean(false);
    }
    case BinaryOp::InstanceOf: {
      if (!rhs.is_object() || !rhs.as_object()->is_function()) {
        throw_error("TypeError", "instanceof requires a function");
      }
      if (!lhs.is_object()) return Value::boolean(false);
      const Value* proto = rhs.as_object()->own_property(atom_prototype_);
      if (proto == nullptr || !proto->is_object()) return Value::boolean(false);
      for (const JSObject* walk = lhs.as_object()->prototype(); walk != nullptr;
           walk = walk->prototype()) {
        if (walk == proto->as_object()) return Value::boolean(true);
      }
      return Value::boolean(false);
    }
  }
  (void)line;
  throw EngineError("unexpected binary operator");
}

Interpreter::ReadICDebug Interpreter::debug_read_ic(std::uint32_t ic_id) const {
  const ReadIC& ic = read_ics_.at(ic_id);
  ReadICDebug out;
  out.ways = ic.count;
  out.megamorphic = ic.megamorphic;
  for (std::uint8_t i = 0; i < ic.count; ++i) out.shapes[i] = ic.ways[i].shape;
  return out;
}

Interpreter::WriteICDebug Interpreter::debug_write_ic(std::uint32_t ic_id) const {
  const WriteIC& ic = write_ics_.at(ic_id);
  WriteICDebug out;
  out.ways = ic.count;
  out.megamorphic = ic.megamorphic;
  for (std::uint8_t i = 0; i < ic.count; ++i) {
    out.shapes[i] = ic.ways[i].shape;
    out.is_transition[i] = ic.ways[i].new_shape != nullptr;
  }
  return out;
}

}  // namespace jsceres::interp
