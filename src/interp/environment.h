#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "interp/value.h"
#include "js/atom.h"
#include "support/limits.h"

namespace jsceres::interp {

class Environment;
class EnvPool;

/// Intrusive, non-atomic reference-counted handle to an Environment.
///
/// Activation environments are created once per JS call — the hottest
/// allocation in call-dominated code (BM_InterpretCalls). A shared_ptr paid
/// one control-block allocation per call plus atomic refcount traffic, and
/// destroying the Environment threw away its map buckets and slot capacity.
/// The intrusive count lives in the Environment itself (the interpreter is
/// single-threaded by construction, so the count is a plain integer), and
/// the final release hands the object back to the interpreter's EnvPool for
/// reuse instead of freeing it.
class EnvPtr {
 public:
  EnvPtr() = default;
  EnvPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit EnvPtr(Environment* env);
  EnvPtr(const EnvPtr& other);
  EnvPtr(EnvPtr&& other) noexcept : env_(other.env_) { other.env_ = nullptr; }
  EnvPtr& operator=(const EnvPtr& other) {
    EnvPtr(other).swap(*this);
    return *this;
  }
  EnvPtr& operator=(EnvPtr&& other) noexcept {
    EnvPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~EnvPtr();

  void swap(EnvPtr& other) noexcept { std::swap(env_, other.env_); }
  void reset() { EnvPtr().swap(*this); }
  [[nodiscard]] Environment* get() const { return env_; }
  Environment* operator->() const { return env_; }
  Environment& operator*() const { return *env_; }
  [[nodiscard]] explicit operator bool() const { return env_ != nullptr; }
  friend bool operator==(const EnvPtr& a, const EnvPtr& b) { return a.env_ == b.env_; }
  friend bool operator==(const EnvPtr& a, std::nullptr_t) { return a.env_ == nullptr; }

 private:
  Environment* env_ = nullptr;
};

/// A function-scope environment record. JavaScript (ES5) has *function*
/// scoping: one environment is created per call, holding the parameters and
/// every `var` hoisted from the body — regardless of where the `var` appears
/// textually. This is exactly the semantics the paper's Fig. 6 relies on
/// (`var p` inside a loop body is one binding shared by all iterations).
///
/// Bindings are keyed by interned atoms (js::Atom) in a flat name vector
/// parallel to the slot vector (index == slot). Function scopes hold a
/// handful of names, so a linear scan of pointer-identity compares beats a
/// hash map — and unlike map nodes, the vectors' capacity survives
/// clear_for_reuse(), which is what makes pooled activations allocation-free
/// in steady state. Statically resolved references (js::SlotRef) index
/// `slots_` directly without touching the names at all; the scan only runs
/// on declare and on the dynamic-resolution fallback.
///
/// Each environment carries a process-unique id; the dependence analyzer
/// stamps the id with the loop-characterization stack current at creation.
class Environment {
 public:
  Environment(std::uint64_t id, EnvPtr parent)
      : id_(id), parent_(std::move(parent)) {}

  /// Rebind a recycled environment to a new activation. The name and slot
  /// vectors keep their capacity across reuse — the whole point of pooling
  /// (see EnvPool).
  void rebind(std::uint64_t id, EnvPtr parent) {
    id_ = id;
    parent_ = std::move(parent);
  }

  /// Drop activation state before the environment parks in the free list,
  /// so captured objects and parent scopes are released promptly.
  void clear_for_reuse() {
    names_.clear();   // keeps capacity
    slots_.clear();   // keeps capacity
    parent_.reset();  // may recursively recycle the parent chain
    this_val_ = Value();
    has_this_ = false;
  }

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const EnvPtr& parent() const { return parent_; }

  /// Stamp this (fresh or recycled) activation from a pre-resolved layout:
  /// the name vector is copied wholesale and each slot is constructed
  /// exactly once from `init_at(slot)` — no per-name duplicate scan, and no
  /// zero-then-overwrite for slots the resolver proved are written at entry
  /// (parameters, hoisted functions; see js::ActivationLayout::inits). The
  /// vector assignments reuse the pooled environment's capacity, so a
  /// steady-state call allocates nothing.
  template <typename InitAt>
  void adopt_layout(std::span<const js::Atom> names, InitAt&& init_at) {
    names_.assign(names.begin(), names.end());
    slots_.clear();  // keeps capacity
    slots_.reserve(names.size());
    for (std::size_t slot = 0; slot < names.size(); ++slot) {
      slots_.push_back(init_at(slot));
    }
  }

  /// Declare (or re-declare, reusing the slot) a binding in this environment.
  void declare(js::Atom name, Value value) {
    const std::int64_t index = find(name);
    if (index >= 0) {
      slots_[std::size_t(index)] = std::move(value);
      return;
    }
    names_.push_back(name);
    slots_.push_back(std::move(value));
  }

  [[nodiscard]] bool has_own(js::Atom name) const { return find(name) >= 0; }

  /// Slot of an own binding, or nullptr.
  [[nodiscard]] Value* own_slot(js::Atom name) {
    const std::int64_t index = find(name);
    return index < 0 ? nullptr : &slots_[std::size_t(index)];
  }

  /// Slot index of an own binding, or -1. Indices are stable for the
  /// lifetime of the environment (bindings are never removed), which is what
  /// makes the interpreter's global-reference cache sound.
  [[nodiscard]] std::int64_t slot_index(js::Atom name) const { return find(name); }

  /// Direct slot access for statically resolved references.
  [[nodiscard]] Value* slot_at(std::uint32_t index) { return &slots_[index]; }

  /// The environment `hops` levels up the chain (0 == this).
  [[nodiscard]] Environment* ancestor(std::int32_t hops) {
    Environment* env = this;
    for (; hops > 0; --hops) env = env->parent_.get();
    return env;
  }

  /// Resolve a name through the scope chain. Returns the owning environment
  /// (for provenance stamping) and the slot, or {nullptr, nullptr}. This is
  /// the dynamic fallback; statically resolved references bypass it.
  struct Resolution {
    Environment* env = nullptr;
    Value* slot = nullptr;
  };
  Resolution resolve(js::Atom name) {
    for (Environment* env = this; env != nullptr; env = env->parent_.get()) {
      if (Value* slot = env->own_slot(name)) return {env, slot};
    }
    return {};
  }

  // `this` binding of the activation this environment belongs to.
  void set_this(Value this_val) {
    this_val_ = std::move(this_val);
    has_this_ = true;
  }
  /// The `this` value, walking outward to the nearest activation that set one.
  [[nodiscard]] const Value* this_value() const {
    const Environment* env = this_env();
    return env == nullptr ? nullptr : &env->this_val_;
  }

  /// The activation environment owning the current `this` binding; used by
  /// the dependence analysis to stamp `this.foo` accesses.
  [[nodiscard]] const Environment* this_env() const {
    for (const Environment* env = this; env != nullptr; env = env->parent_.get()) {
      if (env->has_this_) return env;
    }
    return nullptr;
  }

  void reserve(std::size_t n) {
    names_.reserve(n);
    slots_.reserve(n);
  }

 private:
  friend class EnvPtr;
  friend class EnvPool;

  void add_ref() { ++refs_; }
  void drop_ref();  // recycles via pool_ on last release (defined below)

  /// Index of `name`, or -1. Pointer-identity compares over a flat array.
  [[nodiscard]] std::int64_t find(js::Atom name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return std::int64_t(i);
    }
    return -1;
  }

  std::uint64_t id_;
  EnvPtr parent_;
  std::vector<js::Atom> names_;  // names_[i] owns slots_[i]
  std::vector<Value> slots_;
  Value this_val_;
  bool has_this_ = false;
  std::uint32_t refs_ = 0;
  std::uint32_t pool_index_ = 0;  // position in EnvPool::all_
  EnvPool* pool_ = nullptr;
};

/// Per-interpreter free list of activation environments.
///
/// acquire() reuses a parked environment — rebinding it instead of paying
/// make_shared + fresh hash-map + fresh slot vector per call — and release()
/// parks up to kMaxFree of them. Environments can outlive their interpreter
/// (a test may hold a function Value whose closure chain roots here), so the
/// pool is detach-then-self-delete: the interpreter detaches in its
/// destructor, after which stragglers are freed instead of parked and the
/// pool deletes itself once the last one goes.
class EnvPool {
 public:
  /// Environments parked for reuse; beyond this, release() just frees.
  static constexpr std::size_t kMaxFree = 256;

  EnvPool() = default;
  EnvPool(const EnvPool&) = delete;
  EnvPool& operator=(const EnvPool&) = delete;

  /// A recycled-or-new environment bound to (id, parent), owned by the
  /// returned handle.
  EnvPtr acquire(std::uint64_t id, EnvPtr parent) {
    Environment* env;
    if (!free_.empty()) {
      env = free_.back();
      free_.pop_back();
      env->rebind(id, std::move(parent));
    } else {
      // Sandbox accounting: a fresh activation charges the active run's
      // ledger before allocating; recycled activations were already paid
      // for. Charge-first keeps live_ exact when the ledger trips.
      AllocationLedger::charge_current(sizeof(Environment) + 64);
      env = new Environment(id, std::move(parent));
      env->pool_ = this;
      env->pool_index_ = std::uint32_t(all_.size());
      all_.push_back(env);
    }
    ++live_;
    return EnvPtr(env);
  }

  /// Owner (the interpreter) is going away: free the parked list, sever
  /// closure <-> activation refcount cycles, stop caching, and self-delete
  /// once the last live environment releases.
  ///
  /// The cycle: a nested function declaration's FunctionData::closure holds
  /// an EnvPtr to the activation whose slot stores the function object, so
  /// neither refcount can reach zero and every such activation would leak.
  /// The sweep pins every environment the pool ever handed out (so clearing
  /// one cannot delete another mid-pass), drops their bindings, then lets
  /// the pins drain: cycle-only environments free through recycle(), while
  /// environments a caller still holds stay valid but emptied.
  void detach() {
    detached_ = true;
    for (Environment* env : free_) forget_and_delete(env);
    free_.clear();
    ++recycle_depth_;  // keep the self-delete out of the pin releases
    {
      std::vector<EnvPtr> pins;
      pins.reserve(all_.size());
      for (Environment* env : all_) pins.emplace_back(EnvPtr(env));
      for (const EnvPtr& pin : pins) pin->clear_for_reuse();
    }
    --recycle_depth_;
    if (live_ == 0) delete this;
  }

 private:
  friend class Environment;

  void recycle(Environment* env) {
    // Parking (clear_for_reuse) and freeing both release the environment's
    // parent chain, re-entering recycle for ancestors. The depth counter
    // keeps the detached-pool self-delete at the OUTERMOST frame only:
    // without it, an inner frame that drives live_ to 0 would free the pool
    // while outer frames still hold `this`.
    ++recycle_depth_;
    --live_;
    if (!detached_ && free_.size() < kMaxFree) {
      env->clear_for_reuse();
      free_.push_back(env);
    } else {
      forget_and_delete(env);
    }
    --recycle_depth_;
    if (detached_ && live_ == 0 && recycle_depth_ == 0) delete this;
  }

  /// Swap-remove from the all-environments registry, then free.
  void forget_and_delete(Environment* env) {
    const std::uint32_t index = env->pool_index_;
    all_[index] = all_.back();
    all_[index]->pool_index_ = index;
    all_.pop_back();
    delete env;
  }

  std::vector<Environment*> all_;  // everything handed out and still alive
  std::vector<Environment*> free_;
  std::size_t live_ = 0;
  int recycle_depth_ = 0;
  bool detached_ = false;
};

inline EnvPtr::EnvPtr(Environment* env) : env_(env) {
  if (env_ != nullptr) env_->add_ref();
}
inline EnvPtr::EnvPtr(const EnvPtr& other) : env_(other.env_) {
  if (env_ != nullptr) env_->add_ref();
}
inline EnvPtr::~EnvPtr() {
  if (env_ != nullptr) env_->drop_ref();
}
inline void Environment::drop_ref() {
  if (--refs_ == 0) pool_->recycle(this);
}

}  // namespace jsceres::interp
