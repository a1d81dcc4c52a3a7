#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interp/value.h"
#include "js/atom.h"

namespace jsceres::interp {

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
/// clear_for_reuse(), which is what makes reused activations allocation-free
/// in steady state. Statically resolved references (js::SlotRef) index
/// `slots_` directly without touching the names at all; the scan only runs
/// on declare and on global lookups.
///
/// Each environment carries a process-unique id; the dependence analyzer
/// stamps the id with the loop-characterization stack current at creation.
///
/// Environments live in their interpreter's Heap. An activation that no
/// closure can capture (the compiler proves it: its function or catch body
/// contains no function) goes back to the interpreter's free list when it
/// exits; every other one lives until the session ends.
class Environment {
 public:
  Environment(std::uint64_t id, Environment* parent) : id_(id), parent_(parent) {}

  /// Rebind a reused environment to a new activation. The name and slot
  /// vectors keep their capacity across reuse.
  void rebind(std::uint64_t id, Environment* parent) {
    id_ = id;
    parent_ = parent;
  }

  /// Drop activation state before the environment parks in the free list,
  /// so the strings it holds are released promptly.
  void clear_for_reuse() {
    names_.clear();  // keeps capacity
    slots_.clear();  // keeps capacity
    parent_ = nullptr;
    this_val_ = Value();
    has_this_ = false;
  }

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Environment* parent() const { return parent_; }

  /// Stamp this (fresh or reused) activation from a pre-resolved layout:
  /// the name vector is copied wholesale and each slot is constructed
  /// exactly once from `init_at(slot)` — no per-name duplicate scan, and no
  /// zero-then-overwrite for slots the compiler proved are written at entry
  /// (parameters, hoisted functions; see js::ActivationLayout::inits). The
  /// vector assignments reuse a reused environment's capacity, so a
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
    for (; hops > 0; --hops) env = env->parent_;
    return env;
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
    for (const Environment* env = this; env != nullptr; env = env->parent_) {
      if (env->has_this_) return env;
    }
    return nullptr;
  }

  void reserve(std::size_t n) {
    names_.reserve(n);
    slots_.reserve(n);
  }

 private:
  friend class Heap;

  /// Index of `name`, or -1. Pointer-identity compares over a flat array.
  [[nodiscard]] std::int64_t find(js::Atom name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return std::int64_t(i);
    }
    return -1;
  }

  Environment* heap_next_ = nullptr;
  std::uint64_t id_;
  Environment* parent_;
  std::vector<js::Atom> names_;  // names_[i] owns slots_[i]
  std::vector<Value> slots_;
  Value this_val_;
  bool has_this_ = false;
};

}  // namespace jsceres::interp
