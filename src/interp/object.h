#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/args.h"
#include "interp/environment.h"
#include "interp/heap.h"
#include "interp/hooks.h"
#include "interp/shape.h"
#include "interp/value.h"
#include "js/atom.h"
#include "support/limits.h"

namespace jsceres::js {
struct FunctionNode;
}

namespace jsceres::interp {

class Interpreter;

/// Signature of C++-implemented builtins and substrate bindings. `args` is
/// a borrowed view (see Args): for interpreter-originated calls it points
/// into the reused argument stack, so no per-call vector is materialized.
using NativeFn =
    std::function<Value(Interpreter&, const Value& this_val, const Args& args)>;

/// Payload attached to objects that front a host-substrate entity (DOM
/// element, canvas context, ...). The DOM module subclasses this. Property
/// touches on host-backed objects are reported to the instrumentation under
/// `category()` — this is how the study detects DOM/Canvas access inside
/// loops (Table 3, column 6).
struct HostData {
  virtual ~HostData() = default;
  [[nodiscard]] virtual HostAccess category() const { return HostAccess::Dom; }
};

/// Closure / native-function payload of callable objects. Allocated in the
/// heap of the interpreter (or, for the builtins' templates, the realm)
/// that made it.
struct FunctionData {
  const js::FunctionNode* decl = nullptr;  // null for native functions
  Environment* closure = nullptr;          // captured scope for JS functions
  NativeFn native;                         // set for native functions
  std::string name;
  int fn_id = 0;  // 0 for natives (they don't appear in sampled JS stacks)

 private:
  friend class Heap;
  FunctionData* heap_next_ = nullptr;
};

/// A JavaScript heap object. One representation serves plain objects,
/// arrays (dense element storage fast path) and functions.
///
/// Named properties live in shape mode by default: the object's `Shape`
/// (hidden class) maps interned keys to indices into a dense slot array, so
/// a property-access site that has seen this shape before reads its slot
/// with one pointer compare and one indexed load. The slot array comes from
/// the object's heap, in power-of-two capacities. `delete` transitions the
/// object to dictionary mode (atom-keyed hash map), which inline caches
/// simply never match.
///
/// Every object hangs off the shape tree of the program it was built for
/// (`shape_root` is that program's ProgramBody::shape_root), except a copy
/// of a builtin with properties, which starts on the process-wide frozen
/// realm tree (interp/realm.h) and moves to dictionary mode the first time
/// it adds or deletes one.
///
/// An object lives in the Heap of the Interpreter that made it and is
/// freed with that Interpreter, whatever still points at it: neither the
/// object nor a Value naming it may be used after the Interpreter is gone.
class JSObject {
 public:
  enum class Cls : std::uint8_t { Plain, Array, Function };

  JSObject(Heap& heap, std::uint64_t id, const Shape* shape_root, Cls cls = Cls::Plain)
      : heap_(&heap), id_(id), shape_(shape_root), cls_(cls) {
    // Sandbox accounting: every heap object charges the active run's ledger
    // (nullptr outside a run — prototypes and stdlib objects built during
    // interpreter construction form an uncharged baseline). Throwing here is
    // clean: nothing was published, and the heap merely keeps the bytes.
    AllocationLedger::charge_current(sizeof(JSObject));
  }
  ~JSObject() { release_slots(); }
  JSObject(const JSObject&) = delete;
  JSObject& operator=(const JSObject&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Cls cls() const { return cls_; }
  [[nodiscard]] bool is_array() const { return cls_ == Cls::Array; }
  [[nodiscard]] bool is_function() const { return cls_ == Cls::Function; }

  // --- named properties (own only; prototype walk is in the interpreter) ---

  [[nodiscard]] const Value* own_property(js::Atom key) const {
    if (dict_ == nullptr) {
      const std::int32_t slot = shape_->slot_of(key);
      return slot < 0 ? nullptr : &slots_[std::size_t(slot)];
    }
    const auto it = dict_->map.find(key);
    return it == dict_->map.end() ? nullptr : &it->second;
  }
  // String-keyed helpers. `atoms` is the space of the program whose
  // interpreter reaches this object (Interpreter::atoms()): every stored key
  // is a prefix atom or an atom of that space, so a string the space cannot
  // find names no property.

  [[nodiscard]] const Value* own_property(const js::AtomSpace& atoms,
                                          const std::string& key) const {
    js::Atom atom;
    return atoms.try_find(key, &atom) ? own_property(atom) : nullptr;
  }

  void set_property(js::Atom key, Value value) {
    if (dict_ == nullptr) {
      const std::int32_t slot = shape_->slot_of(key);
      if (slot >= 0) {
        slots_[std::size_t(slot)] = std::move(value);
        return;
      }
      if (!shape_->frozen()) {
        // Charge-before-mutate, and store the slot before publishing the
        // new shape: a ledger trip at either point leaves shape_ and the
        // slot array still consistent with each other.
        const Shape* next = shape_->transition(key);
        append_prop(next, std::move(value));
        return;
      }
      to_dictionary();  // a realm copy leaves the frozen tree
    }
    const auto it = dict_->map.find(key);
    if (it != dict_->map.end()) {
      it->second = std::move(value);
      return;
    }
    AllocationLedger::charge_current(sizeof(Value) + sizeof(js::Atom) + 48);
    dict_->map.emplace(key, std::move(value));
    dict_->order.push_back(key);
  }
  void set_property(js::AtomSpace& atoms, const std::string& key, Value value) {
    set_property(atoms.intern(key), std::move(value));
  }

  bool delete_property(js::Atom key) {
    if (dict_ == nullptr) {
      if (shape_->slot_of(key) < 0) return false;
      to_dictionary();
    }
    if (dict_->map.erase(key) == 0) return false;
    std::erase(dict_->order, key);
    return true;
  }
  bool delete_property(const js::AtomSpace& atoms, const std::string& key) {
    js::Atom atom;
    return atoms.try_find(key, &atom) && delete_property(atom);
  }

  /// Own property names in insertion order (deterministic for-in /
  /// Object.keys, matching the de-facto JS enumeration contract).
  [[nodiscard]] const std::vector<js::Atom>& key_order() const {
    return dict_ == nullptr ? shape_->keys() : dict_->order;
  }

  // --- inline-cache protocol (shape mode only) ---

  /// Current hidden class, or nullptr in dictionary mode (never IC-cached).
  [[nodiscard]] const Shape* shape() const {
    return dict_ == nullptr ? shape_ : nullptr;
  }
  [[nodiscard]] Value* prop_slot(std::uint32_t index) { return &slots_[index]; }
  /// Append the value for a property-add transition already computed by an
  /// inline cache: `new_shape` must be `shape()->transition(key)`, so
  /// shape() is not frozen.
  void append_prop(const Shape* new_shape, Value value) {
    AllocationLedger::charge_current(sizeof(Value));
    const std::uint32_t count = shape_->slot_count();
    if (count == slot_capacity_) grow_slots(count == 0 ? 1 : 2 * count);
    new (&slots_[count]) Value(std::move(value));
    shape_ = new_shape;
  }

  // --- dense array elements ---

  [[nodiscard]] std::vector<Value>& elements() { return elements_; }
  [[nodiscard]] const std::vector<Value>& elements() const { return elements_; }

  // --- prototype chain ---

  [[nodiscard]] JSObject* prototype() const { return prototype_; }
  void set_prototype(JSObject* proto) { prototype_ = proto; }

  // --- callable payload ---

  /// Immutable once set; a builtin's copies share their template's.
  [[nodiscard]] const FunctionData* function() const { return fn_; }
  void set_function(const FunctionData* fn) { fn_ = fn; }

  // --- host payload ---

  [[nodiscard]] HostData* host() const { return host_.get(); }
  void set_host(std::unique_ptr<HostData> host) { host_ = std::move(host); }

  template <typename T>
  [[nodiscard]] T* host_as() const {
    return dynamic_cast<T*>(host_.get());
  }

 private:
  friend class Heap;
  friend class Realm;  // copies its template objects field by field

  struct Dict {
    std::unordered_map<js::Atom, Value> map;
    std::vector<js::Atom> order;
  };

  /// Move the slots into an array of `capacity` (> the slot count).
  void grow_slots(std::uint32_t capacity) {
    const std::uint32_t count = shape_->slot_count();
    Value* grown = heap_->allocate_values(capacity);
    for (std::uint32_t i = 0; i < count; ++i) {
      new (&grown[i]) Value(std::move(slots_[i]));
      slots_[i].~Value();
    }
    heap_->free_values(slots_, slot_capacity_);
    slots_ = grown;
    slot_capacity_ = capacity;
  }

  /// Destroy the slots and give their array back; leaves no slots.
  void release_slots() {
    const std::uint32_t count = dict_ == nullptr ? shape_->slot_count() : 0;
    for (std::uint32_t i = 0; i < count; ++i) slots_[i].~Value();
    heap_->free_values(slots_, slot_capacity_);
    slots_ = nullptr;
    slot_capacity_ = 0;
  }

  void to_dictionary() {
    AllocationLedger::charge_current(shape_->keys().size() *
                                     (sizeof(Value) + sizeof(js::Atom) + 48));
    auto dict = std::make_unique<Dict>();
    dict->order = shape_->keys();
    dict->map.reserve(dict->order.size());
    for (std::size_t i = 0; i < dict->order.size(); ++i) {
      dict->map.emplace(dict->order[i], std::move(slots_[i]));
    }
    release_slots();
    shape_ = shape_->root();
    dict_ = std::move(dict);
  }

  Heap* heap_;
  JSObject* heap_next_ = nullptr;
  std::uint64_t id_;
  JSObject* prototype_ = nullptr;
  const Shape* shape_;  // never null: the tree root when empty or a dictionary
  Value* slots_ = nullptr;  // shape_->slot_count() constructed in shape mode
  std::uint32_t slot_capacity_ = 0;
  Cls cls_;
  std::unique_ptr<Dict> dict_;  // non-null == dictionary mode
  std::vector<Value> elements_;
  const FunctionData* fn_ = nullptr;
  std::unique_ptr<HostData> host_;
};

/// A native function object in `heap` on the tree of `root`: `name` and `fn`
/// in an immutable payload, `function_proto` as its prototype.
inline JSObject* native_function_object(Heap& heap, std::uint64_t id, const Shape* root,
                                        JSObject* function_proto, std::string name,
                                        NativeFn fn) {
  JSObject* obj = heap.make<JSObject>(heap, id, root, JSObject::Cls::Function);
  obj->set_prototype(function_proto);
  auto* data = heap.make<FunctionData>();
  data->name = std::move(name);
  data->native = std::move(fn);
  obj->set_function(data);
  return obj;
}

}  // namespace jsceres::interp
