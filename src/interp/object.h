#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/args.h"
#include "interp/environment.h"
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

/// Closure / native-function payload of callable objects.
struct FunctionData {
  const js::FunctionNode* decl = nullptr;  // null for native functions
  EnvPtr closure;                          // captured scope for JS functions
  NativeFn native;                         // set for native functions
  std::string name;
  int fn_id = 0;  // 0 for natives (they don't appear in sampled JS stacks)
};

/// A JavaScript heap object. One representation serves plain objects,
/// arrays (dense element storage fast path) and functions.
///
/// Named properties live in shape mode by default: the object's `Shape`
/// (hidden class) maps interned keys to indices into a dense `prop_slots_`
/// vector, so a property-access site that has seen this shape before reads
/// its slot with one pointer compare and one indexed load. `delete`
/// transitions the object to dictionary mode (atom-keyed hash map), which
/// inline caches simply never match.
///
/// Every object hangs off the shape tree of the program it was built for
/// (`shape_root` is that program's ProgramBody::shape_root), except a copy
/// of a builtin with properties, which starts on the process-wide frozen
/// realm tree (interp/realm.h) and moves to dictionary mode the first time
/// it adds or deletes one. An object a caller keeps after its interpreter
/// is destroyed is valid while some handle to its program lives.
class JSObject {
 public:
  enum class Cls : std::uint8_t { Plain, Array, Function };

  JSObject(std::uint64_t id, const Shape* shape_root, Cls cls = Cls::Plain)
      : id_(id), cls_(cls), shape_(shape_root) {
    // Sandbox accounting: every heap object charges the active run's ledger
    // (nullptr outside a run — prototypes and stdlib objects built during
    // interpreter construction form an uncharged baseline). Throwing here is
    // clean: make_shared releases the allocation and nothing was published.
    AllocationLedger::charge_current(sizeof(JSObject) + 64);
  }

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Cls cls() const { return cls_; }
  [[nodiscard]] bool is_array() const { return cls_ == Cls::Array; }
  [[nodiscard]] bool is_function() const { return cls_ == Cls::Function; }

  // --- named properties (own only; prototype walk is in the interpreter) ---

  [[nodiscard]] const Value* own_property(js::Atom key) const {
    if (dict_ == nullptr) {
      const std::int32_t slot = shape_->slot_of(key);
      return slot < 0 ? nullptr : &prop_slots_[std::size_t(slot)];
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
        prop_slots_[std::size_t(slot)] = std::move(value);
        return;
      }
      if (!shape_->frozen()) {
        // Charge-before-mutate, and store the slot before publishing the
        // new shape: a ledger trip at either point leaves shape_ and
        // prop_slots_ still consistent with each other.
        const Shape* next = shape_->transition(key);
        AllocationLedger::charge_current(sizeof(Value));
        prop_slots_.push_back(std::move(value));
        shape_ = next;
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
  [[nodiscard]] Value* prop_slot(std::uint32_t index) {
    return &prop_slots_[index];
  }
  /// Append the value for a property-add transition already computed by an
  /// inline cache: `new_shape` must be `shape()->transition(key)`, so
  /// shape() is not frozen.
  void append_prop(const Shape* new_shape, Value value) {
    AllocationLedger::charge_current(sizeof(Value));
    prop_slots_.push_back(std::move(value));
    shape_ = new_shape;
  }

  // --- dense array elements ---

  [[nodiscard]] std::vector<Value>& elements() { return elements_; }
  [[nodiscard]] const std::vector<Value>& elements() const { return elements_; }

  // --- prototype chain ---

  [[nodiscard]] const ObjPtr& prototype() const { return prototype_; }
  void set_prototype(ObjPtr proto) { prototype_ = std::move(proto); }

  // --- callable payload ---

  /// Immutable once set; a builtin's copies share their template's.
  [[nodiscard]] const FunctionData* function() const { return fn_.get(); }
  void set_function(std::shared_ptr<const FunctionData> fn) { fn_ = std::move(fn); }

  /// Drop every outgoing strong edge (properties, elements, prototype link,
  /// callable payload). The builtin prototype web is refcount-cyclic — a
  /// prototype owns its native methods, and each method's [[prototype]] link
  /// leads back into the web through Function.prototype — so ~Interpreter
  /// severs the roots explicitly. Objects a caller still holds afterwards
  /// stay valid but see an emptied prototype chain.
  void sever_for_teardown() noexcept {
    prop_slots_.clear();
    dict_.reset();
    elements_.clear();
    prototype_.reset();
    fn_.reset();
    shape_ = shape_->root();
  }

  // --- host payload ---

  [[nodiscard]] const std::shared_ptr<HostData>& host() const { return host_; }
  void set_host(std::shared_ptr<HostData> host) { host_ = std::move(host); }

  template <typename T>
  [[nodiscard]] T* host_as() const {
    return dynamic_cast<T*>(host_.get());
  }

 private:
  friend class Realm;  // copies its template objects field by field

  struct Dict {
    std::unordered_map<js::Atom, Value> map;
    std::vector<js::Atom> order;
  };

  void to_dictionary() {
    AllocationLedger::charge_current(shape_->keys().size() *
                                     (sizeof(Value) + sizeof(js::Atom) + 48));
    auto dict = std::make_unique<Dict>();
    dict->order = shape_->keys();
    dict->map.reserve(dict->order.size());
    for (std::size_t i = 0; i < dict->order.size(); ++i) {
      dict->map.emplace(dict->order[i], std::move(prop_slots_[i]));
    }
    prop_slots_.clear();
    shape_ = shape_->root();
    dict_ = std::move(dict);
  }

  std::uint64_t id_;
  Cls cls_;
  ObjPtr prototype_;
  const Shape* shape_;  // never null: the tree root when empty or a dictionary
  std::vector<Value> prop_slots_;
  std::unique_ptr<Dict> dict_;  // non-null == dictionary mode
  std::vector<Value> elements_;
  std::shared_ptr<const FunctionData> fn_;
  std::shared_ptr<HostData> host_;
};

/// A native function object on the tree of `root`: `name` and `fn` in an
/// immutable payload, `function_proto` as its prototype.
inline ObjPtr native_function_object(std::uint64_t id, const Shape* root,
                                     ObjPtr function_proto, std::string name, NativeFn fn) {
  auto obj = std::make_shared<JSObject>(id, root, JSObject::Cls::Function);
  obj->set_prototype(std::move(function_proto));
  auto data = std::make_shared<FunctionData>();
  data->name = std::move(name);
  data->native = std::move(fn);
  obj->set_function(std::move(data));
  return obj;
}

}  // namespace jsceres::interp
