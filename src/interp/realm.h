#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "interp/environment.h"
#include "interp/heap.h"
#include "interp/object.h"
#include "interp/shape.h"
#include "interp/value.h"
#include "js/atom.h"

namespace jsceres::interp {

/// The builtin realm: the four prototypes, the native function objects,
/// Math, console, JSON and performance, the constructors, and the global
/// bindings, as install_stdlib describes them.
///
/// It is built once per process, on first use, in a heap of its own that is
/// never freed. Its objects are templates: an Interpreter never runs on them
/// but copies all of them into its own heap in one step (instantiate), so a
/// program that writes `Math.acc` or deletes `Math.PI` changes its own Math
/// and no other session's. The templates' ids are the ids every copy
/// carries, 1 up in install order, so object ids and the hook stream do not
/// depend on the realm being shared.
///
/// The templates' shapes form the process-wide frozen tree (see Shape),
/// keyed only by prefix atoms: the build rejects a key that is not an
/// engine spelling (js::Atom::engine_name). A copy keeps its template's
/// frozen shape, so no session builds shapes for its builtins, and leaves
/// it for dictionary mode when it gains or loses a property; a copy with no
/// properties starts on its program's own root instead, like any fresh
/// object. Native functions' payloads are immutable and shared between all
/// copies.
class Realm {
 public:
  /// The process's realm.
  static const Realm& get();

  /// The builtins an interpreter holds by name, and the id its next object
  /// takes.
  struct Copy {
    JSObject* object_proto;
    JSObject* array_proto;
    JSObject* string_proto;
    JSObject* function_proto;
    std::uint64_t next_obj_id = 1;
  };
  /// Copy every template object into `heap` (exact-size slots, references
  /// remapped to the copies) and declare the global bindings in `global`,
  /// an empty global environment. The copies are the heap's first records,
  /// so they share its first chunk.
  Copy instantiate(Heap& heap, const Shape* program_root, Environment& global) const;

  // --- building: install_stdlib's vocabulary, used once per process ---

  JSObject* make_native_function(std::string name, NativeFn fn);
  /// A prototype-less object for a builtin namespace (Math, console, ...).
  JSObject* make_namespace_object();
  /// `target[name] = value`. A template value is never a computed string:
  /// every session's copy would share its (non-atomic) count.
  void set(JSObject* target, std::string_view name, Value value);
  void define_global(std::string_view name, Value value);
  [[nodiscard]] JSObject* object_prototype() const { return object_proto_; }
  [[nodiscard]] JSObject* array_prototype() const { return array_proto_; }
  [[nodiscard]] JSObject* string_prototype() const { return string_proto_; }
  [[nodiscard]] JSObject* function_prototype() const { return function_proto_; }

 private:
  Realm();
  JSObject* make(JSObject::Cls cls, JSObject* proto);

  Heap heap_;                          // the templates and their payloads
  std::unique_ptr<Shape> shape_root_;  // the frozen tree
  std::vector<JSObject*> objects_;     // objects_[i] has id i + 1
  std::vector<js::Atom> global_names_;
  std::vector<Value> global_values_;
  JSObject* object_proto_ = nullptr;
  JSObject* array_proto_ = nullptr;
  JSObject* string_proto_ = nullptr;
  JSObject* function_proto_ = nullptr;
};

/// Describe the standard library (Math, console, Array/String/Object
/// builtins, parseInt & friends, performance.now / Date.now) into the realm
/// under construction. The one description of the builtins.
void install_stdlib(Realm& realm);

}  // namespace jsceres::interp
