#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "interp/environment.h"
#include "interp/object.h"
#include "interp/shape.h"
#include "interp/value.h"
#include "js/atom.h"

namespace jsceres::interp {

/// The builtin realm: the four prototypes, the native function objects,
/// Math, console, JSON and performance, the constructors, and the global
/// bindings, as install_stdlib describes them.
///
/// It is built once per process, on first use, and never freed. Its objects
/// are templates: an Interpreter never runs on them but gets its own copy of
/// all of them in one step (instantiate), so a program that writes
/// `Math.acc` or deletes `Math.PI` changes its own Math and no other
/// session's. The templates' ids are the ids every copy carries, 1 up in
/// install order, so object ids and the hook stream do not depend on the
/// realm being shared.
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
    ObjPtr object_proto;
    ObjPtr array_proto;
    ObjPtr string_proto;
    ObjPtr function_proto;
    std::uint64_t next_obj_id = 1;
  };
  /// Copy every template object (exact-size slots, references remapped to
  /// the copies) and declare the global bindings in `global`, an empty
  /// global environment.
  Copy instantiate(const Shape* program_root, Environment& global) const;

  // --- building: install_stdlib's vocabulary, used once per process ---

  ObjPtr make_native_function(std::string name, NativeFn fn);
  /// A prototype-less object for a builtin namespace (Math, console, ...).
  ObjPtr make_namespace_object();
  /// `target[name] = value`.
  void set(const ObjPtr& target, std::string_view name, Value value);
  void define_global(std::string_view name, Value value);
  [[nodiscard]] const ObjPtr& object_prototype() const { return object_proto_; }
  [[nodiscard]] const ObjPtr& array_prototype() const { return array_proto_; }
  [[nodiscard]] const ObjPtr& string_prototype() const { return string_proto_; }
  [[nodiscard]] const ObjPtr& function_prototype() const { return function_proto_; }

 private:
  Realm();
  ObjPtr make(JSObject::Cls cls, ObjPtr proto);

  std::unique_ptr<Shape> shape_root_;  // the frozen tree
  std::vector<ObjPtr> objects_;        // objects_[i] has id i + 1
  std::vector<js::Atom> global_names_;
  std::vector<Value> global_values_;
  ObjPtr object_proto_;
  ObjPtr array_proto_;
  ObjPtr string_proto_;
  ObjPtr function_proto_;
};

/// Describe the standard library (Math, console, Array/String/Object
/// builtins, parseInt & friends, performance.now / Date.now) into the realm
/// under construction. The one description of the builtins.
void install_stdlib(Realm& realm);

}  // namespace jsceres::interp
