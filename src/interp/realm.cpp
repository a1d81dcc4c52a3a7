#include "interp/realm.h"

#include <limits>

#include "support/limits.h"

namespace jsceres::interp {

const Realm& Realm::get() {
  static const Realm* realm = new Realm();  // never freed, like the prefix
  return *realm;
}

Realm::Realm() : shape_root_(Shape::make_root()) {
  // Built outside any run: nothing here is charged to a session's ledger.
  const AllocationLedger::Scope uncharged(nullptr);
  object_proto_ = make(JSObject::Cls::Plain, nullptr);
  array_proto_ = make(JSObject::Cls::Plain, object_proto_);
  string_proto_ = make(JSObject::Cls::Plain, nullptr);
  function_proto_ = make(JSObject::Cls::Plain, nullptr);
  define_global("undefined", Value::undefined());
  define_global("NaN", Value::number(std::numeric_limits<double>::quiet_NaN()));
  define_global("Infinity", Value::number(std::numeric_limits<double>::infinity()));
  install_stdlib(*this);
  std::vector<const Shape*> held;
  held.reserve(objects_.size());
  for (const JSObject* tmpl : objects_) held.push_back(tmpl->shape_);
  shape_root_->freeze(held);
}

JSObject* Realm::make(JSObject::Cls cls, JSObject* proto) {
  JSObject* obj = heap_.make<JSObject>(heap_, objects_.size() + 1, shape_root_.get(), cls);
  obj->set_prototype(proto);
  objects_.push_back(obj);
  return obj;
}

JSObject* Realm::make_native_function(std::string name, NativeFn fn) {
  objects_.push_back(native_function_object(heap_, objects_.size() + 1, shape_root_.get(),
                                            function_proto_, std::move(name), std::move(fn)));
  return objects_.back();
}

JSObject* Realm::make_namespace_object() { return make(JSObject::Cls::Plain, nullptr); }

void Realm::set(JSObject* target, std::string_view name, Value value) {
  target->set_property(js::Atom::engine_name(name), std::move(value));
}

void Realm::define_global(std::string_view name, Value value) {
  global_names_.push_back(js::Atom::engine_name(name));
  global_values_.push_back(std::move(value));
}

Realm::Copy Realm::instantiate(Heap& heap, const Shape* program_root,
                               Environment& global) const {
  std::vector<JSObject*> copies;
  copies.reserve(objects_.size());
  for (const JSObject* tmpl : objects_) {
    const Shape* shape = tmpl->shape_ == shape_root_.get() ? program_root : tmpl->shape_;
    copies.push_back(heap.make<JSObject>(heap, tmpl->id_, shape, tmpl->cls_));
  }
  const auto remap = [&copies](const Value& value) {
    return value.is_object() ? Value::object(copies[value.as_object()->id_ - 1]) : value;
  };
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const JSObject& tmpl = *objects_[i];
    JSObject& copy = *copies[i];
    if (tmpl.prototype_ != nullptr) copy.prototype_ = copies[tmpl.prototype_->id_ - 1];
    const std::uint32_t count = tmpl.shape_->slot_count();
    if (count > 0) {
      copy.slots_ = heap.allocate_values(count);
      copy.slot_capacity_ = count;
      for (std::uint32_t s = 0; s < count; ++s) new (&copy.slots_[s]) Value(remap(tmpl.slots_[s]));
    }
    copy.fn_ = tmpl.fn_;
  }
  global.adopt_layout(global_names_,
                      [&](std::size_t slot) { return remap(global_values_[slot]); });
  const auto copy_of = [&copies](const JSObject* tmpl) { return copies[tmpl->id_ - 1]; };
  return Copy{copy_of(object_proto_), copy_of(array_proto_), copy_of(string_proto_),
              copy_of(function_proto_), objects_.size() + 1};
}

}  // namespace jsceres::interp
