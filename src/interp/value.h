#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "js/atom.h"

namespace jsceres::interp {

class JSObject;

/// The text of a computed string: a std::string with a plain (non-atomic)
/// reference count, freed when the last Value naming it goes. Strings
/// cannot form cycles, so counting frees every one of them.
struct CountedString final : std::string {
  explicit CountedString(std::string&& text) : std::string(std::move(text)) {}
  std::uint32_t refs = 1;
};

/// A JavaScript value: one of undefined, null, boolean, number, string, or
/// object reference, in 16 bytes.
///
/// An object reference is a plain pointer into the session's heap (see
/// interp/heap.h): objects live exactly as long as the Interpreter that made
/// them, however they reference each other, so cycles among them are freed
/// with it and a copy costs nothing. A Value naming an object must not be
/// used after its interpreter is destroyed.
///
/// A string either borrows text that outlives every copy of the value (an
/// atom's text, a static constant: no count) or names a CountedString that
/// a computation made. Only the latter pays for a count, and its count is
/// not atomic: a session's Values are touched by one thread at a time.
///
/// The typed accessors (`as_string`, `as_object`, ...) are only valid after
/// the corresponding kind check, as everywhere in the engine.
class Value {
 public:
  enum class Kind : std::uint8_t { Undefined, Null, Boolean, Number, String, Object };

  Value() noexcept {}  // user-provided, so a `static const Value` needs no initializer
  ~Value() {
    if (counted_) release();
  }

  Value(const Value& other) : bits_(other.bits_), kind_(other.kind_), counted_(other.counted_) {
    if (counted_) ++counted()->refs;
  }
  Value(Value&& other) noexcept
      : bits_(other.bits_), kind_(other.kind_), counted_(other.counted_) {
    other.kind_ = Kind::Undefined;
    other.counted_ = false;
  }
  Value& operator=(const Value& other) {
    if (other.counted_) ++other.counted()->refs;  // first: other may be *this
    if (counted_) release();
    bits_ = other.bits_;
    kind_ = other.kind_;
    counted_ = other.counted_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (counted_) release();
      bits_ = other.bits_;
      kind_ = other.kind_;
      counted_ = other.counted_;
      other.kind_ = Kind::Undefined;
      other.counted_ = false;
    }
    return *this;
  }

  static Value undefined() { return Value(); }
  static Value null() { return Value(Kind::Null); }
  static Value boolean(bool b) {
    Value v(Kind::Boolean);
    v.bits_.boolean = b;
    return v;
  }
  static Value number(double d) {
    Value v(Kind::Number);
    v.bits_.number = d;
    return v;
  }
  /// A computed string: the value owns `s` through a CountedString.
  static Value str(std::string s) {
    Value v(Kind::String);
    v.bits_.text = new CountedString(std::move(s));
    v.counted_ = true;
    return v;
  }
  /// Interned string: borrows the atom's text, no allocation and no count.
  static Value str(const js::Atom& atom) { return borrowed_str(atom.str()); }
  /// A string borrowing `text`, which must outlive every copy of the value
  /// (a static constant, or text the program or the process owns).
  static Value borrowed_str(const std::string& text) {
    Value v(Kind::String);
    v.bits_.text = &text;
    return v;
  }
  static Value object(JSObject* obj) {
    Value v(Kind::Object);
    v.bits_.object = obj;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_undefined() const { return kind_ == Kind::Undefined; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_nullish() const { return is_undefined() || is_null(); }
  [[nodiscard]] bool is_boolean() const { return kind_ == Kind::Boolean; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_boolean() const { return bits_.boolean; }
  [[nodiscard]] double as_number() const { return bits_.number; }
  // Valid only when the matching kind check passed:
  [[nodiscard]] const std::string& as_string() const { return *bits_.text; }
  [[nodiscard]] JSObject* as_object() const { return bits_.object; }

 private:
  explicit Value(Kind kind) : kind_(kind) {}

  [[nodiscard]] CountedString* counted() const {
    return const_cast<CountedString*>(static_cast<const CountedString*>(bits_.text));
  }
  void release() {
    CountedString* text = counted();
    if (--text->refs == 0) delete text;
  }

  union Bits {
    double number = 0;
    bool boolean;
    JSObject* object;
    const std::string* text;  // a CountedString iff counted_
  } bits_;
  Kind kind_ = Kind::Undefined;
  bool counted_ = false;
};

static_assert(sizeof(Value) == 16, "a Value is a payload word and a kind word");

}  // namespace jsceres::interp
