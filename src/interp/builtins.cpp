#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "interp/interpreter.h"
#include "interp/realm.h"

namespace jsceres::interp {

namespace {

/// Reference into `args` (or the shared undefined) — callers that only
/// inspect the argument avoid copying a Value per access.
const Value& arg_or_undefined(const Args& args, std::size_t i) {
  static const Value kUndefined;
  return i < args.size() ? args[i] : kUndefined;
}

double num_arg(Interpreter& interp, const Args& args, std::size_t i) {
  return interp.to_number(arg_or_undefined(args, i));
}

/// Report a native-initiated element write to the dependence analyzer (the
/// stand-in for the paper's Proxy trapping Array.prototype internals). The
/// key atom comes from the interpreter's index cache, and nothing — not
/// even the decimal spelling of the index — is materialized outside mode 3.
void note_index_write(Interpreter& interp, JSObject* obj, std::size_t index) {
  if (interp.wants_memory_events()) {
    interp.note_prop_write(obj->id(), interp.index_atom(index), 0,
                           BaseProvenance{BaseProvenance::Kind::Object, 0});
  }
}

JSObject* require_array(Interpreter& interp, const Value& this_val, const char* method) {
  if (!this_val.is_object() || !this_val.as_object()->is_array()) {
    interp.throw_error("TypeError",
                       std::string("Array.prototype.") + method +
                           " called on a non-array");
  }
  return this_val.as_object();
}

const std::string& require_string(Interpreter& interp, const Value& this_val,
                                  const char* method) {
  if (!this_val.is_string()) {
    interp.throw_error("TypeError",
                       std::string("String.prototype.") + method +
                           " called on a non-string");
  }
  return this_val.as_string();
}

void define_method(Realm& realm, JSObject* target, const std::string& name,
                   NativeFn fn) {
  realm.set(target, name, Value::object(realm.make_native_function(name, std::move(fn))));
}

// ---------------------------------------------------------------------------
// Math
// ---------------------------------------------------------------------------

void install_math(Realm& realm) {
  JSObject* math = realm.make_namespace_object();
  realm.set(math, "PI", Value::number(M_PI));
  realm.set(math, "E", Value::number(M_E));
  realm.set(math, "LN2", Value::number(M_LN2));
  realm.set(math, "LN10", Value::number(M_LN10));
  realm.set(math, "SQRT2", Value::number(M_SQRT2));

  const auto unary = [&](const std::string& name, double (*fn)(double)) {
    define_method(realm, math, name,
                  [fn](Interpreter& in, const Value&, const Args& args) {
                    in.charge(1);
                    return Value::number(fn(num_arg(in, args, 0)));
                  });
  };
  unary("abs", std::fabs);
  unary("floor", std::floor);
  unary("ceil", std::ceil);
  unary("sqrt", std::sqrt);
  unary("sin", std::sin);
  unary("cos", std::cos);
  unary("tan", std::tan);
  unary("asin", std::asin);
  unary("acos", std::acos);
  unary("atan", std::atan);
  unary("exp", std::exp);
  unary("log", std::log);
  define_method(realm, math, "round",
                [](Interpreter& in, const Value&, const Args& args) {
                  // JS rounds half-up (towards +inf), unlike C's round.
                  return Value::number(std::floor(num_arg(in, args, 0) + 0.5));
                });
  define_method(realm, math, "atan2",
                [](Interpreter& in, const Value&, const Args& args) {
                  return Value::number(
                      std::atan2(num_arg(in, args, 0), num_arg(in, args, 1)));
                });
  define_method(realm, math, "pow",
                [](Interpreter& in, const Value&, const Args& args) {
                  return Value::number(
                      std::pow(num_arg(in, args, 0), num_arg(in, args, 1)));
                });
  define_method(realm, math, "min",
                [](Interpreter& in, const Value&, const Args& args) {
                  double best = std::numeric_limits<double>::infinity();
                  for (const auto& a : args) best = std::min(best, in.to_number(a));
                  return Value::number(best);
                });
  define_method(realm, math, "max",
                [](Interpreter& in, const Value&, const Args& args) {
                  double best = -std::numeric_limits<double>::infinity();
                  for (const auto& a : args) best = std::max(best, in.to_number(a));
                  return Value::number(best);
                });
  define_method(realm, math, "random",
                [](Interpreter& in, const Value&, const Args&) {
                  return Value::number(in.rng().next_double());
                });
  realm.define_global("Math", Value::object(math));
}

// ---------------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------------

void install_array(Realm& realm) {
  JSObject* proto = realm.array_prototype();

  define_method(realm, proto, "push",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "push");
                  in.charge_elements(*arr, arr->elements().size() + args.size());
                  for (const auto& a : args) {
                    note_index_write(in, arr, arr->elements().size());
                    arr->elements().push_back(a);
                  }
                  in.charge(std::int64_t(args.size()));
                  return Value::number(double(arr->elements().size()));
                });
  define_method(realm, proto, "pop",
                [](Interpreter& in, const Value& self, const Args&) {
                  JSObject* arr = require_array(in, self, "pop");
                  if (arr->elements().empty()) return Value::undefined();
                  Value last = arr->elements().back();
                  note_index_write(in, arr, arr->elements().size() - 1);
                  arr->elements().pop_back();
                  return last;
                });
  define_method(realm, proto, "shift",
                [](Interpreter& in, const Value& self, const Args&) {
                  JSObject* arr = require_array(in, self, "shift");
                  if (arr->elements().empty()) return Value::undefined();
                  Value first = arr->elements().front();
                  arr->elements().erase(arr->elements().begin());
                  in.charge(std::int64_t(arr->elements().size()));
                  note_index_write(in, arr, 0);
                  return first;
                });
  define_method(realm, proto, "indexOf",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "indexOf");
                  const Value& needle = arg_or_undefined(args, 0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    in.charge(1);
                    const Value& e = arr->elements()[i];
                    if (e.kind() == needle.kind()) {
                      if ((e.is_number() && e.as_number() == needle.as_number()) ||
                          (e.is_string() && e.as_string() == needle.as_string()) ||
                          (e.is_object() && e.as_object() == needle.as_object()) ||
                          (e.is_boolean() && e.as_boolean() == needle.as_boolean()) ||
                          e.is_nullish()) {
                        return Value::number(double(i));
                      }
                    }
                  }
                  return Value::number(-1);
                });
  define_method(realm, proto, "join",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "join");
                  const std::string sep = args.empty() ? "," : in.to_string_value(args[0]);
                  std::string out;
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    if (i > 0) out += sep;
                    const Value& e = arr->elements()[i];
                    if (!e.is_nullish()) out += in.to_string_value(e);
                    in.charge(1);
                  }
                  return Value::str(std::move(out));
                });
  define_method(realm, proto, "slice",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "slice");
                  const auto size = std::int64_t(arr->elements().size());
                  std::int64_t begin = args.empty() ? 0 : std::int64_t(num_arg(in, args, 0));
                  std::int64_t end = args.size() < 2 ? size : std::int64_t(num_arg(in, args, 1));
                  if (begin < 0) begin += size;
                  if (end < 0) end += size;
                  begin = std::clamp<std::int64_t>(begin, 0, size);
                  end = std::clamp<std::int64_t>(end, 0, size);
                  JSObject* out =
                      in.make_array(std::size_t(std::max<std::int64_t>(0, end - begin)));
                  for (std::int64_t i = begin; i < end; ++i) {
                    out->elements().push_back(arr->elements()[std::size_t(i)]);
                    in.charge(1);
                  }
                  return Value::object(out);
                });
  define_method(realm, proto, "concat",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "concat");
                  JSObject* out = in.make_array(arr->elements().size());
                  out->elements() = arr->elements();
                  std::size_t total = out->elements().size();
                  for (const auto& a : args) {
                    total += a.is_object() && a.as_object()->is_array()
                                 ? a.as_object()->elements().size()
                                 : 1;
                  }
                  in.charge_elements(*out, total);
                  for (const auto& a : args) {
                    if (a.is_object() && a.as_object()->is_array()) {
                      for (const auto& e : a.as_object()->elements()) {
                        out->elements().push_back(e);
                      }
                    } else {
                      out->elements().push_back(a);
                    }
                  }
                  in.charge(std::int64_t(out->elements().size()));
                  return Value::object(out);
                });
  define_method(realm, proto, "reverse",
                [](Interpreter& in, const Value& self, const Args&) {
                  JSObject* arr = require_array(in, self, "reverse");
                  std::reverse(arr->elements().begin(), arr->elements().end());
                  in.charge(std::int64_t(arr->elements().size()));
                  return self;
                });
  define_method(realm, proto, "fill",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "fill");
                  const Value& fill = arg_or_undefined(args, 0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    note_index_write(in, arr, i);
                    arr->elements()[i] = fill;
                  }
                  in.charge(std::int64_t(arr->elements().size()));
                  return self;
                });
  define_method(realm, proto, "splice",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "splice");
                  const auto size = std::int64_t(arr->elements().size());
                  std::int64_t begin = args.empty() ? 0 : std::int64_t(num_arg(in, args, 0));
                  if (begin < 0) begin += size;
                  begin = std::clamp<std::int64_t>(begin, 0, size);
                  std::int64_t remove = args.size() < 2
                                            ? size - begin
                                            : std::int64_t(num_arg(in, args, 1));
                  remove = std::clamp<std::int64_t>(remove, 0, size - begin);
                  JSObject* removed = in.make_array(std::size_t(remove));
                  auto& elems = arr->elements();
                  for (std::int64_t i = 0; i < remove; ++i) {
                    removed->elements().push_back(elems[std::size_t(begin + i)]);
                  }
                  elems.erase(elems.begin() + begin, elems.begin() + begin + remove);
                  for (std::size_t i = 2; i < args.size(); ++i) {
                    elems.insert(elems.begin() + begin + std::int64_t(i) - 2, args[i]);
                  }
                  note_index_write(in, arr, std::size_t(begin));
                  in.charge(size);
                  return Value::object(removed);
                });
  define_method(realm, proto, "sort",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "sort");
                  auto& elems = arr->elements();
                  const Value& comparator = arg_or_undefined(args, 0);
                  if (comparator.is_object() && comparator.as_object()->is_function()) {
                    std::stable_sort(elems.begin(), elems.end(),
                                     [&](const Value& a, const Value& b) {
                                       const Value r = in.call(comparator, Value::undefined(), {a, b});
                                       return in.to_number(r) < 0;
                                     });
                  } else {
                    std::stable_sort(elems.begin(), elems.end(),
                                     [&](const Value& a, const Value& b) {
                                       return in.to_string_value(a) < in.to_string_value(b);
                                     });
                  }
                  note_index_write(in, arr, 0);
                  in.charge(std::int64_t(elems.size()));
                  return self;
                });

  // --- functional operators (the paper's §2.3 "high-level Array operators").
  // Each callback invocation creates a fresh activation environment, which is
  // exactly why the paper's forEach rewrite removes the `var p` dependence.
  define_method(realm, proto, "forEach",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "forEach");
                  const Value& callback = arg_or_undefined(args, 0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    in.call(callback, Value::undefined(),
                            {arr->elements()[i], Value::number(double(i)), self});
                  }
                  return Value::undefined();
                });
  define_method(realm, proto, "map",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "map");
                  const Value& callback = arg_or_undefined(args, 0);
                  JSObject* out = in.make_array(arr->elements().size());
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    out->elements().push_back(
                        in.call(callback, Value::undefined(),
                                {arr->elements()[i], Value::number(double(i)), self}));
                  }
                  return Value::object(out);
                });
  define_method(realm, proto, "filter",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "filter");
                  const Value& callback = arg_or_undefined(args, 0);
                  JSObject* out = in.make_array(0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    const Value keep =
                        in.call(callback, Value::undefined(),
                                {arr->elements()[i], Value::number(double(i)), self});
                    if (Interpreter::to_boolean(keep)) {
                      out->elements().push_back(arr->elements()[i]);
                    }
                  }
                  return Value::object(out);
                });
  define_method(realm, proto, "reduce",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "reduce");
                  const Value& callback = arg_or_undefined(args, 0);
                  std::size_t i = 0;
                  Value acc;
                  if (args.size() >= 2) {
                    acc = args[1];
                  } else {
                    if (arr->elements().empty()) {
                      in.throw_error("TypeError", "reduce of empty array with no initial value");
                    }
                    acc = arr->elements()[0];
                    i = 1;
                  }
                  for (; i < arr->elements().size(); ++i) {
                    acc = in.call(callback, Value::undefined(),
                                  {acc, arr->elements()[i], Value::number(double(i)), self});
                  }
                  return acc;
                });
  define_method(realm, proto, "every",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "every");
                  const Value& callback = arg_or_undefined(args, 0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    const Value ok =
                        in.call(callback, Value::undefined(),
                                {arr->elements()[i], Value::number(double(i)), self});
                    if (!Interpreter::to_boolean(ok)) return Value::boolean(false);
                  }
                  return Value::boolean(true);
                });
  define_method(realm, proto, "some",
                [](Interpreter& in, const Value& self, const Args& args) {
                  JSObject* arr = require_array(in, self, "some");
                  const Value& callback = arg_or_undefined(args, 0);
                  for (std::size_t i = 0; i < arr->elements().size(); ++i) {
                    const Value ok =
                        in.call(callback, Value::undefined(),
                                {arr->elements()[i], Value::number(double(i)), self});
                    if (Interpreter::to_boolean(ok)) return Value::boolean(true);
                  }
                  return Value::boolean(false);
                });

  // Array constructor: Array(n) pre-sizes, Array(a, b, c) packs.
  JSObject* array_ctor = realm.make_native_function(
      "Array", [](Interpreter& in, const Value&, const Args& args) {
        if (args.size() == 1 && args[0].is_number()) {
          JSObject* out = in.make_array(0);
          in.grow_elements(*out, std::size_t(args[0].as_number()));
          return Value::object(out);
        }
        JSObject* out = in.make_array(args.size());
        for (const auto& a : args) out->elements().push_back(a);
        return Value::object(out);
      });
  realm.set(array_ctor, "isArray",
            Value::object(realm.make_native_function(
                "isArray", [](Interpreter&, const Value&, const Args& args) {
                  const Value& v = arg_or_undefined(args, 0);
                  return Value::boolean(v.is_object() && v.as_object()->is_array());
                })));
  realm.set(array_ctor, "prototype", Value::object(proto));
  realm.define_global("Array", Value::object(array_ctor));
}

// ---------------------------------------------------------------------------
// String / Number methods
// ---------------------------------------------------------------------------

void install_string(Realm& realm) {
  JSObject* proto = realm.string_prototype();

  define_method(realm, proto, "charAt",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "charAt");
                  const auto i = std::int64_t(num_arg(in, args, 0));
                  if (i < 0 || i >= std::int64_t(s.size())) return Value::str("");
                  return Value::str(std::string(1, s[std::size_t(i)]));
                });
  define_method(realm, proto, "charCodeAt",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "charCodeAt");
                  const auto i = args.empty() ? 0 : std::int64_t(num_arg(in, args, 0));
                  if (i < 0 || i >= std::int64_t(s.size())) {
                    return Value::number(std::numeric_limits<double>::quiet_NaN());
                  }
                  return Value::number(double(static_cast<unsigned char>(s[std::size_t(i)])));
                });
  define_method(realm, proto, "indexOf",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "indexOf");
                  const std::string needle = in.to_string_value(arg_or_undefined(args, 0));
                  const std::size_t pos = s.find(needle);
                  return Value::number(pos == std::string::npos ? -1 : double(pos));
                });
  define_method(realm, proto, "lastIndexOf",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "lastIndexOf");
                  const std::string needle = in.to_string_value(arg_or_undefined(args, 0));
                  const std::size_t pos = s.rfind(needle);
                  return Value::number(pos == std::string::npos ? -1 : double(pos));
                });
  define_method(realm, proto, "substring",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "substring");
                  auto begin = std::int64_t(num_arg(in, args, 0));
                  auto end = args.size() < 2 ? std::int64_t(s.size())
                                             : std::int64_t(num_arg(in, args, 1));
                  begin = std::clamp<std::int64_t>(begin, 0, std::int64_t(s.size()));
                  end = std::clamp<std::int64_t>(end, 0, std::int64_t(s.size()));
                  if (begin > end) std::swap(begin, end);
                  return Value::str(s.substr(std::size_t(begin), std::size_t(end - begin)));
                });
  define_method(realm, proto, "slice",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "slice");
                  const auto size = std::int64_t(s.size());
                  auto begin = args.empty() ? 0 : std::int64_t(num_arg(in, args, 0));
                  auto end = args.size() < 2 ? size : std::int64_t(num_arg(in, args, 1));
                  if (begin < 0) begin += size;
                  if (end < 0) end += size;
                  begin = std::clamp<std::int64_t>(begin, 0, size);
                  end = std::clamp<std::int64_t>(end, 0, size);
                  if (begin >= end) return Value::str("");
                  return Value::str(s.substr(std::size_t(begin), std::size_t(end - begin)));
                });
  define_method(realm, proto, "split",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const std::string& s = require_string(in, self, "split");
                  const std::string sep = in.to_string_value(arg_or_undefined(args, 0));
                  JSObject* out = in.make_array(0);
                  if (sep.empty()) {
                    in.charge_elements(*out, s.size());
                    for (const char c : s) {
                      out->elements().push_back(Value::str(std::string(1, c)));
                    }
                    return Value::object(out);
                  }
                  std::size_t start = 0;
                  while (true) {
                    const std::size_t pos = s.find(sep, start);
                    if (pos == std::string::npos) {
                      out->elements().push_back(Value::str(s.substr(start)));
                      break;
                    }
                    out->elements().push_back(Value::str(s.substr(start, pos - start)));
                    start = pos + sep.size();
                  }
                  return Value::object(out);
                });
  define_method(realm, proto, "toLowerCase",
                [](Interpreter& in, const Value& self, const Args&) {
                  std::string s = require_string(in, self, "toLowerCase");
                  std::transform(s.begin(), s.end(), s.begin(),
                                 [](unsigned char c) { return char(std::tolower(c)); });
                  return Value::str(std::move(s));
                });
  define_method(realm, proto, "toUpperCase",
                [](Interpreter& in, const Value& self, const Args&) {
                  std::string s = require_string(in, self, "toUpperCase");
                  std::transform(s.begin(), s.end(), s.begin(),
                                 [](unsigned char c) { return char(std::toupper(c)); });
                  return Value::str(std::move(s));
                });
  define_method(realm, proto, "trim",
                [](Interpreter& in, const Value& self, const Args&) {
                  const std::string& s = require_string(in, self, "trim");
                  std::size_t begin = 0;
                  std::size_t end = s.size();
                  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
                  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
                  return Value::str(s.substr(begin, end - begin));
                });
  define_method(realm, proto, "replace",
                [](Interpreter& in, const Value& self, const Args& args) {
                  // First-occurrence, string-pattern replace (no regex in the
                  // engine subset).
                  const std::string& s = require_string(in, self, "replace");
                  const std::string pattern = in.to_string_value(arg_or_undefined(args, 0));
                  const std::string replacement = in.to_string_value(arg_or_undefined(args, 1));
                  const std::size_t pos = s.find(pattern);
                  if (pos == std::string::npos || pattern.empty()) return self;
                  std::string out = s;
                  out.replace(pos, pattern.size(), replacement);
                  return Value::str(std::move(out));
                });
  // Number.prototype.toFixed lives here too; property_get routes number
  // method lookups through the same prototype (documented simplification).
  define_method(realm, proto, "toFixed",
                [](Interpreter& in, const Value& self, const Args& args) {
                  if (!self.is_number()) {
                    in.throw_error("TypeError", "toFixed called on a non-number");
                  }
                  const int digits = int(num_arg(in, args, 0));
                  char buf[64];
                  std::snprintf(buf, sizeof buf, "%.*f", digits, self.as_number());
                  return Value::str(std::string(buf));
                });

  JSObject* string_ctor = realm.make_native_function(
      "String", [](Interpreter& in, const Value&, const Args& args) {
        return Value::str(args.empty() ? "" : in.to_string_value(args[0]));
      });
  realm.set(
      string_ctor, "fromCharCode",
      Value::object(realm.make_native_function(
          "fromCharCode", [](Interpreter& in, const Value&, const Args& args) {
            std::string out;
            for (const auto& a : args) out += char(int(in.to_number(a)) & 0xff);
            return Value::str(std::move(out));
          })));
  realm.set(string_ctor, "prototype", Value::object(proto));
  realm.define_global("String", Value::object(string_ctor));
}

// ---------------------------------------------------------------------------
// Object / Function / JSON / console / global functions
// ---------------------------------------------------------------------------

void install_object(Realm& realm) {
  JSObject* object_ctor = realm.make_native_function(
      "Object", [](Interpreter& in, const Value&, const Args&) {
        return Value::object(in.make_object());
      });
  realm.set(
      object_ctor, "keys", Value::object(realm.make_native_function(
                  "keys", [](Interpreter& in, const Value&, const Args& args) {
                    const Value& v = arg_or_undefined(args, 0);
                    JSObject* out = in.make_array(0);
                    if (v.is_object()) {
                      JSObject* obj = v.as_object();
                      if (obj->is_array()) {
                        for (std::size_t i = 0; i < obj->elements().size(); ++i) {
                          out->elements().push_back(
                              Value::str(js::number_to_string(double(i))));
                        }
                      }
                      for (const auto& key : obj->key_order()) {
                        out->elements().push_back(Value::str(key));
                      }
                    }
                    return Value::object(out);
                  })));
  realm.set(
      object_ctor, "create", Value::object(realm.make_native_function(
                    "create", [](Interpreter& in, const Value&, const Args& args) {
                      JSObject* obj = in.make_object();
                      const Value& proto = arg_or_undefined(args, 0);
                      if (proto.is_object()) obj->set_prototype(proto.as_object());
                      if (proto.is_null()) obj->set_prototype(nullptr);
                      return Value::object(obj);
                    })));
  realm.set(object_ctor, "prototype", Value::object(realm.object_prototype()));
  realm.define_global("Object", Value::object(object_ctor));

  JSObject* fn_proto = realm.function_prototype();
  define_method(realm, fn_proto, "call",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const Value& this_arg = arg_or_undefined(args, 0);
                  // Forward the tail of the caller's argument span directly;
                  // the storage outlives the inner call by construction.
                  const Args rest = args.empty() ? Args()
                                                 : Args(args.data() + 1, args.size() - 1);
                  return in.call(self, this_arg, rest);
                });
  define_method(realm, fn_proto, "apply",
                [](Interpreter& in, const Value& self, const Args& args) {
                  const Value& this_arg = arg_or_undefined(args, 0);
                  const Value& arg_list = arg_or_undefined(args, 1);
                  if (arg_list.is_object() && arg_list.as_object()->is_array()) {
                    // Snapshot the elements into an ArgStack frame (the
                    // callee may mutate the array while the call is in
                    // flight, so a borrowed span would dangle) — same
                    // reused storage as call(), so no heap traffic.
                    return in.call_spread(self, this_arg,
                                          arg_list.as_object()->elements());
                  }
                  return in.call(self, this_arg, Args());
                });
}

std::string json_stringify(Interpreter& interp, const Value& v, int depth) {
  if (depth > 16) return "null";
  switch (v.kind()) {
    case Value::Kind::Undefined:
      return "null";
    case Value::Kind::Null:
      return "null";
    case Value::Kind::Boolean:
      return v.as_boolean() ? "true" : "false";
    case Value::Kind::Number:
      return std::isfinite(v.as_number()) ? js::number_to_string(v.as_number())
                                          : "null";
    case Value::Kind::String: {
      std::string out = "\"";
      for (const char c : v.as_string()) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (c == '\n') {
          out += "\\n";
        } else if (c == '\t') {
          out += "\\t";
        } else {
          out += c;
        }
      }
      return out + "\"";
    }
    case Value::Kind::Object: {
      JSObject* obj = v.as_object();
      if (obj->is_function()) return "null";
      if (obj->is_array()) {
        std::string out = "[";
        for (std::size_t i = 0; i < obj->elements().size(); ++i) {
          if (i > 0) out += ",";
          out += json_stringify(interp, obj->elements()[i], depth + 1);
        }
        return out + "]";
      }
      std::string out = "{";
      bool first = true;
      for (const auto& key : obj->key_order()) {
        const Value* val = obj->own_property(key);
        if (val == nullptr) continue;
        if (!first) out += ",";
        first = false;
        out += json_stringify(interp, Value::str(key), depth + 1) + ":" +
               json_stringify(interp, *val, depth + 1);
      }
      return out + "}";
    }
  }
  return "null";
}

void install_misc(Realm& realm) {
  JSObject* console = realm.make_namespace_object();
  const Value log = Value::object(realm.make_native_function(
      "log", [](Interpreter& in, const Value&, const Args& args) {
        std::string line;
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i > 0) line += " ";
          line += in.to_string_value(args[i]);
        }
        in.console_write(line);
        return Value::undefined();
      }));
  realm.set(console, "log", log);
  realm.set(console, "warn", log);
  realm.set(console, "error", log);
  realm.define_global("console", Value::object(console));

  JSObject* json = realm.make_namespace_object();
  define_method(realm, json, "stringify",
                [](Interpreter& in, const Value&, const Args& args) {
                  return Value::str(json_stringify(in, arg_or_undefined(args, 0), 0));
                });
  realm.define_global("JSON", Value::object(json));

  realm.define_global(
      "parseInt", Value::object(realm.make_native_function(
                      "parseInt", [](Interpreter& in, const Value&, const Args& args) {
                        const std::string s = in.to_string_value(arg_or_undefined(args, 0));
                        const int radix = args.size() >= 2 ? int(in.to_number(args[1])) : 10;
                        const long long v = std::strtoll(s.c_str(), nullptr,
                                                         radix == 0 ? 10 : radix);
                        if (s.empty()) {
                          return Value::number(std::numeric_limits<double>::quiet_NaN());
                        }
                        return Value::number(double(v));
                      })));
  realm.define_global(
      "parseFloat", Value::object(realm.make_native_function(
                        "parseFloat", [](Interpreter& in, const Value&, const Args& args) {
                          const std::string s = in.to_string_value(arg_or_undefined(args, 0));
                          return Value::number(std::strtod(s.c_str(), nullptr));
                        })));
  realm.define_global(
      "isNaN", Value::object(realm.make_native_function(
                   "isNaN", [](Interpreter& in, const Value&, const Args& args) {
                     return Value::boolean(std::isnan(num_arg(in, args, 0)));
                   })));
  realm.define_global(
      "isFinite", Value::object(realm.make_native_function(
                      "isFinite", [](Interpreter& in, const Value&, const Args& args) {
                        return Value::boolean(std::isfinite(num_arg(in, args, 0)));
                      })));
  realm.define_global(
      "Number", Value::object(realm.make_native_function(
                    "Number", [](Interpreter& in, const Value&, const Args& args) {
                      return Value::number(args.empty() ? 0 : in.to_number(args[0]));
                    })));
  realm.define_global(
      "Boolean", Value::object(realm.make_native_function(
                     "Boolean", [](Interpreter&, const Value&, const Args& args) {
                       return Value::boolean(!args.empty() &&
                                             Interpreter::to_boolean(args[0]));
                     })));

  // Time sources read the deterministic virtual clock ([4] in the paper:
  // the JavaScript high-resolution timer).
  JSObject* date = realm.make_native_function(
      "Date", [](Interpreter& in, const Value&, const Args&) {
        return Value::number(double(in.clock().wall_ns() / 1000000));
      });
  realm.set(date, "now",
            Value::object(realm.make_native_function(
                "now", [](Interpreter& in, const Value&, const Args&) {
                  return Value::number(double(in.clock().wall_ns() / 1000000));
                })));
  realm.define_global("Date", Value::object(date));

  JSObject* performance = realm.make_namespace_object();
  define_method(realm, performance, "now",
                [](Interpreter& in, const Value&, const Args&) {
                  return Value::number(double(in.clock().wall_ns()) / 1e6);
                });
  realm.define_global("performance", Value::object(performance));
}

}  // namespace

void install_stdlib(Realm& realm) {
  install_math(realm);
  install_array(realm);
  install_string(realm);
  install_object(realm);
  install_misc(realm);
}

}  // namespace jsceres::interp
