// Deeper engine-semantics coverage: coercion tables, prototype chains,
// scoping corners, and the instrumentation-facing behaviours (host-object
// category reporting, provenance of property accesses).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "js/parser.h"

namespace jsceres::interp {
namespace {

struct EngineRun {
  explicit EngineRun(const std::string& source, ExecutionHooks* hooks = nullptr)
      : interp(js::parse(source), clock, hooks) {
    interp.run();
  }
  Value global(const std::string& name) { return interp.global(name); }

  VirtualClock clock;
  Interpreter interp;
};

double num(const std::string& source) {
  EngineRun run(source);
  const Value v = run.global("result");
  EXPECT_TRUE(v.is_number());
  return v.as_number();
}

std::string str_result(const std::string& source) {
  EngineRun run(source);
  const Value v = run.global("result");
  EXPECT_TRUE(v.is_string());
  return v.as_string();
}

// ---------------------------------------------------------------------------
// Coercions
// ---------------------------------------------------------------------------

struct CoercionCase {
  const char* expr;
  const char* expected;
};

class CoercionTable : public ::testing::TestWithParam<CoercionCase> {};

TEST_P(CoercionTable, StringifiesLikeJavaScript) {
  const auto& param = GetParam();
  EXPECT_EQ(str_result(std::string("var result = '' + (") + param.expr + ");"),
            param.expected)
      << param.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CoercionTable,
    ::testing::Values(CoercionCase{"1 + '2'", "12"},
                      CoercionCase{"'3' * '4'", "12"},
                      CoercionCase{"true + true", "2"},
                      CoercionCase{"null + 1", "1"},
                      CoercionCase{"undefined + 1", "NaN"},
                      CoercionCase{"[1, 2] + ''", "1,2"},
                      CoercionCase{"({}) + ''", "[object Object]"},
                      CoercionCase{"0 / 0", "NaN"},
                      CoercionCase{"1 / 0", "Infinity"},
                      CoercionCase{"-1 / 0", "-Infinity"},
                      CoercionCase{"'5' - 2", "3"},
                      CoercionCase{"!'nonempty'", "false"},
                      CoercionCase{"!''", "true"},
                      CoercionCase{"' 42 ' * 1", "42"},
                      CoercionCase{"'x' * 1", "NaN"}));

TEST(Semantics, TruthinessTable) {
  EXPECT_DOUBLE_EQ(num("var result = (0 ? 1 : 0) + ('' ? 1 : 0) + (null ? 1 : 0) + "
                       "(undefined ? 1 : 0) + (NaN ? 1 : 0);"),
                   0);
  EXPECT_DOUBLE_EQ(num("var result = (1 ? 1 : 0) + ('a' ? 1 : 0) + ([] ? 1 : 0) + "
                       "(({}) ? 1 : 0) + (-1 ? 1 : 0);"),
                   5);
}

TEST(Semantics, LooseVsStrictEqualityMatrix) {
  EXPECT_DOUBLE_EQ(num("var result = (0 == '') + (0 == '0') + ('' == '0') * 10;"),
                   2);  // '' == '0' is false
  EXPECT_DOUBLE_EQ(num("var result = (null == undefined) + (null === undefined) * 10;"), 1);
  EXPECT_DOUBLE_EQ(num("var result = (1 == true) + (1 === true) * 10;"), 1);
}

// ---------------------------------------------------------------------------
// Prototype chains and constructors
// ---------------------------------------------------------------------------

TEST(Semantics, PrototypeChainLookupOrder) {
  EXPECT_DOUBLE_EQ(
      num("function A() {}\n"
          "A.prototype.v = 1;\n"
          "var a = new A();\n"
          "var before = a.v;\n"
          "a.v = 2;\n"  // own property shadows the prototype
          "var result = before * 10 + a.v;"),
      12);
}

TEST(Semantics, PrototypeUpdatesAreLive) {
  EXPECT_DOUBLE_EQ(
      num("function A() {}\n"
          "var a = new A();\n"
          "A.prototype.f = function () { return 7; };\n"  // after construction
          "var result = a.f();"),
      7);
}

TEST(Semantics, ConstructorReturningObjectOverridesThis) {
  EXPECT_DOUBLE_EQ(num("function F() { this.x = 1; return {x: 99}; }\n"
                       "var result = new F().x;"),
                   99);
  EXPECT_DOUBLE_EQ(num("function G() { this.x = 1; return 42; }\n"
                       "var result = new G().x;"),
                   1);  // primitive return is ignored
}

TEST(Semantics, InstanceofFollowsChain) {
  EXPECT_DOUBLE_EQ(
      num("function Base() {}\n"
          "function Derived() {}\n"
          "Derived.prototype = new Base();\n"
          "var d = new Derived();\n"
          "var result = (d instanceof Derived ? 1 : 0) + (d instanceof Base ? 2 : 0);"),
      3);
}

TEST(Semantics, MethodThisBinding) {
  EXPECT_DOUBLE_EQ(num("var counter = {n: 5, bump: function () { this.n++; return this.n; }};\n"
                       "counter.bump();\n"
                       "var result = counter.bump();"),
                   7);
}

TEST(Semantics, DetachedMethodLosesThis) {
  // Calling a detached method gives this === undefined; our engine returns
  // undefined member reads as TypeError on property set — here we only read.
  EngineRun run("var o = {n: 3, get: function () { return this; }};\n"
          "var f = o.get;\n"
          "var result = f() === undefined ? 'lost' : 'kept';");
  EXPECT_EQ(run.global("result").as_string(), "lost");
}

// ---------------------------------------------------------------------------
// Scoping corners
// ---------------------------------------------------------------------------

TEST(Semantics, VarHoistingReadsUndefined) {
  EXPECT_EQ(str_result("var result = typeof x;\nvar x = 1;"), "undefined");
}

TEST(Semantics, FunctionScopingSharesLoopVariable) {
  // The study's central JS quirk once more, through closures in an array.
  EXPECT_DOUBLE_EQ(num("var fs = [];\n"
                       "for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); }\n"
                       "var result = fs[0]() + fs[1]() + fs[2]();"),
                   9);
}

TEST(Semantics, IifePrivatizes) {
  EXPECT_DOUBLE_EQ(
      num("var fs = [];\n"
          "for (var i = 0; i < 3; i++) {\n"
          "  (function (j) { fs.push(function () { return j; }); })(i);\n"
          "}\n"
          "var result = fs[0]() + fs[1]() + fs[2]();"),
      3);
}

TEST(Semantics, CatchParameterIsBlockScoped) {
  EXPECT_EQ(str_result("var e = 'outer';\n"
                       "try { throw {message: 'inner'}; } catch (e) { }\n"
                       "var result = e;"),
            "outer");
}

TEST(Semantics, NestedFunctionSeesEnclosingScope) {
  EXPECT_DOUBLE_EQ(num("function outer() {\n"
                       "  var secret = 21;\n"
                       "  function inner() { return secret * 2; }\n"
                       "  return inner();\n"
                       "}\n"
                       "var result = outer();"),
                   42);
}

// ---------------------------------------------------------------------------
// Arrays: holes, growth, length interplay
// ---------------------------------------------------------------------------

TEST(Semantics, SparseWriteFillsWithUndefined) {
  EXPECT_EQ(str_result("var a = [];\n"
                       "a[3] = 'x';\n"
                       "var result = typeof a[1] + ':' + a.length;"),
            "undefined:4");
}

TEST(Semantics, LengthTruncates) {
  EXPECT_EQ(str_result("var a = [1, 2, 3, 4];\n"
                       "a.length = 2;\n"
                       "var result = a.join(',');"),
            "1,2");
}

TEST(Semantics, NegativeSliceIndices) {
  EXPECT_EQ(str_result("var result = [1, 2, 3, 4, 5].slice(-3, -1).join('');"), "34");
}

TEST(Semantics, ReduceWithoutInitialValue) {
  EXPECT_DOUBLE_EQ(num("var result = [2, 3, 4].reduce(function (a, b) { return a * b; });"),
                   24);
}

TEST(Semantics, MapIndexArgument) {
  EXPECT_EQ(str_result("var result = ['a', 'b'].map(function (v, i) { return v + i; }).join(',');"),
            "a0,b1");
}

TEST(Semantics, NumericObjectKeysUseTheNumbersCanonicalString) {
  EXPECT_EQ(str_result("var o = {0x10: 1, 1.50: 2, 1e3: 3};\n"
                       "var keys = [];\n"
                       "for (var k in o) { keys.push(k); }\n"
                       "var result = o[16] + ',' + o[1.5] + ',' + o[1000] + '|' + keys.join(',');"),
            "1,2,3|16,1.5,1000");
}

// ---------------------------------------------------------------------------
// Hook-facing behaviour
// ---------------------------------------------------------------------------

class CountingHooks final : public ExecutionHooks {
 public:
  [[nodiscard]] bool wants_memory_events() const override { return true; }
  void on_memory_batch(const MemoryEvent* events, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const MemoryEvent& e = events[i];
      if (e.kind == MemoryEvent::Kind::VarWrite) ++var_writes[e.name];
      if (e.kind == MemoryEvent::Kind::PropWrite) {
        ++prop_writes[e.name.str()];
        last_base = e.base.kind;
      }
    }
  }
  void on_object_created(std::uint64_t, int) override { ++objects; }
  std::map<std::string, int> var_writes;
  std::map<std::string, int> prop_writes;
  BaseProvenance::Kind last_base = BaseProvenance::Kind::Object;
  int objects = 0;
};

TEST(Hooks, VarWritesReported) {
  CountingHooks hooks;
  EngineRun run("var x = 1;\nx = 2;\nx += 3;\nx++;", &hooks);
  EXPECT_EQ(hooks.var_writes["x"], 4);
}

TEST(Hooks, PropertyWriteProvenanceIsBindingForIdents) {
  CountingHooks hooks;
  EngineRun run("var o = {};\no.f = 1;", &hooks);
  EXPECT_EQ(hooks.prop_writes["f"], 1);
  EXPECT_EQ(hooks.last_base, BaseProvenance::Kind::Binding);
}

TEST(Hooks, PropertyWriteProvenanceIsThisInConstructors) {
  CountingHooks hooks;
  EngineRun run("function C() { this.v = 1; }\nnew C();", &hooks);
  EXPECT_EQ(hooks.prop_writes["v"], 1);
  EXPECT_EQ(hooks.last_base, BaseProvenance::Kind::This);
}

TEST(Hooks, ObjectCreationCounted) {
  CountingHooks hooks;
  EngineRun run("var a = {};\nvar b = [];\nvar c = new Object();\n"
          "function f() {}\nvar d = f;",
          &hooks);
  // {}, [], new Object's allocation, the function object f (plus its
  // prototype object is created without a hook through make_object? no —
  // it goes through the ctor path). At minimum the three literals exist.
  EXPECT_GE(hooks.objects, 3);
}

/// Logs memory events, object creations and loop iterations into one
/// sequence, to pin where batched memory events land among the others.
class SequenceHooks final : public ExecutionHooks {
 public:
  [[nodiscard]] bool wants_memory_events() const override { return true; }
  void on_memory_batch(const MemoryEvent* events, std::size_t count) override {
    static constexpr const char* kKinds[] = {"var-write", "var-read", "prop-write",
                                             "prop-read"};
    for (std::size_t i = 0; i < count; ++i) {
      const MemoryEvent& e = events[i];
      log.push_back(std::string(kKinds[static_cast<int>(e.kind)]) + " " +
                    std::to_string(e.id) + " " + e.name.str());
    }
  }
  void on_object_created(std::uint64_t obj_id, int) override {
    log.push_back("created " + std::to_string(obj_id));
  }
  void on_loop_iteration(const LoopEvent& e) override {
    log.push_back("iteration " + std::to_string(e.loop_id));
  }
  std::vector<std::string> log;
};

TEST(Hooks, MemoryBatchesKeepProgramOrderThroughHookList) {
  // Each iteration reads `i` in the loop condition, then creates two objects
  // and writes to them inside one statement: the interpreter must flush the
  // buffered accesses before each creation and iteration event, and a
  // HookList must hand both observers the whole stream.
  const std::string source =
      "for (var i = 0; i < 2; i++) {\n"
      "  var o = {};\n"
      "  o.f = {g: i};\n"
      "}\n";
  SequenceHooks alone;
  EngineRun run_alone(source, &alone);
  SequenceHooks first;
  SequenceHooks second;
  HookList both;
  both.add(&first);
  both.add(&second);
  EngineRun run_both(source, &both);
  EXPECT_EQ(first.log, alone.log);
  EXPECT_EQ(second.log, alone.log);

  std::set<std::string> created;
  int prop_writes = 0;
  for (const std::string& entry : alone.log) {
    if (entry.starts_with("created ")) created.insert(entry.substr(8));
    if (!entry.starts_with("prop-write ")) continue;
    ++prop_writes;
    const std::string obj_id = entry.substr(11, entry.find(' ', 11) - 11);
    EXPECT_TRUE(created.contains(obj_id)) << entry << " before its creation";
  }
  EXPECT_EQ(prop_writes, 4);
  // Accesses buffered earlier in a statement are delivered before the next
  // non-memory event: the condition's read of `i` before the iteration it
  // admits, and the read of `o` before the creation of `{g: i}`.
  for (std::size_t i = 1; i < alone.log.size(); ++i) {
    if (alone.log[i].starts_with("iteration ")) {
      EXPECT_TRUE(alone.log[i - 1].starts_with("var-read ")) << alone.log[i - 1];
    }
    if (alone.log[i - 1].starts_with("var-read ") && alone.log[i - 1].ends_with(" o")) {
      EXPECT_TRUE(alone.log[i].starts_with("created ")) << alone.log[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Shape / inline-cache behaviour: the caches must be invisible — polymorphic
// sites, prototype mutation and delete (dictionary mode) all stay correct.
// ---------------------------------------------------------------------------

TEST(Shapes, PolymorphicSiteReadsBothLayouts) {
  // Same access site sees two different shapes ({a,b} and {b,a}): the
  // monomorphic cache must miss-and-refill, never serve the wrong slot.
  EXPECT_DOUBLE_EQ(num("var p = {a: 1, b: 2};\n"
                       "var q = {b: 30, a: 40};\n"
                       "var s = 0;\n"
                       "var list = [p, q, p, q];\n"
                       "for (var i = 0; i < 4; i++) { s += list[i].a; }\n"
                       "var result = s;"),
                   1 + 40 + 1 + 40);
}

TEST(Shapes, DeleteDropsToDictionaryModeCorrectly) {
  EXPECT_EQ(str_result("var o = {a: 1, b: 2, c: 3};\n"
                       "var before = o.b;\n"
                       "delete o.b;\n"
                       "o.d = 4;\n"
                       "var keys = '';\n"
                       "for (var k in o) { keys += k; }\n"
                       "var result = before + ':' + keys + ':' + (o.b === undefined);"),
            "2:acd:true");
}

TEST(Shapes, CachedSiteSeesPropertyOverwrite) {
  EXPECT_DOUBLE_EQ(num("var o = {v: 1};\n"
                       "var s = 0;\n"
                       "for (var i = 0; i < 3; i++) { s += o.v; o.v = o.v + 1; }\n"
                       "var result = s;"),
                   1 + 2 + 3);
}

TEST(Shapes, PrototypeMethodAddedAfterCacheWarmup) {
  // Warm the site on own properties, then shadow via the prototype chain's
  // live updates — the holder-shape check must catch the change.
  EXPECT_DOUBLE_EQ(num("function C() { this.x = 1; }\n"
                       "C.prototype.get = function () { return 10; };\n"
                       "var o = new C();\n"
                       "var a = o.get();\n"          // proto hit, cache fills
                       "C.prototype.get = function () { return 20; };\n"
                       "var b = o.get();\n"          // same shape, new holder value
                       "o.get = function () { return 30; };\n"
                       "var c = o.get();\n"          // own property now shadows
                       "var result = a + b + c;"),
                   10 + 20 + 30);
}

TEST(Shapes, SameLiteralShapeSharedAcrossObjects) {
  // Many objects from one literal site: the site stays monomorphic, and all
  // reads stay per-object.
  EXPECT_DOUBLE_EQ(num("var total = 0;\n"
                       "for (var i = 0; i < 16; i++) {\n"
                       "  var o = {idx: i, sq: i * i};\n"
                       "  total += o.sq - o.idx;\n"
                       "}\n"
                       "var result = total;"),
                   [] {
                     double t = 0;
                     for (int i = 0; i < 16; ++i) t += i * i - i;
                     return t;
                   }());
}

TEST(Hooks, ArrayPushReportsElementWrite) {
  CountingHooks hooks;
  EngineRun run("var a = [];\na.push(7);\na.push(8);", &hooks);
  EXPECT_EQ(hooks.prop_writes["0"], 1);
  EXPECT_EQ(hooks.prop_writes["1"], 1);
}

}  // namespace
}  // namespace jsceres::interp
