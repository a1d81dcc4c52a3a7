#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "js/parser.h"
#include "support/clock.h"

namespace jsceres::interp {
namespace {

/// Run `source` and return the value of global `result`.
Value run_and_get(const std::string& source, const std::string& name = "result") {
  static std::vector<std::unique_ptr<js::Program>> keep_alive;
  keep_alive.push_back(std::make_unique<js::Program>(js::parse(source)));
  static std::vector<std::unique_ptr<VirtualClock>> clocks;
  clocks.push_back(std::make_unique<VirtualClock>());
  auto interp = std::make_shared<Interpreter>(*keep_alive.back(), *clocks.back());
  interp->run();
  return interp->global(name);
}

double run_number(const std::string& source) {
  const Value v = run_and_get(source);
  EXPECT_TRUE(v.is_number()) << "result is not a number";
  return v.as_number();
}

std::string run_string(const std::string& source) {
  const Value v = run_and_get(source);
  EXPECT_TRUE(v.is_string()) << "result is not a string";
  return v.as_string();
}

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(run_number("var result = 1 + 2 * 3 - 4 / 2;"), 5);
  EXPECT_DOUBLE_EQ(run_number("var result = 7 % 3;"), 1);
  EXPECT_DOUBLE_EQ(run_number("var result = (1 + 2) * 3;"), 9);
}

TEST(Interp, StringConcat) {
  EXPECT_EQ(run_string("var result = 'a' + 1 + true;"), "a1true");
  EXPECT_EQ(run_string("var result = 1 + 2 + 'x';"), "3x");
}

TEST(Interp, ComparisonAndEquality) {
  EXPECT_DOUBLE_EQ(run_number("var result = (1 < 2) + (2 <= 2) + ('b' > 'a');"), 3);
  EXPECT_DOUBLE_EQ(run_number("var result = (1 == '1') + (1 === '1') + (null == undefined);"), 2);
  EXPECT_DOUBLE_EQ(run_number("var result = (NaN === NaN) ? 1 : 0;"), 0);
}

TEST(Interp, BitwiseOps) {
  EXPECT_DOUBLE_EQ(run_number("var result = (5 & 3) + (5 | 3) + (5 ^ 3);"), 14);
  EXPECT_DOUBLE_EQ(run_number("var result = 1 << 4;"), 16);
  EXPECT_DOUBLE_EQ(run_number("var result = -8 >> 1;"), -4);
  EXPECT_DOUBLE_EQ(run_number("var result = -1 >>> 28;"), 15);
  EXPECT_DOUBLE_EQ(run_number("var result = ~5;"), -6);
}

TEST(Interp, LogicalShortCircuit) {
  EXPECT_DOUBLE_EQ(
      run_number("var calls = 0;\n"
                 "function f() { calls++; return true; }\n"
                 "var x = false && f();\n"
                 "var y = true || f();\n"
                 "var result = calls;"),
      0);
  EXPECT_EQ(run_string("var result = 'a' || 'b';"), "a");
  EXPECT_EQ(run_string("var result = '' || 'b';"), "b");
}

TEST(Interp, VarFunctionScoping) {
  // `var p` inside the loop shares one binding — the paper's Fig. 6 point.
  EXPECT_DOUBLE_EQ(
      run_number("function f() {\n"
                 "  var fns = [];\n"
                 "  for (var i = 0; i < 3; i++) { var p = i; fns.push(function () { return p; }); }\n"
                 "  return fns[0]() + fns[1]() + fns[2]();\n"
                 "}\n"
                 "var result = f();"),
      6);  // all three closures see p == 2
}

TEST(Interp, ClosuresCaptureEnvironment) {
  EXPECT_DOUBLE_EQ(
      run_number("function counter() {\n"
                 "  var n = 0;\n"
                 "  return function () { n++; return n; };\n"
                 "}\n"
                 "var c = counter();\n"
                 "c(); c();\n"
                 "var result = c();"),
      3);
}

// Environment pooling: thousands of calls cycle activations through the
// free list; recycled environments must not leak bindings into later calls,
// and environments still referenced by a live closure must not be recycled.
TEST(Interp, PooledEnvironmentsDoNotLeakAcrossCalls) {
  EXPECT_DOUBLE_EQ(
      run_number("function leaf(x) { var local = x * 2; return local; }\n"
                 "function mid(x) { var a = leaf(x); var b = leaf(x + 1); return a + b; }\n"
                 "var total = 0;\n"
                 "for (var i = 0; i < 2000; i++) { total += mid(i % 7); }\n"
                 "var result = total;"),
      // sum over i of (2*(i%7) + 2*((i%7)+1)); i%7 cycles 0..6 evenly plus
      // 2000%7=5 leftovers of 0..4: 285*(2*21+2*28) + (2*10+2*15).
      285 * (2 * 21 + 2 * 28) + (2 * 10 + 2 * 15));
}

TEST(Interp, ClosureKeepsEnvironmentOutOfPool) {
  // Each counter() call's activation is captured by the returned closure;
  // interleaved calls must keep distinct states even as sibling activations
  // recycle.
  EXPECT_DOUBLE_EQ(
      run_number("function counter() { var n = 0; return function () { n++; return n; }; }\n"
                 "var a = counter();\n"
                 "var b = counter();\n"
                 "function churn(k) { var t = 0; for (var i = 0; i < k; i++) { t += i; } return t; }\n"
                 "a(); churn(50); b(); a(); churn(50); b(); b();\n"
                 "var result = a() * 10 + b();  // a: 3rd call, b: 4th call"),
      34);
}

TEST(Interp, ClosureValueSurvivesInterpreterDestruction) {
  // The session heap frees the closure and its environment chain with the
  // interpreter; a Value still naming the closure must stay destructible
  // afterwards without touching the freed heap.
  Value survivor;
  {
    static js::Program program = js::parse(
        "function make() { var payload = 'alive'; return function () { return payload; }; }\n"
        "var keep = make();");
    VirtualClock clock;
    Interpreter interp(program, clock);
    interp.run();
    survivor = interp.global("keep");
    EXPECT_TRUE(survivor.is_object());
  }
  // Interpreter and heap are gone; dropping the Value reads nothing of
  // the object it named.
  survivor = Value();
  SUCCEED();
}

TEST(Interp, CapturedScopesAreNeverReused) {
  // A scope whose body holds no function goes back to the free list when it
  // exits and the next call or catch clause reuses it; a scope a closure
  // captured must not. Here each captured scope is followed by calls whose
  // scopes would take it over and overwrite its slots if it had been freed.
  EXPECT_EQ(run_string("function counter() {\n"
                       "  var n = 10; return function () { n = n + 1; return n; };\n"
                       "}\n"
                       "function noisy(a, b) { var t = a + b; return t; }\n"
                       "function caught(m) {\n"
                       "  try { throw m; } catch (e) { return function () { return e; }; }\n"
                       "}\n"
                       "function plain(m) { try { throw m; } catch (e) { return e; } }\n"
                       "var c = counter(); noisy(1, 2);\n"
                       "var k = caught('kept'); plain('clobbered'); noisy(3, 4);\n"
                       "var result = '' + c() + c() + k();"),
            "1112kept");
}

TEST(Interp, WhileAndDoWhile) {
  EXPECT_DOUBLE_EQ(run_number("var i = 0; while (i < 5) { i++; } var result = i;"), 5);
  EXPECT_DOUBLE_EQ(run_number("var i = 9; do { i++; } while (false); var result = i;"), 10);
}

TEST(Interp, BreakContinue) {
  EXPECT_DOUBLE_EQ(
      run_number("var s = 0;\n"
                 "for (var i = 0; i < 10; i++) {\n"
                 "  if (i === 3) { continue; }\n"
                 "  if (i === 6) { break; }\n"
                 "  s += i;\n"
                 "}\n"
                 "var result = s;"),
      0 + 1 + 2 + 4 + 5);
}

TEST(Interp, ForInOverObject) {
  EXPECT_EQ(run_string("var o = {a: 1, b: 2, c: 3};\n"
                       "var keys = '';\n"
                       "for (var k in o) { keys += k; }\n"
                       "var result = keys;"),
            "abc");
}

TEST(Interp, ForInOverArrayYieldsIndices) {
  EXPECT_EQ(run_string("var a = [10, 20, 30];\n"
                       "var keys = '';\n"
                       "for (var k in a) { keys += k; }\n"
                       "var result = keys;"),
            "012");
}

TEST(Interp, ObjectsAndPrototypes) {
  EXPECT_DOUBLE_EQ(
      run_number("function Point(x, y) { this.x = x; this.y = y; }\n"
                 "Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };\n"
                 "var p = new Point(3, 4);\n"
                 "var result = p.norm2();"),
      25);
}

TEST(Interp, InstanceOfAndIn) {
  EXPECT_DOUBLE_EQ(
      run_number("function A() {}\n"
                 "var a = new A();\n"
                 "var result = (a instanceof A ? 1 : 0) + ('x' in {x: 1} ? 1 : 0) + (0 in [7] ? 1 : 0);"),
      3);
}

TEST(Interp, DeleteProperty) {
  EXPECT_DOUBLE_EQ(run_number("var o = {x: 1};\n"
                              "delete o.x;\n"
                              "var result = ('x' in o) ? 1 : 0;"),
                   0);
}

TEST(Interp, TypeofOperator) {
  EXPECT_EQ(run_string("var result = typeof 1;"), "number");
  EXPECT_EQ(run_string("var result = typeof 'a';"), "string");
  EXPECT_EQ(run_string("var result = typeof undefined;"), "undefined");
  EXPECT_EQ(run_string("var result = typeof {};"), "object");
  EXPECT_EQ(run_string("var result = typeof function () {};"), "function");
  EXPECT_EQ(run_string("var result = typeof not_declared_anywhere;"), "undefined");
}

TEST(Interp, ArraysBasics) {
  EXPECT_DOUBLE_EQ(run_number("var a = [1, 2, 3]; a.push(4); var result = a.length;"), 4);
  EXPECT_DOUBLE_EQ(run_number("var a = [1, 2, 3]; a[10] = 1; var result = a.length;"), 11);
  EXPECT_EQ(run_string("var result = [1, 2, 3].join('-');"), "1-2-3");
  EXPECT_DOUBLE_EQ(run_number("var a = []; a.length = 5; var result = a.length;"), 5);
}

TEST(Interp, ArrayFunctionalOperators) {
  EXPECT_DOUBLE_EQ(
      run_number("var result = [1, 2, 3].map(function (x) { return x * 2; })\n"
                 "  .reduce(function (a, b) { return a + b; }, 0);"),
      12);
  EXPECT_DOUBLE_EQ(
      run_number("var result = [1, 2, 3, 4].filter(function (x) { return x % 2 === 0; }).length;"),
      2);
  EXPECT_DOUBLE_EQ(
      run_number("var result = ([1, 2].every(function (x) { return x > 0; }) ? 1 : 0) +\n"
                 "  ([1, 2].some(function (x) { return x > 1; }) ? 1 : 0);"),
      2);
}

TEST(Interp, ForEachGetsFreshScope) {
  // The forEach rewrite of the paper's Fig. 6: each callback invocation has
  // a private `p`.
  EXPECT_DOUBLE_EQ(
      run_number("var fns = [];\n"
                 "[0, 1, 2].forEach(function (i) { var p = i; fns.push(function () { return p; }); });\n"
                 "var result = fns[0]() + fns[1]() + fns[2]();"),
      3);  // 0 + 1 + 2, unlike the var-scoped loop version
}

TEST(Interp, ArraySortWithComparator) {
  EXPECT_EQ(run_string("var a = [3, 1, 2];\n"
                       "a.sort(function (x, y) { return x - y; });\n"
                       "var result = a.join('');"),
            "123");
}

TEST(Interp, ArraySliceSpliceConcat) {
  EXPECT_EQ(run_string("var result = [1, 2, 3, 4].slice(1, 3).join('');"), "23");
  EXPECT_EQ(run_string("var a = [1, 2, 3, 4]; a.splice(1, 2); var result = a.join('');"), "14");
  EXPECT_EQ(run_string("var result = [1].concat([2, 3], 4).join('');"), "1234");
}

TEST(Interp, StringMethods) {
  EXPECT_DOUBLE_EQ(run_number("var result = 'hello'.length;"), 5);
  EXPECT_EQ(run_string("var result = 'hello'.charAt(1);"), "e");
  EXPECT_DOUBLE_EQ(run_number("var result = 'abc'.charCodeAt(0);"), 97);
  EXPECT_EQ(run_string("var result = 'a,b,c'.split(',').join('|');"), "a|b|c");
  EXPECT_EQ(run_string("var result = 'Hello'.toUpperCase();"), "HELLO");
  EXPECT_EQ(run_string("var result = 'hello'.substring(1, 3);"), "el");
  EXPECT_EQ(run_string("var result = '  x '.trim();"), "x");
  EXPECT_EQ(run_string("var result = 'aXbXc'.replace('X', '-');"), "a-bXc");
  EXPECT_EQ(run_string("var result = String.fromCharCode(104, 105);"), "hi");
}

TEST(Interp, MathBuiltins) {
  EXPECT_DOUBLE_EQ(run_number("var result = Math.max(1, 7, 3) + Math.min(2, -1);"), 6);
  EXPECT_DOUBLE_EQ(run_number("var result = Math.sqrt(16);"), 4);
  EXPECT_DOUBLE_EQ(run_number("var result = Math.floor(2.7) + Math.ceil(2.1) + Math.round(2.5);"), 8);
  EXPECT_DOUBLE_EQ(run_number("var result = Math.abs(-3);"), 3);
  EXPECT_DOUBLE_EQ(run_number("var result = Math.pow(2, 10);"), 1024);
}

TEST(Interp, MathRandomIsSeededAndDeterministic) {
  const double a = run_number("var result = Math.random();");
  const double b = run_number("var result = Math.random();");
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
}

TEST(Interp, GlobalFunctions) {
  EXPECT_DOUBLE_EQ(run_number("var result = parseInt('42');"), 42);
  EXPECT_DOUBLE_EQ(run_number("var result = parseFloat('2.5px');"), 2.5);
  EXPECT_DOUBLE_EQ(run_number("var result = isNaN('zz') ? 1 : 0;"), 1);
  EXPECT_DOUBLE_EQ(run_number("var result = Number('3') + Number(true);"), 4);
}

TEST(Interp, ObjectKeys) {
  EXPECT_EQ(run_string("var result = Object.keys({b: 1, a: 2}).join('');"), "ba");
}

TEST(Interp, FunctionCallApply) {
  EXPECT_DOUBLE_EQ(
      run_number("function add(a, b) { return this.base + a + b; }\n"
                 "var result = add.call({base: 10}, 1, 2) + add.apply({base: 100}, [1, 2]);"),
      13 + 103);
}

TEST(Interp, TryCatchThrow) {
  EXPECT_EQ(run_string("var result = '';\n"
                       "try { throw {name: 'E', message: 'boom'}; }\n"
                       "catch (e) { result = e.message; }"),
            "boom");
}

TEST(Interp, FinallyRuns) {
  EXPECT_DOUBLE_EQ(run_number("var result = 0;\n"
                              "try { result = 1; } finally { result += 10; }"),
                   11);
}

TEST(Interp, UncaughtThrowBecomesEngineError) {
  VirtualClock clock;
  Interpreter interp(js::parse("throw {name: 'E', message: 'x'};"), clock);
  EXPECT_THROW(interp.run(), EngineError);
}

TEST(Interp, TypeErrorOnCallingNonFunction) {
  VirtualClock clock;
  Interpreter interp(js::parse("var x = 1; x();"), clock);
  EXPECT_THROW(interp.run(), EngineError);
}

TEST(Interp, ReferenceErrorOnUnknownRead) {
  VirtualClock clock;
  Interpreter interp(js::parse("var y = nope + 1;"), clock);
  EXPECT_THROW(interp.run(), EngineError);
}

TEST(Interp, AssignToUndeclaredCreatesGlobal) {
  EXPECT_DOUBLE_EQ(run_number("function f() { leaked = 7; }\n"
                              "f();\n"
                              "var result = leaked;"),
                   7);
}

TEST(Interp, RecursionDepthLimited) {
  VirtualClock clock;
  Interpreter interp(js::parse("function f() { return f(); } f();"), clock);
  EXPECT_THROW(interp.run(), EngineError);
}

TEST(Interp, TickBudgetStopsRunawayLoop) {
  VirtualClock clock;
  Interpreter::Config config;
  config.max_ticks = 10000;
  Interpreter interp(js::parse("while (true) { }"), clock, nullptr, config);
  EXPECT_THROW(interp.run(), EngineError);
}

TEST(Interp, ClockAdvancesWithWork) {
  VirtualClock clock;
  Interpreter interp(js::parse("var s = 0; for (var i = 0; i < 1000; i++) { s += i; }"), clock);
  interp.run();
  EXPECT_GT(clock.cpu_ns(), 0);
  EXPECT_EQ(clock.cpu_ns(), clock.wall_ns());
}

TEST(Interp, ConsoleLogCapture) {
  VirtualClock clock;
  Interpreter interp(js::parse("console.log('a', 1, [1, 2]);"), clock);
  interp.run();
  EXPECT_EQ(interp.console_output(), "a 1 1,2\n");
}

TEST(Interp, CompoundAssignments) {
  EXPECT_DOUBLE_EQ(run_number("var x = 10; x += 5; x -= 3; x *= 2; x /= 4; var result = x;"), 6);
  EXPECT_DOUBLE_EQ(run_number("var x = 7; x %= 4; var result = x;"), 3);
  EXPECT_DOUBLE_EQ(run_number("var x = 5; x &= 3; x |= 8; x ^= 1; var result = x;"), 8);
  EXPECT_DOUBLE_EQ(run_number("var o = {n: 1}; o.n += 2; var result = o.n;"), 3);
}

TEST(Interp, UpdateExpressions) {
  EXPECT_DOUBLE_EQ(run_number("var i = 5; var a = i++; var result = a * 10 + i;"), 56);
  EXPECT_DOUBLE_EQ(run_number("var i = 5; var a = ++i; var result = a * 10 + i;"), 66);
  EXPECT_DOUBLE_EQ(run_number("var o = {n: 1}; o.n++; ++o.n; var result = o.n;"), 3);
  EXPECT_DOUBLE_EQ(run_number("var a = [1]; a[0]--; var result = a[0];"), 0);
}

TEST(Interp, ConditionalExpression) {
  EXPECT_EQ(run_string("var result = 1 < 2 ? 'y' : 'n';"), "y");
}

TEST(Interp, NumberFormatting) {
  EXPECT_EQ(run_string("var result = '' + 42;"), "42");
  EXPECT_EQ(run_string("var result = '' + 2.5;"), "2.5");
  EXPECT_EQ(run_string("var result = '' + (1 / 0);"), "Infinity");
  EXPECT_EQ(run_string("var result = (3.14159).toFixed(2);"), "3.14");
}

TEST(Interp, JsonStringify) {
  EXPECT_EQ(run_string("var result = JSON.stringify({a: [1, 'x'], b: true});"),
            R"({"a":[1,"x"],"b":true})");
}

TEST(Interp, HoistedFunctionsCallableBeforeDefinition) {
  EXPECT_DOUBLE_EQ(run_number("var result = f();\nfunction f() { return 9; }"), 9);
}

TEST(Interp, SequenceExpression) {
  EXPECT_DOUBLE_EQ(run_number("var i, j; for (i = 0, j = 10; i < 3; i++, j--) { } var result = j;"), 7);
}

TEST(Interp, PerformanceNowReadsVirtualClock) {
  EXPECT_GT(run_number("for (var i = 0; i < 100; i++) { }\nvar result = performance.now();"), 0);
}

// ---------------------------------------------------------------------------
// String interning semantics: a runtime-concatenated string must behave
// exactly like the interned literal spelling the same text (the atom table
// is an engine optimization, not an observable identity).
// ---------------------------------------------------------------------------

TEST(Interning, ConcatenatedStringEqualsLiteral) {
  EXPECT_DOUBLE_EQ(run_number("var lit = 'hello';\n"
                              "var dyn = 'hel' + 'lo';\n"
                              "var result = (lit == dyn ? 1 : 0) + (lit === dyn ? 2 : 0);"),
                   3);
}

TEST(Interning, TypeofSameForInternedAndComputedStrings) {
  EXPECT_EQ(run_string("var result = typeof ('a' + 'b');"), "string");
  EXPECT_EQ(run_string("var s = 'x'; var result = typeof s.charAt(0);"), "string");
}

TEST(Interning, ComputedKeyReachesLiteralKeyProperty) {
  // The property was stored under the interned atom "ab"; the computed key
  // is a runtime concatenation that must hash to the same binding.
  EXPECT_DOUBLE_EQ(run_number("var o = {ab: 41};\n"
                              "o['a' + 'b'] = o['a' + 'b'] + 1;\n"
                              "var result = o.ab;"),
                   42);
}

TEST(Interning, LiteralKeyReachesComputedKeyProperty) {
  // Reverse direction: stored under a computed (runtime) string, read via
  // the non-computed inline-cached path.
  EXPECT_DOUBLE_EQ(run_number("var o = {};\n"
                              "o['k' + 'ey'] = 7;\n"
                              "var result = o.key;"),
                   7);
}

TEST(Interning, NumericLiteralKeysKeepTheirSpelling) {
  EXPECT_DOUBLE_EQ(run_number("var o = {1: 'x', 42: 7};\n"
                              "var result = o[42] + (o[1] === 'x' ? 1 : 0) + (o['1'] === 'x' ? 2 : 0);"),
                   10);
  EXPECT_EQ(run_string("var o = {7: 'a'};\nvar ks = '';\nfor (var k in o) { ks += k; }\nvar result = ks;"),
            "7");
}

TEST(Interning, NeverInternedKeyReadsUndefined) {
  EXPECT_EQ(run_string("var o = {a: 1};\n"
                       "var result = typeof o['zz' + 'q9'];"),
            "undefined");
}

TEST(Interning, StringComparisonIsTextualNotIdentity) {
  EXPECT_DOUBLE_EQ(run_number("var a = 'xy';\n"
                              "var b = 'x' + 'y';\n"
                              "var c = 'xz';\n"
                              "var result = (a === b ? 1 : 0) + (a < c ? 10 : 0) + (b < c ? 100 : 0);"),
                   111);
}

// ---------------------------------------------------------------------------
// Slot-resolved variable access: closure and shadowing corners that stress
// the static (hops, slot) annotation against the runtime environment chain.
// ---------------------------------------------------------------------------

TEST(SlotResolution, ParamShadowsOuterVar) {
  EXPECT_DOUBLE_EQ(run_number("var x = 1;\n"
                              "function f(x) { return x * 10; }\n"
                              "var result = f(2) + x;"),
                   21);
}

TEST(SlotResolution, InnerVarShadowsOuterAcrossTwoLevels) {
  EXPECT_DOUBLE_EQ(
      run_number("var v = 1;\n"
                 "function outer() {\n"
                 "  var v = 2;\n"
                 "  function mid() {\n"
                 "    function inner() { return v; }\n"  // two hops to outer's v
                 "    return inner();\n"
                 "  }\n"
                 "  return mid();\n"
                 "}\n"
                 "var result = outer() * 10 + v;"),
      21);
}

TEST(SlotResolution, SiblingClosuresShareOneBinding) {
  EXPECT_DOUBLE_EQ(
      run_number("function make() {\n"
                 "  var n = 0;\n"
                 "  return [function () { n += 1; return n; },\n"
                 "          function () { n += 10; return n; }];\n"
                 "}\n"
                 "var fns = make();\n"
                 "fns[0]();\n"
                 "fns[1]();\n"
                 "var result = fns[0]();"),
      12);
}

TEST(SlotResolution, SeparateCallsGetSeparateSlots) {
  EXPECT_DOUBLE_EQ(
      run_number("function make(start) {\n"
                 "  return function () { start += 1; return start; };\n"
                 "}\n"
                 "var a = make(0);\n"
                 "var b = make(100);\n"
                 "a(); b();\n"
                 "var result = a() + b();"),
      2 + 102);
}

TEST(SlotResolution, DuplicateParamAndVarShareSlot) {
  // `var x` re-declares the parameter: one binding, initializer overwrites.
  EXPECT_DOUBLE_EQ(run_number("function f(x) { var x = 5; return x; }\n"
                              "var result = f(3);"),
                   5);
}

TEST(SlotResolution, CatchScopeShadowsAndUnwinds) {
  EXPECT_DOUBLE_EQ(
      run_number("function f() {\n"
                 "  var e = 1;\n"
                 "  var seen = 0;\n"
                 "  try { throw {message: 9}; } catch (e) { seen = e.message; }\n"
                 "  return e * 100 + seen;\n"
                 "}\n"
                 "var result = f();"),
      109);
}

TEST(SlotResolution, ClosureCreatedInsideCatchSeesCatchParam) {
  EXPECT_DOUBLE_EQ(
      run_number("var f;\n"
                 "try { throw {v: 7}; } catch (err) { f = function () { return err.v; }; }\n"
                 "var result = f();"),
      7);
}

TEST(SlotResolution, HoistedFunctionInsideCatchIgnoresCatchScope) {
  // Function *declarations* are hoisted to function scope and close over the
  // function-entry environment, not the catch environment.
  EXPECT_DOUBLE_EQ(
      run_number("function f() {\n"
                 "  var g;\n"
                 "  var x = 3;\n"
                 "  try { throw {}; } catch (x) { g = h; }\n"
                 "  function h() { return x; }\n"
                 "  return g();\n"
                 "}\n"
                 "var result = f();"),
      3);
}

TEST(SlotResolution, GlobalCreatedAfterFirstMissIsFound) {
  // The per-site global cache must not pin a "not defined" verdict: the
  // binding appears between two executions of the same read site.
  EXPECT_DOUBLE_EQ(run_number("function get() { return typeof later === 'undefined' ? 0 : later; }\n"
                              "var first = get();\n"
                              "later = 42;\n"
                              "var result = first + get();"),
                   42);
}

TEST(SlotResolution, RecursionStacksIndependentSlots) {
  EXPECT_DOUBLE_EQ(
      run_number("function fact(n) {\n"
                 "  var local = n * 10;\n"
                 "  if (n <= 1) { return 1; }\n"
                 "  var r = n * fact(n - 1);\n"
                 "  return r + (local - n * 10);\n"  // local must be per-activation
                 "}\n"
                 "var result = fact(5);"),
      120);
}

}  // namespace
}  // namespace jsceres::interp
