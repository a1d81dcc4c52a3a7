// Engine-sandbox tests: hard resource limits (EngineLimits threaded through
// lexer -> parser -> interpreter), recoverable failure paths (the engine
// object stays clean and reusable after every trip), and allocation-failure
// injection across the ledger's charge points.
//
// This binary replaces the global allocator with a counting shim (bottom of
// the file, mirroring tests/test_interp_hotpath.cpp) so the no-leak test can
// assert that repeated construct/trip/destroy cycles return the heap to a
// steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "interp/interpreter.h"
#include "js/lexer.h"
#include "js/parser.h"
#include "support/clock.h"
#include "support/limits.h"

namespace {
std::atomic<std::int64_t> g_outstanding_allocs{0};
}

namespace jsceres {
namespace {

// ---------------------------------------------------------------------------
// Front-end limits (lexer + parser)
// ---------------------------------------------------------------------------

TEST(ParserLimits, DeepNestingTripsRecoverableParseError) {
  const std::string source =
      std::string(2000, '(') + "1" + std::string(2000, ')') + ";";
  try {
    js::parse(source);
    FAIL() << "expected ParseError";
  } catch (const js::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos);
    EXPECT_GE(e.line(), 1);
  }
  // The default cap is far below native stack exhaustion, so reaching the
  // catch above *is* the recovery proof; a sane program still parses after.
  EXPECT_NO_THROW(js::parse("var x = (1 + 2) * 3;"));
}

TEST(ParserLimits, CustomDepthCapAppliesToStatementsAndExpressions) {
  EngineLimits limits;
  limits.max_parse_depth = 16;
  std::string stmts;
  for (int i = 0; i < 64; ++i) stmts += "if (1) { ";
  stmts += "x = 1;";
  for (int i = 0; i < 64; ++i) stmts += " }";
  EXPECT_THROW(js::parse(stmts, "<t>", limits), js::ParseError);
  const std::string exprs = std::string(64, '(') + "1" + std::string(64, ')') + ";";
  EXPECT_THROW(js::parse(exprs, "<t>", limits), js::ParseError);
  EXPECT_NO_THROW(js::parse("var y = ((1));", "<t>", limits));
}

TEST(ParserLimits, UnaryChainsAreDepthCounted) {
  // `new new new f()` recurses parse_new -> parse_primary without passing
  // through parse_statement; `!!!x` recurses through parse_unary.
  EngineLimits limits;
  limits.max_parse_depth = 32;
  const std::string news =
      "var a = " + std::string(64, '!') + "1;";
  EXPECT_THROW(js::parse(news, "<t>", limits), js::ParseError);
}

TEST(LexerLimits, TokenCountCap) {
  EngineLimits limits;
  limits.max_tokens = 10;
  js::AtomSpace atoms;
  try {
    js::lex("var a = 1; var b = 2; var c = 3;", atoms, limits);
    FAIL() << "expected LexError";
  } catch (const js::LexError& e) {
    EXPECT_NE(std::string(e.what()).find("token limit"), std::string::npos);
  }
  EXPECT_NO_THROW(js::lex("var a = 1;", atoms, limits));
}

TEST(LexerLimits, SourceSizeCap) {
  EngineLimits limits;
  limits.max_source_bytes = 64;
  js::AtomSpace atoms;
  EXPECT_THROW(js::lex(std::string(65, ' '), atoms, limits), js::LexError);
  EXPECT_NO_THROW(js::lex(std::string(64, ' '), atoms, limits));
}

TEST(LexerLimits, MalformedInputStaysGraceful) {
  js::AtomSpace atoms;
  EXPECT_THROW(js::lex("var s = \"unterminated", atoms), js::LexError);
  EXPECT_THROW(js::lex("/* never closed", atoms), js::LexError);
  EXPECT_THROW(js::lex("var s = \"line\nbreak\";", atoms), js::LexError);
  EXPECT_THROW(js::lex("var a = 1 @ 2;", atoms), js::LexError);
}

// ---------------------------------------------------------------------------
// Runtime limits (the hostile-input suite, test-sized)
// ---------------------------------------------------------------------------

interp::InterpreterConfig limited(std::size_t memory_bytes,
                                  std::int64_t max_ticks = -1,
                                  std::size_t max_array = 0,
                                  std::int64_t max_wall_ms = 0) {
  interp::InterpreterConfig config;
  config.max_ticks = max_ticks;
  config.limits.max_memory_bytes = memory_bytes;
  config.limits.max_array_length = max_array;
  config.limits.max_wall_ms = max_wall_ms;
  return config;
}

TEST(RuntimeLimits, UnboundedAllocationLoopTripsMemoryCeiling) {
  const js::Program program =
      js::parse("var a = []; while (true) { a.push(a.length); }");
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr, limited(1u << 20));
  try {
    interp.run();
    FAIL() << "expected EngineError";
  } catch (const interp::EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("memory limit"), std::string::npos);
  }
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
  // The ledger never accounted past the ceiling.
  EXPECT_LE(interp.ledger().peak(), 1u << 20);
}

TEST(RuntimeLimits, RunawayLoopTripsTickBudget) {
  VirtualClock clock;
  interp::Interpreter interp(js::parse("while (true) { }"), clock, nullptr, limited(0, 100000));
  EXPECT_THROW(interp.run(), interp::EngineError);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(RuntimeLimits, RunawayLoopTripsWallClockWatchdog) {
  VirtualClock clock;
  interp::Interpreter interp(js::parse("var x = 0; while (true) { x = x + 1; }"), clock, nullptr,
                             limited(0, -1, 0, /*max_wall_ms=*/100));
  try {
    interp.run();
    FAIL() << "expected EngineError";
  } catch (const interp::EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("wall-clock"), std::string::npos);
  }
}

TEST(RuntimeLimits, TenThousandPropertyObjectTripsCeiling) {
  const js::Program program = js::parse(
      "var o = {}; for (var i = 0; i < 10000; i++) { o[\"k\" + i] = i; }");
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr, limited(256u << 10));
  EXPECT_THROW(interp.run(), interp::EngineError);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(RuntimeLimits, PathologicalArrayGrowthTripsLengthCap) {
  VirtualClock clock;
  interp::Interpreter interp(js::parse("var a = []; a[50000000] = 1;"), clock, nullptr,
                             limited(0, -1, /*max_array=*/1000000));
  try {
    interp.run();
    FAIL() << "expected EngineError";
  } catch (const interp::EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("array length"), std::string::npos);
  }
  // The cap check precedes the charge: nothing close to 50M slots was
  // accounted, let alone allocated.
  EXPECT_LT(interp.ledger().peak(), 1u << 20);
}

TEST(RuntimeLimits, ArrayBuiltinsRespectTheCeiling) {
  // Array(n), push, concat and split all pre-charge through the same
  // grow/charge funnel as direct element stores.
  const js::Program ctor = js::parse("var a = new Array(10000000);");
  VirtualClock clock;
  interp::Interpreter interp(ctor, clock, nullptr, limited(1u << 20));
  EXPECT_THROW(interp.run(), interp::EngineError);

  const js::Program concat = js::parse(
      "var a = [1, 2, 3]; var b = a; "
      "for (var i = 0; i < 30; i++) { b = b.concat(b); }");
  VirtualClock clock2;
  interp::Interpreter interp2(concat, clock2, nullptr, limited(1u << 20));
  EXPECT_THROW(interp2.run(), interp::EngineError);
}

TEST(RuntimeLimits, StringDoublingTripsCeiling) {
  const js::Program program = js::parse(
      "var s = \"x\"; while (true) { s = s + s; }");
  VirtualClock clock;
  interp::Interpreter interp(program, clock, nullptr, limited(4u << 20));
  EXPECT_THROW(interp.run(), interp::EngineError);
}

// ---------------------------------------------------------------------------
// Recovery: the engine object is reusable after every kind of trip
// ---------------------------------------------------------------------------

TEST(Recovery, InterpreterIsReusableAfterTickBudgetTrip) {
  // Regression: the budget is armed per run window. The old cumulative
  // comparison made a tripped interpreter re-throw before executing
  // anything, so the second run() would not reach the console.log below.
  const js::Program program =
      js::parse("console.log(\"start\"); while (true) { }");
  VirtualClock clock;
  interp::InterpreterConfig config;
  config.max_ticks = 50000;
  interp::Interpreter interp(program, clock, nullptr, config);
  EXPECT_THROW(interp.run(), interp::EngineError);
  EXPECT_EQ(interp.console_output(), "start\n");
  EXPECT_THROW(interp.run(), interp::EngineError);
  EXPECT_EQ(interp.console_output(), "start\nstart\n")
      << "second run must get a fresh tick budget";
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(Recovery, InterpreterIsReusableAfterCallDepthTrip) {
  VirtualClock clock;
  interp::Interpreter interp(js::parse("function r(n) { return r(n + 1); } r(0);"), clock);
  for (int round = 0; round < 2; ++round) {
    try {
      interp.run();
      FAIL() << "expected EngineError (uncaught RangeError)";
    } catch (const interp::EngineError& e) {
      EXPECT_NE(std::string(e.what()).find("RangeError"), std::string::npos);
    }
    EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u)
        << "deep unwind must pop every argument frame (round " << round << ")";
  }
}

TEST(Recovery, CallEntryPointRecoversToo) {
  VirtualClock clock;
  interp::InterpreterConfig config;
  config.max_ticks = 50000;
  interp::Interpreter interp(js::parse("function spin() { while (true) { } } "
                                       "function ok() { return 7; }"), clock, nullptr, config);
  interp.run();
  const interp::Value spin = interp.global("spin");
  const interp::Value ok = interp.global("ok");
  EXPECT_THROW(interp.call(spin, interp::Value(), {}), interp::EngineError);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
  const interp::Value seven = interp.call(ok, interp::Value(), {});
  EXPECT_EQ(seven.as_number(), 7.0);
}

TEST(Recovery, MemoryTripThenFreshInterpreterOnSharedShapes) {
  // Shape transitions charge before mutating, so a tripped transition must
  // leave the process-wide shape tree consistent for the next engine.
  const char* source =
      "var xs = []; "
      "for (var i = 0; i < 2000; i++) { "
      "  var o = {}; o.a = i; o.b = i; o.c = i; o.d = i; xs.push(o); "
      "}";
  const js::Program program = js::parse(source);
  {
    VirtualClock clock;
    interp::Interpreter interp(program, clock, nullptr, limited(64u << 10));
    EXPECT_THROW(interp.run(), interp::EngineError);
  }
  {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);  // unlimited
    EXPECT_NO_THROW(interp.run());
  }
}

// ---------------------------------------------------------------------------
// Allocation-failure injection
// ---------------------------------------------------------------------------

// Sweeping the failure point across the first charges hits, in order, the
// charge sites of the program below: array literal, activation allocations and
// ArgStack growth (function calls), shape transitions and flat-table builds
// (property adds), element growth (pushes), and dictionary conversion.
class InjectionSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(InjectionSweep, TripIsRecoverableAndLeakFree) {
  const char* source =
      "function mk(i) { var o = {}; o.a = i; o.b = i + 1; o.c = i + 2; "
      "  return o; } "
      "var xs = []; "
      "for (var i = 0; i < 40; i++) { xs.push(mk(i)); xs[i].d = i * 2; } "
      "var o2 = {}; "
      "for (var j = 0; j < 40; j++) { o2[\"k\" + j] = j; } "
      "var s = \"\"; "
      "for (var k = 0; k < 12; k++) { s = s + \"abcdefghabcdefgh\"; }";
  interp::InterpreterConfig config;
  config.limits.fail_after_n_allocations = GetParam();
  VirtualClock clock;
  interp::Interpreter interp(js::parse(source), clock, nullptr, config);
  bool tripped = false;
  try {
    interp.run();
  } catch (const interp::EngineError& e) {
    tripped = true;
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
  if (tripped) {
    // The injection counter keeps counting, so the re-run trips again —
    // but through the same recoverable path, never a crash.
    EXPECT_THROW(interp.run(), interp::EngineError);
    EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FailurePoints, InjectionSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233, 1000000));

TEST(Injection, ShapeTreeStaysConsistentAfterInjectedTransitionFailure) {
  // Trip precisely inside shape machinery by making transitions the first
  // charges of the run, then prove a later engine can take the same
  // transitions successfully (the empty map slot is simply retried).
  const char* source = "var o = {}; o.q1 = 1; o.q2 = 2; o.q3 = 3; o.q4 = 4;";
  const js::Program program = js::parse(source);
  for (std::int64_t n = 0; n < 12; ++n) {
    VirtualClock clock;
    interp::InterpreterConfig config;
    config.limits.fail_after_n_allocations = n;
    interp::Interpreter interp(program, clock, nullptr, config);
    try {
      interp.run();
    } catch (const interp::EngineError&) {
    }
  }
  VirtualClock clock;
  interp::Interpreter interp(program, clock);
  EXPECT_NO_THROW(interp.run());
}

TEST(Injection, RepeatedTripCyclesDoNotLeak) {
  const char* source =
      "function mk(i) { var o = {}; o.a = i; o.b = i; return o; } "
      "var xs = []; "
      "for (var i = 0; i < 20; i++) { xs.push(mk(i)); }";
  const js::Program program = js::parse(source);
  // Warm-up: intern atoms, build the program's shapes, fault in allocator
  // pools, and let the hot shapes flatten — a shape materializes its flat
  // table once it has served kHotFlattenLookups chain walks, counted over
  // every interpreter of the program, so the tree is only at steady state
  // after that many cycles.
  for (int i = 0; i < int(interp::Shape::kHotFlattenLookups) + 3; ++i) {
    VirtualClock clock;
    interp::InterpreterConfig config;
    config.limits.fail_after_n_allocations = 7;
    interp::Interpreter interp(program, clock, nullptr, config);
    try {
      interp.run();
    } catch (const interp::EngineError&) {
    }
  }
  const std::int64_t baseline =
      g_outstanding_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    VirtualClock clock;
    interp::InterpreterConfig config;
    config.limits.fail_after_n_allocations = 7;
    interp::Interpreter interp(program, clock, nullptr, config);
    try {
      interp.run();
    } catch (const interp::EngineError&) {
    }
  }
  const std::int64_t after =
      g_outstanding_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, baseline)
      << "construct/trip/destroy cycles must return the heap to steady state";
}

TEST(Ledger, ChargesAndReleasesBalanceObservably) {
  AllocationLedger ledger;
  ledger.charge(100);
  ledger.charge(50);
  EXPECT_EQ(ledger.in_use(), 150u);
  EXPECT_EQ(ledger.peak(), 150u);
  ledger.release(50);
  EXPECT_EQ(ledger.in_use(), 100u);
  EXPECT_EQ(ledger.peak(), 150u);
  ledger.release(1000);  // over-release clamps, never underflows
  EXPECT_EQ(ledger.in_use(), 0u);
  EXPECT_EQ(ledger.charges(), 2);
}

TEST(Ledger, ScopeInstallsAndRestoresThreadLocal) {
  EXPECT_EQ(AllocationLedger::current(), nullptr);
  AllocationLedger outer;
  {
    AllocationLedger::Scope outer_scope(&outer);
    EXPECT_EQ(AllocationLedger::current(), &outer);
    AllocationLedger inner;
    {
      AllocationLedger::Scope inner_scope(&inner);
      EXPECT_EQ(AllocationLedger::current(), &inner);
      AllocationLedger::charge_current(64);
      EXPECT_EQ(inner.in_use(), 64u);
      EXPECT_EQ(outer.in_use(), 0u);
    }
    EXPECT_EQ(AllocationLedger::current(), &outer);
  }
  EXPECT_EQ(AllocationLedger::current(), nullptr);
  AllocationLedger::charge_current(64);  // no scope: a no-op, not a crash
}

}  // namespace
}  // namespace jsceres

// ---------------------------------------------------------------------------
// Counting allocator shim (whole-binary): pass-through malloc tracking the
// number of outstanding allocations, so the no-leak test can assert that
// trip cycles return to a steady state. Mirrors tests/test_interp_hotpath.cpp.
// ---------------------------------------------------------------------------

namespace {
void* counted_alloc(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_outstanding_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_outstanding_allocs.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
  }
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) g_outstanding_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) g_outstanding_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
