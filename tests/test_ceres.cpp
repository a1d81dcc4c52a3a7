#include <gtest/gtest.h>

#include <filesystem>
#include <optional>

#include "ceres/char_stack.h"
#include "ceres/dependence_analyzer.h"
#include "ceres/lightweight_profiler.h"
#include "ceres/loop_profiler.h"
#include "ceres/sampling_profiler.h"
#include "interp/interpreter.h"
#include "js/parser.h"

namespace jsceres::ceres {
namespace {

using interp::Interpreter;

// ---------------------------------------------------------------------------
// Characterization algebra
// ---------------------------------------------------------------------------

TEST(CharStack, CreationSameIterationIsPrivate) {
  const Stamp stamp = {{1, 0, 3}};
  const Stamp current = {{1, 0, 3}};
  const auto chr = characterize_creation(stamp, current);
  EXPECT_FALSE(chr.problematic());
}

TEST(CharStack, CreationEarlierIterationIsIterationDep) {
  const Stamp stamp = {{1, 0, 2}};
  const Stamp current = {{1, 0, 5}};
  const auto chr = characterize_creation(stamp, current);
  ASSERT_EQ(chr.levels.size(), 1u);
  EXPECT_FALSE(chr.levels[0].instance_dep);
  EXPECT_TRUE(chr.levels[0].iteration_dep);
}

TEST(CharStack, CreationBeforeLoopSharesIterationsNotInstances) {
  // The paper's `var p` case: env created under [while#k iter m], accessed
  // under [while#k iter m, for#j iter n].
  const Stamp stamp = {{1, 4, 2}};
  const Stamp current = {{1, 4, 2}, {2, 9, 5}};
  const auto chr = characterize_creation(stamp, current);
  ASSERT_EQ(chr.levels.size(), 2u);
  EXPECT_FALSE(chr.levels[0].instance_dep);
  EXPECT_FALSE(chr.levels[0].iteration_dep);  // while: ok ok
  EXPECT_FALSE(chr.levels[1].instance_dep);
  EXPECT_TRUE(chr.levels[1].iteration_dep);  // for: ok dependence
}

TEST(CharStack, GlobalDataIsFullySharedPastFirstDivergence) {
  // Created outside all loops, accessed under two nested loops: the outer
  // level reads "ok dependence" and everything deeper is fully shared.
  const Stamp stamp = {};
  const Stamp current = {{1, 0, 2}, {2, 5, 1}};
  const auto chr = characterize_creation(stamp, current);
  EXPECT_FALSE(chr.levels[0].instance_dep);
  EXPECT_TRUE(chr.levels[0].iteration_dep);
  EXPECT_TRUE(chr.levels[1].instance_dep);
  EXPECT_TRUE(chr.levels[1].iteration_dep);
}

TEST(CharStack, DifferentInstanceIsInstanceDep) {
  const Stamp stamp = {{1, 3, 1}};
  const Stamp current = {{1, 4, 1}};
  const auto chr = characterize_creation(stamp, current);
  EXPECT_TRUE(chr.levels[0].instance_dep);
  EXPECT_TRUE(chr.levels[0].iteration_dep);
}

TEST(CharStack, FlowAcrossIterations) {
  const Stamp write = {{1, 0, 4}};
  const Stamp read = {{1, 0, 5}};
  const auto chr = characterize_flow(write, read);
  EXPECT_FALSE(chr.levels[0].instance_dep);
  EXPECT_TRUE(chr.levels[0].iteration_dep);
}

TEST(CharStack, FlowSameIterationIsFine) {
  const Stamp write = {{1, 0, 5}};
  const Stamp read = {{1, 0, 5}};
  EXPECT_FALSE(characterize_flow(write, read).problematic());
}

TEST(CharStack, WriteBeforeLoopIsNotFlow) {
  // Loop-invariant input: written outside the loop, read inside.
  const Stamp write = {};
  const Stamp read = {{1, 0, 3}};
  EXPECT_FALSE(characterize_flow(write, read).problematic());
}

TEST(CharStack, RecursionDetected) {
  CharStack stack;
  stack.on_enter(1);
  stack.on_iteration(1);
  stack.on_enter(1);  // re-entered while open: recursion
  EXPECT_EQ(stack.recursive_loops().size(), 1u);
}

TEST(CharStack, InstanceCounterIncrementsPerEntry) {
  CharStack stack;
  stack.on_enter(1);
  stack.on_exit(1);
  stack.on_enter(1);
  EXPECT_EQ(stack.current().back().instance, 1);
}

// ---------------------------------------------------------------------------
// Mode 1: lightweight profiling
// ---------------------------------------------------------------------------

TEST(LightweightProfiler, MeasuresLoopShare) {
  js::Program program = js::parse(
      "var s = 0;\n"
      "for (var i = 0; i < 5000; i++) { s += i; }\n"
      "var t = 0;\n");
  VirtualClock clock;
  LightweightProfiler prof(clock);
  Interpreter interp(program, clock, &prof);
  interp.run();
  EXPECT_GT(prof.in_loops_ns(), 0);
  EXPECT_LE(prof.in_loops_ns(), clock.wall_ns());
  // Nearly all of this program is the loop.
  EXPECT_GT(double(prof.in_loops_ns()) / double(clock.wall_ns()), 0.9);
}

TEST(LightweightProfiler, NestedLoopsCountedOnce) {
  js::Program program = js::parse(
      "var s = 0;\n"
      "for (var i = 0; i < 40; i++) { for (var j = 0; j < 40; j++) { s++; } }\n");
  VirtualClock clock;
  LightweightProfiler prof(clock);
  Interpreter interp(program, clock, &prof);
  interp.run();
  EXPECT_LE(prof.in_loops_ns(), clock.wall_ns());
  EXPECT_EQ(prof.open_loops(), 0);
}

// ---------------------------------------------------------------------------
// Mode 2: loop profiling
// ---------------------------------------------------------------------------

TEST(LoopProfiler, TripCountStatistics) {
  js::Program program = js::parse(
      "function work(n) { var s = 0; for (var i = 0; i < n; i++) { s += i; } return s; }\n"
      "work(10); work(20); work(30);\n");
  VirtualClock clock;
  LoopProfiler prof(clock);
  Interpreter interp(program, clock, &prof);
  interp.run();
  const LoopStats* stats = prof.stats_for(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->instances, 3);
  EXPECT_DOUBLE_EQ(stats->trips.mean(), 20.0);
  EXPECT_NEAR(stats->trips.stddev(), 8.1649, 1e-3);
  EXPECT_GT(stats->runtime_ns.total(), 0);
}

TEST(LoopProfiler, NestingEdgesFollowRuntime) {
  VirtualClock clock;
  LoopProfiler prof(clock);
  Interpreter interp(js::parse("function inner() { for (var j = 0; j < 2; j++) { } }\n"
                               "for (var i = 0; i < 3; i++) { inner(); }\n"), clock, &prof);
  interp.run();
  // Loop 1 is inner's for (parsed first), loop 2 the top-level for.
  const auto& edges = prof.nesting_edges();
  const auto it = edges.find({1, 2});
  ASSERT_NE(it, edges.end());
  EXPECT_EQ(it->second, 3);
}

TEST(LoopProfiler, OuterLoopTimeIncludesInner) {
  js::Program program = js::parse(
      "for (var i = 0; i < 5; i++) { for (var j = 0; j < 100; j++) { } }\n");
  VirtualClock clock;
  LoopProfiler prof(clock);
  Interpreter interp(program, clock, &prof);
  interp.run();
  // Outer loop is id 1, inner id 2.
  EXPECT_GT(prof.stats_for(1)->total_runtime_ns(),
            prof.stats_for(2)->total_runtime_ns() * 0.9);
  EXPECT_EQ(prof.stats_for(2)->instances, 5);
}

TEST(LoopProfiler, TotalInLoopsMatchesLightweight) {
  const std::string source =
      "var s = 0;\n"
      "for (var i = 0; i < 500; i++) { s += i; }\n"
      "for (var j = 0; j < 500; j++) { s -= j; }\n";
  VirtualClock c1;
  LightweightProfiler light(c1);
  Interpreter i1(js::parse(source), c1, &light);
  i1.run();

  VirtualClock c2;
  LoopProfiler loops(c2);
  Interpreter i2(js::parse(source), c2, &loops);
  i2.run();

  EXPECT_EQ(light.in_loops_ns(), loops.total_in_loops_ns());
}

// ---------------------------------------------------------------------------
// Sampling profiler (Gecko emulation)
// ---------------------------------------------------------------------------

TEST(SamplingProfiler, ActiveTimeTracksCpu) {
  VirtualClock clock;
  SamplingProfiler prof(clock);
  Interpreter interp(js::parse("var s = 0;\n"
                               "for (var i = 0; i < 200000; i++) { s += i; }\n"), clock, &prof);
  interp.run();
  prof.finish();
  // Pure compute: sampled active time ~== cpu time (within one period).
  EXPECT_NEAR(double(prof.active_ns()), double(clock.cpu_ns()),
              2.0 * 1'000'000);
}

TEST(SamplingProfiler, BlockedTimeIsInactive) {
  VirtualClock clock;
  SamplingProfiler prof(clock);
  Interpreter interp(js::parse("var x = 1;"), clock, &prof);
  interp.run();
  interp.block(50'000'000);  // 50 ms of idle
  prof.finish();
  EXPECT_LT(prof.active_ns(), 2'000'000);
  EXPECT_GE(prof.total_samples(), 50);
}

TEST(SamplingProfiler, FunctionGranularityArtifactUndercounts) {
  const std::string source =
      "function hot() { var s = 0; for (var i = 0; i < 400000; i++) { s += i; } return s; }\n"
      "hot();\n";
  VirtualClock c1;
  SamplingProfiler exact(c1);
  Interpreter i1(js::parse(source), c1, &exact);
  i1.run();
  exact.finish();

  VirtualClock c2;
  SamplingProfiler::Options opts;
  opts.function_granularity_artifact = true;
  opts.max_same_fn_samples = 16;
  SamplingProfiler lossy(c2, opts);
  Interpreter i2(js::parse(source), c2, &lossy);
  i2.run();
  lossy.finish();

  // The artifact makes the profiler lose most of a long single-function run
  // — the paper's "active < in-loops" anomaly.
  EXPECT_LT(lossy.active_ns(), exact.active_ns() / 2);
}

// ---------------------------------------------------------------------------
// Mode 3: dependence analysis — the paper's Fig. 6 walkthrough
// ---------------------------------------------------------------------------

/// The N-body step of Fig. 6, adapted to the engine subset. Loop ids:
///   1 = setup for, 2 = for inside step (the focused loop), 3 = driver while.
const char* kNBody = R"JS(
var bodies = [];
var dT = 0.1;
for (var i0 = 0; i0 < 6; i0++) {
  bodies.push({x: i0, y: 0, vX: 0, vY: 0, fX: 1, fY: 1, m: 1});
}
function Particle() { this.x = 0; this.y = 0; this.m = 0; }
function step() {
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
    com.y = (com.y * (com.m - p.m) + p.y * p.m) / com.m;
  }
  return com;
}
var steps = 0;
while (steps < 4) {
  var com = step();
  steps = steps + 1;
}
)JS";

struct NBodyRun {
  NBodyRun() : program(js::parse(kNBody)) {
    DependenceAnalyzer::Options options;
    options.focus_loop_id = 2;  // the for inside step()
    analyzer = std::make_unique<DependenceAnalyzer>(program, options);
    interp = std::make_unique<Interpreter>(program, clock, analyzer.get());
    interp->run();
  }

  const DependenceWarning* find(AccessKind kind, const std::string& name) const {
    for (const auto& w : analyzer->warnings()) {
      if (w.kind == kind && w.name == name) return &w;
    }
    return nullptr;
  }

  js::Program program;
  VirtualClock clock;
  std::unique_ptr<DependenceAnalyzer> analyzer;
  std::unique_ptr<Interpreter> interp;
};

TEST(DependenceFig6, VarPIsSharedAcrossForIterations) {
  NBodyRun run;
  const auto* warning = run.find(AccessKind::VarWrite, "p");
  ASSERT_NE(warning, nullptr) << run.analyzer->report();
  // Paper: "while(line 24) ok ok -> for(line 6) ok dependence"
  const LevelFlags* at_while = warning->characterization.at_loop(3);
  const LevelFlags* at_for = warning->characterization.at_loop(2);
  ASSERT_NE(at_while, nullptr);
  ASSERT_NE(at_for, nullptr);
  EXPECT_FALSE(at_while->instance_dep);
  EXPECT_FALSE(at_while->iteration_dep);
  EXPECT_FALSE(at_for->instance_dep);
  EXPECT_TRUE(at_for->iteration_dep);
}

TEST(DependenceFig6, WritesToParticleFieldsFlagged) {
  NBodyRun run;
  for (const char* field : {"vX", "vY", "x", "y"}) {
    const auto* warning = run.find(AccessKind::PropWrite, field);
    ASSERT_NE(warning, nullptr) << "missing warning for " << field << "\n"
                                << run.analyzer->report();
    const LevelFlags* at_for = warning->characterization.at_loop(2);
    ASSERT_NE(at_for, nullptr);
    EXPECT_FALSE(at_for->instance_dep) << field;
    EXPECT_TRUE(at_for->iteration_dep) << field;
  }
}

TEST(DependenceFig6, WritesToComFieldsFlagged) {
  NBodyRun run;
  const auto* warning = run.find(AccessKind::PropWrite, "m");
  ASSERT_NE(warning, nullptr) << run.analyzer->report();
  const LevelFlags* at_for = warning->characterization.at_loop(2);
  ASSERT_NE(at_for, nullptr);
  EXPECT_FALSE(at_for->instance_dep);
  EXPECT_TRUE(at_for->iteration_dep);
}

TEST(DependenceFig6, ReadsOfComAreFlowDependencies) {
  NBodyRun run;
  const auto* warning = run.find(AccessKind::PropRead, "m");
  ASSERT_NE(warning, nullptr) << run.analyzer->report();
  EXPECT_EQ(warning->dep, DepClass::Flow);
  const LevelFlags* at_for = warning->characterization.at_loop(2);
  ASSERT_NE(at_for, nullptr);
  EXPECT_TRUE(at_for->iteration_dep);
}

TEST(DependenceFig6, RenderMatchesPaperFormat) {
  NBodyRun run;
  const auto* warning = run.find(AccessKind::VarWrite, "p");
  ASSERT_NE(warning, nullptr);
  const std::string text = warning->render(run.program);
  EXPECT_NE(text.find("write to variable p"), std::string::npos);
  EXPECT_NE(text.find("while(line 23) ok ok -> for(line 10) ok dependence"),
            std::string::npos)
      << text;
}

/// Paper §3.3: extracting the loop body into a function privatizes `p`
/// (fresh activation per iteration); the warning on `com` stands.
TEST(DependenceFig6, ExtractedBodyPrivatizesP) {
  const char* source = R"JS(
var bodies = [];
var dT = 0.1;
for (var i0 = 0; i0 < 6; i0++) {
  bodies.push({x: i0, y: 0, vX: 0, vY: 0, m: 1});
}
function Particle() { this.x = 0; this.m = 0; }
function step() {
  var com = new Particle();
  function body(i) {
    var p = bodies[i];
    p.vX += dT;
    p.x += p.vX * dT;
    com.m = com.m + p.m;
    com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
  }
  for (var i = 0; i < bodies.length; i++) { body(i); }
  return com;
}
var steps = 0;
while (steps < 4) { step(); steps = steps + 1; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer::Options options;
  options.focus_loop_id = 2;
  DependenceAnalyzer analyzer(program, options);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();

  for (const auto& w : analyzer.warnings()) {
    EXPECT_FALSE(w.kind == AccessKind::VarWrite && w.name == "p")
        << "p should be private now: " << w.render(program);
    // Writes through p (vX) are private per iteration now.
    EXPECT_FALSE(w.kind == AccessKind::PropWrite && w.name == "vX")
        << w.render(program);
  }
  // The warning on com stands.
  bool com_write = false;
  for (const auto& w : analyzer.warnings()) {
    if (w.kind == AccessKind::PropWrite && w.name == "m") com_write = true;
  }
  EXPECT_TRUE(com_write) << analyzer.report();
}

TEST(Dependence, DisjointIndexWritesAreNotConflicts) {
  // out[i] = 2 * in[i] — the parallel pattern: output array is shared
  // (created outside), but no field is written in two iterations.
  const char* source = R"JS(
var input = [];
for (var i0 = 0; i0 < 32; i0++) { input.push(i0); }
var out = [];
out.length = 32;
for (var i = 0; i < 32; i++) { out[i] = 2 * input[i]; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  const auto summaries = analyzer.summaries();
  const int fill_loop = program->loop_id_at_line(6);
  ASSERT_NE(fill_loop, 0);
  const auto it = summaries.find(fill_loop);
  ASSERT_NE(it, summaries.end());
  // Writes are flagged shared (the array pre-dates the loop) but no
  // same-field cross-iteration conflict exists.
  EXPECT_GT(it->second.shared_prop_writes, 0);
  EXPECT_EQ(it->second.conflicting_write_sites, 0);
  EXPECT_EQ(it->second.flow_deps, 0);
}

TEST(Dependence, ReductionHasConflictsAndFlow) {
  const char* source = R"JS(
var acc = {sum: 0};
var data = [1, 2, 3, 4, 5, 6, 7, 8];
for (var i = 0; i < data.length; i++) { acc.sum = acc.sum + data[i]; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  const int loop = program->loop_id_at_line(4);
  const auto summaries = analyzer.summaries();
  const auto it = summaries.find(loop);
  ASSERT_NE(it, summaries.end());
  EXPECT_GT(it->second.flow_deps, 0);
  EXPECT_GT(it->second.conflicting_write_sites, 0);
}

TEST(Dependence, RecursionGuardFires) {
  const char* source = R"JS(
function walk(depth) {
  for (var i = 0; i < 2; i++) {
    if (depth > 0) { walk(depth - 1); }
  }
}
walk(3);
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  const auto summaries = analyzer.summaries();
  ASSERT_EQ(summaries.count(1), 1u);
  EXPECT_TRUE(summaries.at(1).recursion_detected);
}

TEST(Dependence, FocusFilterLimitsReports) {
  const char* source = R"JS(
var shared = {n: 0};
for (var a = 0; a < 4; a++) { shared.n = shared.n + 1; }
for (var b = 0; b < 4; b++) { shared.n = shared.n + 1; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer::Options options;
  options.focus_loop_id = 2;  // second loop only
  DependenceAnalyzer analyzer(program, options);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  for (const auto& w : analyzer.warnings()) {
    const LevelFlags* at_first = w.characterization.at_loop(1);
    EXPECT_EQ(at_first, nullptr) << w.render(program);
  }
  EXPECT_FALSE(analyzer.warnings().empty());
}

TEST(Dependence, WarningsDeduplicateWithCounts) {
  const char* source = R"JS(
var o = {n: 0};
for (var i = 0; i < 50; i++) { o.n = i; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  std::int64_t n_warnings = 0;
  for (const auto& w : analyzer.warnings()) {
    if (w.kind == AccessKind::PropWrite && w.name == "n") {
      ++n_warnings;
      EXPECT_GT(w.count, 1);
    }
  }
  EXPECT_EQ(n_warnings, 1);
}

TEST(Dependence, BuiltinNamespaceObjectsAreTrackedLikeAnyObject) {
  // Math, console, JSON and performance need real object ids: the
  // last-write table reads owner id 0 as an empty slot, so under id 0 every
  // write to Math.acc looks like the field's first, the flow read goes
  // unreported, and the table grows (and charges the ledger) per write.
  const char* source = R"JS(
Math.acc = 0;
for (var i = 0; i < 2000; i++) { Math.acc = Math.acc + 1; }
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  bool flow = false;
  for (const auto& w : analyzer.warnings()) {
    flow |= w.kind == AccessKind::PropRead && w.dep == DepClass::Flow &&
            w.name == "acc";
  }
  EXPECT_TRUE(flow) << analyzer.report();
  EXPECT_EQ(analyzer.tracked_writes(), 1u);
  for (const char* name : {"Math", "console", "JSON", "performance"}) {
    EXPECT_NE(interp.global(name).as_object()->id(), 0u) << name;
  }
}

std::vector<DependenceWarning> warnings_of(const js::Program& program,
                                           DependenceAnalyzer::Options options,
                                           std::string* report = nullptr,
                                           bool* truncated = nullptr) {
  DependenceAnalyzer analyzer(program, options);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  if (report != nullptr) *report = analyzer.report();
  if (truncated != nullptr) *truncated = analyzer.truncated();
  const auto& warnings = analyzer.warnings();
  return {warnings.begin(), warnings.end()};
}

TEST(Dependence, MaxWarningsKeepsFirstSitesAndStillCountsThem) {
  const char* source = R"JS(
var o = {a: 0, b: 0, c: 0, d: 0};
for (var i = 0; i < 10; i++) {
  o.a = i;
  o.b = i;
  o.c = i;
  o.d = i;
}
)JS";
  const js::Program program = js::parse(source);
  bool truncated = true;
  const auto all = warnings_of(program, {}, nullptr, &truncated);
  ASSERT_GE(all.size(), 4u);
  EXPECT_FALSE(truncated);

  DependenceAnalyzer::Options capped;
  capped.max_warnings = 2;
  std::string report;
  const auto kept = warnings_of(program, capped, &report, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_NE(report.find("note: warning list truncated"), std::string::npos);
  ASSERT_EQ(kept.size(), 2u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    // The kept sites are the uncapped run's first two, and their repeats
    // after the cap was reached are still counted.
    EXPECT_EQ(kept[i].render(program), all[i].render(program));
    EXPECT_EQ(kept[i].count, 10);
  }
}

TEST(Dependence, ManyWarningSitesKeepFirstSeenOrderAndCounts) {
  // 40 distinct sites: more than the warning index's initial capacity, so
  // it rehashes twice while the sites are recorded.
  constexpr int kSites = 40;
  std::string source = "var o = {};\nfor (var i = 0; i < 3; i++) {\n";
  for (int k = 0; k < kSites; ++k) {
    source += "  o.p" + std::to_string(k) + " = i;\n";
  }
  source += "}\n";
  const js::Program program = js::parse(source);
  const auto warnings = warnings_of(program, {});
  std::vector<const DependenceWarning*> props;
  for (const auto& w : warnings) {
    if (w.kind == AccessKind::PropWrite) props.push_back(&w);
  }
  ASSERT_EQ(props.size(), std::size_t(kSites));
  for (int k = 0; k < kSites; ++k) {
    EXPECT_EQ(props[k]->name, "p" + std::to_string(k));
    EXPECT_EQ(props[k]->line, 3 + k);
    EXPECT_EQ(props[k]->count, 3);
  }
}

TEST(DenseStampTable, LedgerTripWhileGrowingLeavesTableUsable) {
  detail::DenseStampTable table;
  table.put(1, 5);
  table.put(40, 6);
  EngineLimits limits;
  limits.fail_after_n_allocations = 0;  // the next charge trips
  AllocationLedger ledger(limits);
  {
    AllocationLedger::Scope scope(&ledger);
    EXPECT_THROW(table.put(5000, 7), EngineError);
  }
  // Charged before it resized: nothing stored, nothing lost.
  EXPECT_EQ(table.get(1), 5u);
  EXPECT_EQ(table.get(40), 6u);
  EXPECT_EQ(table.get(5000), kEmptyStampId);
  EXPECT_EQ(table.size(), 2u);
  table.put(5000, 7);
  table.put(40, 8);  // overwrite: still two distinct ids plus the new one
  EXPECT_EQ(table.get(5000), 7u);
  EXPECT_EQ(table.get(40), 8u);
  EXPECT_EQ(table.size(), 3u);
}

// ---------------------------------------------------------------------------
// The segment pipeline: the hook stream analyzed in segments, on a consumer
// thread when one fills, with ledger charges replayed on the interpreter's
// thread at fixed points of the stream.
// ---------------------------------------------------------------------------

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// Per iteration: a fresh object stamped under the loop, a shared-object
// write and a flow read, and an array element write, so the stamp tables,
// the last-write table and the warning index all grow while the stream runs
// through several segments.
constexpr const char* kSegmentedSource = R"JS(
var shared = {sum: 0};
var keep = [];
for (var i = 0; i < 3000; i++) {
  var p = {x: i, y: i + 1};
  shared.sum = shared.sum + p.x;
  keep[i] = p;
}
console.log(shared.sum);
)JS";

/// Everything observable about one mode-3 run that ends in a trip.
struct TripOutcome {
  std::string error;
  std::int64_t ticks = 0;
  std::size_t in_use = 0;
  std::size_t peak = 0;
  std::string console;
  std::string report;
  std::uint64_t segments = 0;

  bool operator==(const TripOutcome&) const = default;
  friend std::ostream& operator<<(std::ostream& out, const TripOutcome& o) {
    return out << "{error \"" << o.error << "\", ticks " << o.ticks << ", in_use "
               << o.in_use << ", peak " << o.peak << ", segments " << o.segments
               << ", console \"" << o.console << "\", report of "
               << o.report.size() << " bytes}";
  }
};

/// Parses afresh each time: a program's shape tree is shared by every
/// interpreter that runs it, so a second run of one parse charges less.
TripOutcome run_limited(const char* source, const EngineLimits& limits) {
  TripOutcome out;
  const js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  interp::InterpreterConfig config;
  config.limits = limits;
  Interpreter interp(program, clock, &analyzer, config);
  try {
    interp.run();
  } catch (const EngineError& e) {
    out.error = e.what();
  }
  out.ticks = clock.cpu_ns();
  out.in_use = interp.ledger().in_use();
  out.peak = interp.ledger().peak();
  out.console = interp.console_output();
  out.report = analyzer.report();
  const DependenceAnalyzer::SegmentCounts counts = analyzer.segment_counts();
  out.segments = counts.consumer + counts.producer;
  return out;
}

TEST(SegmentPipeline, InjectedAllocationFailureTripsAtTheSameChargeEveryRun) {
  const TripOutcome clean = run_limited(kSegmentedSource, {});
  ASSERT_EQ(clean.error, "");
  ASSERT_GE(clean.segments, 3u);
  std::int64_t charges = 0;
  {
    const js::Program program = js::parse(kSegmentedSource);
    DependenceAnalyzer analyzer(program);
    VirtualClock clock;
    Interpreter interp(program, clock, &analyzer);
    interp.run();
    charges = interp.ledger().charges();
  }
  ASSERT_GT(charges, 8);
  // Failure points from the first charge to the last one, which the
  // window-end drain replays.
  for (const std::int64_t n : {std::int64_t(0), charges / 4, charges / 2,
                               charges * 3 / 4, charges - 2, charges - 1}) {
    EngineLimits limits;
    limits.fail_after_n_allocations = n;
    const TripOutcome first = run_limited(kSegmentedSource, limits);
    EXPECT_EQ(first.error,
              "injected allocation failure (charge #" + std::to_string(n + 1) + ")");
    for (int run = 1; run < 20; ++run) {
      ASSERT_EQ(run_limited(kSegmentedSource, limits), first)
          << "n=" << n << " run " << run;
    }
  }
}

TEST(SegmentPipeline, MemoryCeilingTripsAtTheSameChargeEveryRun) {
  const TripOutcome clean = run_limited(kSegmentedSource, {});
  ASSERT_EQ(clean.error, "");
  for (const std::size_t ceiling : {clean.peak / 2, clean.peak * 9 / 10,
                                    clean.peak - 1}) {
    EngineLimits limits;
    limits.max_memory_bytes = ceiling;
    const TripOutcome first = run_limited(kSegmentedSource, limits);
    EXPECT_NE(first.error.find("memory limit exceeded"), std::string::npos)
        << first.error;
    for (int run = 1; run < 20; ++run) {
      ASSERT_EQ(run_limited(kSegmentedSource, limits), first)
          << "ceiling=" << ceiling << " run " << run;
    }
  }
  // At the peak itself nothing trips: the replayed charges add up to the
  // same peak the unlimited run reports.
  EngineLimits at_peak;
  at_peak.max_memory_bytes = clean.peak;
  EXPECT_EQ(run_limited(kSegmentedSource, at_peak), clean);
}

TEST(SegmentPipeline, StreamBelowOneSegmentStartsNoThread) {
  const std::size_t before = live_threads();
  const js::Program program = js::parse(
      "var o = {}; for (var i = 0; i < 20; i++) { o.x = i; } console.log(o.x);");
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  Interpreter interp(program, clock, &analyzer);
  interp.run();
  EXPECT_EQ(live_threads(), before);
  const DependenceAnalyzer::SegmentCounts counts = analyzer.segment_counts();
  EXPECT_EQ(counts.consumer, 0u);
  EXPECT_EQ(counts.producer, 1u);  // the one partial segment, at the drain
  EXPECT_FALSE(analyzer.warnings().empty());
}

/// Run an endless mode-3 loop until `config` stops it; the trip must come
/// after several segments, and neither the trip nor the teardown may leave
/// a thread behind.
void expect_trip_joins_consumer(interp::InterpreterConfig config,
                                const std::string& expected_error) {
  const std::size_t before = live_threads();
  const js::Program program = js::parse(
      "var o = {n: 0}; var i = 0;\n"
      "while (true) { var p = {v: i}; o.n = o.n + p.v; i = i + 1; }\n");
  {
    DependenceAnalyzer analyzer(program);
    VirtualClock clock;
    Interpreter interp(program, clock, &analyzer, config);
    try {
      interp.run();
      ADD_FAILURE() << "the endless loop finished";
    } catch (const EngineError& e) {
      EXPECT_NE(std::string(e.what()).find(expected_error), std::string::npos)
          << e.what();
    }
    // The failed window joined the consumer.
    EXPECT_EQ(live_threads(), before);
    const DependenceAnalyzer::SegmentCounts counts = analyzer.segment_counts();
    EXPECT_GE(counts.consumer + counts.producer, 3u);
  }
  EXPECT_EQ(live_threads(), before);
}

TEST(SegmentPipeline, TickBudgetTripJoinsTheConsumer) {
  interp::InterpreterConfig config;
  config.max_ticks = 400000;
  expect_trip_joins_consumer(config, "tick budget exceeded");
}

TEST(SegmentPipeline, CancelTripJoinsTheConsumer) {
  CancelSource source;
  source.cancel_after_observations(2000);
  interp::InterpreterConfig config;
  config.cancel = CancelToken(source);
  expect_trip_joins_consumer(config, "cancel");
}

TEST(SegmentPipeline, DeadlineTripJoinsTheConsumer) {
  CancelSource source;
  source.set_deadline_in(30);
  interp::InterpreterConfig config;
  config.cancel = CancelToken(source);
  expect_trip_joins_consumer(config, "deadline");
}

}  // namespace
}  // namespace jsceres::ceres
