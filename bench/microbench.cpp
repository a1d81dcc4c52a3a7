// google-benchmark microbenchmarks for the substrate hot paths: lexing,
// parsing, interpretation throughput, canvas raster ops, characterization
// diffs, and the parallel runtime.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ceres/char_stack.h"
#include "ceres/dependence_analyzer.h"
#include "dom/canvas.h"
#include "fuzz/generator.h"
#include "interp/interpreter.h"
#include "js/lexer.h"
#include "js/parser.h"
#include "rivertrail/kernels.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/parallel_pipeline.h"
#include "support/session.h"

namespace {

using namespace jsceres;

const char* kSample = R"JS(
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
var total = 0;
for (var i = 0; i < 32; i++) { total += fib(10); }
)JS";

void BM_Lex(benchmark::State& state) {
  js::AtomSpace atoms;  // shared across iterations: steady-state interns hit
  for (auto _ : state) {
    benchmark::DoNotOptimize(js::lex(kSample, atoms));
  }
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(js::parse(kSample));
  }
}
BENCHMARK(BM_Parse);

// The front end on wire_small's corpus shape: fuzz::generate_program at
// depth 1, every fourth program with the timer epilogue.
std::vector<std::string> generated_sources() {
  std::vector<std::string> sources;
  for (int i = 0; i < 64; ++i) {
    fuzz::GenOptions options;
    options.max_depth = 1;
    options.use_timers = i % 4 == 3;
    sources.push_back(fuzz::generate_program(1000 + std::uint64_t(i), options));
  }
  return sources;
}

// One iteration lexes, parses and frees the whole fixed set; `ns_per_token`
// is that cost per token.
void BM_ParseGenerated(benchmark::State& state) {
  const std::vector<std::string> sources = generated_sources();
  double tokens = 0;
  for (const std::string& source : sources) {
    js::AtomSpace atoms;
    tokens += double(js::lex(source, atoms).size());
  }
  std::chrono::nanoseconds spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& source : sources) benchmark::DoNotOptimize(js::parse(source));
    spent += std::chrono::steady_clock::now() - start;
  }
  state.counters["ns_per_token"] = double(spent.count()) / (tokens * double(state.iterations()));
}
BENCHMARK(BM_ParseGenerated);

std::size_t count_nodes(const js::Node& node) {
  std::size_t n = 1;
  js::for_each_child(node, [&n](const js::Node& child) { n += count_nodes(child); });
  return n;
}

// Resolving and lowering the same set to bytecode, as the first interpreter
// of each program does; `ns_per_node` is that cost per AST node. (Each
// compile leaves its activation layouts in the program's arena.)
void BM_CompileGenerated(benchmark::State& state) {
  std::vector<js::Program> programs;
  double nodes = 0;
  for (const std::string& source : generated_sources()) {
    programs.push_back(js::parse(source));
    for (const js::Stmt* stmt : programs.back()->statements) nodes += double(count_nodes(*stmt));
  }
  std::chrono::nanoseconds spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (const js::Program& program : programs) {
      benchmark::DoNotOptimize(interp::compile(*program));
    }
    spent += std::chrono::steady_clock::now() - start;
  }
  state.counters["ns_per_node"] = double(spent.count()) / (nodes * double(state.iterations()));
}
BENCHMARK(BM_CompileGenerated);

void BM_InterpretArithmeticLoop(benchmark::State& state) {
  const js::Program program = js::parse(
      "var s = 0;\n"
      "for (var i = 0; i < 10000; i++) { s += i * 2 - (i & 3); }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
    benchmark::DoNotOptimize(clock.cpu_ns());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_InterpretArithmeticLoop);

void BM_InterpretCalls(benchmark::State& state) {
  const js::Program program = js::parse(kSample);
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
}
BENCHMARK(BM_InterpretCalls);

// Call-dominated with a wide activation: 2 params + 10 hoisted vars per
// call. The per-call declare scan is quadratic in the name count, which is
// what the compiler's activation-layout template (stamped name vector +
// direct slot stores) removes.
void BM_InterpretCallsLocals(benchmark::State& state) {
  const js::Program program = js::parse(
      "function mix(a, b) {\n"
      "  var c = a + b; var d = a - b; var e = a * 2; var f = b * 2;\n"
      "  var g = c + d; var h = e + f; var i2 = g - h; var j = g + h;\n"
      "  var k = i2 * j; var l = k & 1023;\n"
      "  return l;\n"
      "}\n"
      "var total = 0;\n"
      "for (var i = 0; i < 4000; i++) { total += mix(i, i + 1); }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_InterpretCallsLocals);

void BM_InterpretPropertyAccess(benchmark::State& state) {
  const js::Program program = js::parse(
      "var o = {a: 1, b: 2};\n"
      "var s = 0;\n"
      "for (var i = 0; i < 5000; i++) { o.a = o.a + 1; s += o.b; }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_InterpretPropertyAccess);

// Resolution-bound loop: every iteration reads three closure variables one
// scope level up plus two locals, isolating identifier-resolution cost from
// arithmetic and property traffic.
void BM_ResolveIdentifier(benchmark::State& state) {
  const js::Program program = js::parse(
      "function outer() {\n"
      "  var a = 1; var b = 2; var c = 3;\n"
      "  function inner() {\n"
      "    var t = 0;\n"
      "    for (var i = 0; i < 1000; i++) { t += a + b + c; }\n"
      "    return t;\n"
      "  }\n"
      "  return inner();\n"
      "}\n"
      "var result = 0;\n"
      "for (var j = 0; j < 10; j++) { result += outer(); }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 10 * 1000 * 3);
}
BENCHMARK(BM_ResolveIdentifier);

// Monomorphic named-property reads and writes on one receiver: the shape
// inline-cache steady state (three reads + one write per iteration).
void BM_PropertyAccess(benchmark::State& state) {
  const js::Program program = js::parse(
      "var o = {x: 1, y: 2, z: 3};\n"
      "var s = 0;\n"
      "for (var i = 0; i < 5000; i++) { s += o.x + o.y + o.z; o.x = i & 7; }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 5000 * 4);
}
BENCHMARK(BM_PropertyAccess);

// Shape-polymorphic member sites: ten read/write sites each see N distinct
// receiver shapes in rotation (the `a`/`x` slot indices differ per shape,
// so a stale hit would corrupt `s`). A monomorphic cache thrashes — every
// access is a miss — while a polymorphic cache holds all N ways. Arg(1) is
// the monomorphic control: the *thrash cost* of an IC design is the /2 or
// /4 time minus the /1 time (end-to-end time is dominated by tree-walking
// dispatch, which alternation does not change).
void BM_InterpretPolymorphicProps(benchmark::State& state) {
  const int nshapes = int(state.range(0));
  std::string source =
      "function mk(k) {\n"
      "  if (k === 0) { return {a: 1, x: 2}; }\n"
      "  if (k === 1) { return {b: 1, a: 2, x: 3}; }\n"
      "  if (k === 2) { return {c: 1, b: 2, a: 3, x: 4}; }\n"
      "  return {d: 1, c: 2, b: 3, a: 4, x: 5};\n"
      "}\n"
      "var objs = [];\n"
      "for (var i = 0; i < " + std::to_string(nshapes) + "; i++) { objs.push(mk(i)); }\n"
      "var s = 0;\n"
      "for (var i = 0; i < 4000; i++) {\n"
      "  var o = objs[i & " + std::to_string(nshapes - 1) + "];\n"
      "  s += o.a + o.x + o.a + o.x + o.a + o.x + o.a + o.x;\n"
      "  o.x = i & 7;\n"
      "  o.a = i;\n"
      "}\n";
  const js::Program program = js::parse(source);
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 4000 * 10);
}
BENCHMARK(BM_InterpretPolymorphicProps)->Arg(1)->Arg(2)->Arg(4);

// Shape growth: build an object with N properties, then read them all back.
// The property names are freshened every benchmark iteration (the `prefix`
// global changes), so each iteration creates a brand-new shape-transition
// chain — the regime where transitions that copy the parent's full slot
// table cost O(N^2) allocations per object built. The atoms and shapes go
// into the one program's space and tree, which live as long as the
// benchmark, so it intentionally grows them; that is the measured scenario,
// not a leak.
void BM_InterpretManyProps(benchmark::State& state) {
  const int nprops = int(state.range(0));
  const std::string n = std::to_string(nprops);
  const js::Program program = js::parse(
      "var o = {};\n"
      "for (var i = 0; i < " + n + "; i++) { o[prefix + i] = i; }\n"
      "var s = 0;\n"
      "for (var j = 0; j < " + n + "; j++) { s += o[prefix + j]; }\n");
  // `fresh` must never repeat a prefix — not across repetitions and not
  // across google-benchmark's calibration runs — or the chains already
  // exist and the benchmark silently degrades to steady-state probing.
  static std::uint64_t fresh = 0;
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.define_global(
        "prefix", interp::Value::str("p" + std::to_string(fresh++) + "_"));
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * nprops * 2);
}
BENCHMARK(BM_InterpretManyProps)->Arg(32)->Arg(128);

// Argument-passing cost in call-dominated code: a 4-argument callee invoked
// from a loop, including a nested call in argument position. Isolates the
// per-call arguments vector (one heap allocation per call in the seed
// convention) from activation-environment cost (activations are reused).
void BM_InterpretCallsArgs(benchmark::State& state) {
  const js::Program program = js::parse(
      "function sum4(a, b, c, d) { return a + b + c + d; }\n"
      "function twice(x) { return x + x; }\n"
      "var t = 0;\n"
      "for (var i = 0; i < 5000; i++) { t += sum4(i, twice(i), i + 2, i + 3); }\n");
  for (auto _ : state) {
    VirtualClock clock;
    interp::Interpreter interp(program, clock);
    interp.run();
  }
  state.SetItemsProcessed(state.iterations() * 5000 * 2);
}
BENCHMARK(BM_InterpretCallsArgs);

// Session start-up and teardown on an empty program: the fixed cost every
// request pays around its script (the builtin realm's copy, the mode's
// hooks, the interpreter's caches). Arg: the Ceres rung, 0 or 3.
void BM_SessionStartup(benchmark::State& state) {
  const js::Program program = js::parse("");
  const CeresMode mode = mode_of_rung(int(state.range(0)));
  for (auto _ : state) {
    Session session(program, mode);
    benchmark::DoNotOptimize(&session);
  }
}
BENCHMARK(BM_SessionStartup)->Arg(0)->Arg(3);

void BM_CanvasFillRect(benchmark::State& state) {
  dom::CanvasContext ctx(256, 256);
  ctx.set_fill_color(dom::Rgba{10, 20, 30, 255});
  for (auto _ : state) {
    ctx.fill_rect(0, 0, 256, 256);
    benchmark::DoNotOptimize(ctx.drain_cost());
  }
}
BENCHMARK(BM_CanvasFillRect);

void BM_CharacterizeCreation(benchmark::State& state) {
  const ceres::Stamp stamp = {{1, 4, 2}, {2, 9, 5}};
  const ceres::Stamp current = {{1, 4, 2}, {2, 9, 7}, {3, 1, 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceres::characterize_creation(stamp, current));
  }
}
BENCHMARK(BM_CharacterizeCreation);

// ---------------------------------------------------------------------------
// Mode-3 dependence-analysis hot path (BENCH_ceres_baseline.json). These
// drive DependenceAnalyzer's hook interface directly — the cost of event
// processing (stamping, characterization, last-write tables), isolated from
// tree-walking the program — which is exactly the overhead the paper calls
// "very high" in §3.3.
// ---------------------------------------------------------------------------

// A tiny program whose loop table provides ids 1 (while) and 2.. (nested
// fors) for synthesized events; depth-8 nest for BM_CharacterizeDepth.
const js::Program& dependence_bench_program() {
  static const js::Program program = js::parse(
      "while (0) {\n"
      "  for (var a = 0; a < 0; a++) {\n"
      "    for (var b = 0; b < 0; b++) {\n"
      "      for (var c = 0; c < 0; c++) {\n"
      "        for (var d = 0; d < 0; d++) {\n"
      "          for (var e = 0; e < 0; e++) {\n"
      "            for (var f = 0; f < 0; f++) {\n"
      "              for (var g = 0; g < 0; g++) { }\n"
      "            }\n"
      "          }\n"
      "        }\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n");
  return program;
}

interp::LoopEvent bench_loop(int loop_id) { return interp::LoopEvent{loop_id, 1, 0}; }

// The synthetic analyzer benchmarks below feed each iteration's accesses as
// one on_memory_batch call after its loop and creation events, the way the
// interpreter flushes its buffer before any non-memory event. The hooks only
// append to the analyzer's segments; the warnings() call that ends each
// iteration drains them, so a row times the analysis, not just the copy.
using MemKind = interp::MemoryEvent::Kind;

// The dominant mode-3 traffic shape: a function called per iteration creates
// an activation and writes its locals ("ok ok" private accesses), plus one
// write to a loop-invariant env per iteration (deduplicated warning).
void BM_DependenceVarWrites(benchmark::State& state) {
  const js::Program& program = dependence_bench_program();
  const js::Atom local = program->atoms.intern("p");
  const js::Atom shared = program->atoms.intern("total");
  const std::int64_t kIters = 512;
  std::vector<interp::MemoryEvent> batch(7, {MemKind::VarWrite, 5, 0, local, {}});
  batch.push_back({MemKind::VarWrite, 9, 1, shared, {}});
  for (auto _ : state) {
    ceres::DependenceAnalyzer analyzer(program);
    std::uint64_t env_id = 1;
    analyzer.on_env_created(env_id);  // pre-loop env: writes to it are shared
    analyzer.on_loop_enter(bench_loop(1));
    for (std::int64_t i = 0; i < kIters; ++i) {
      analyzer.on_loop_iteration(bench_loop(1));
      const std::uint64_t activation = ++env_id;
      analyzer.on_env_created(activation);
      for (int w = 0; w < 7; ++w) batch[w].id = activation;
      analyzer.on_memory_batch(batch.data(), batch.size());
    }
    analyzer.on_loop_exit(bench_loop(1));
    benchmark::DoNotOptimize(analyzer.warnings().size());
  }
  state.SetItemsProcessed(state.iterations() * kIters * 8);
}
BENCHMARK(BM_DependenceVarWrites);

// Property traffic: per iteration a fresh object takes private field writes
// and reads, and one shared (pre-loop) object takes a write + flow read —
// exercising creation stamps, the per-(object, property) last-write table,
// and flow characterization.
void BM_DependencePropWrites(benchmark::State& state) {
  const js::Program& program = dependence_bench_program();
  const js::Atom kx = program->atoms.intern("x");
  const js::Atom ky = program->atoms.intern("y");
  const js::Atom ksum = program->atoms.intern("sum");
  const std::int64_t kIters = 512;
  std::vector<interp::MemoryEvent> batch;
  for (int w = 0; w < 3; ++w) {
    batch.push_back({MemKind::PropWrite, 6, 0, kx, {}});
    batch.push_back({MemKind::PropRead, 7, 0, kx, {}});
    batch.push_back({MemKind::PropWrite, 6, 0, ky, {}});
  }
  const std::size_t kFresh = batch.size();  // events on the fresh object
  batch.push_back({MemKind::PropRead, 8, 1, ksum, {}});
  batch.push_back({MemKind::PropWrite, 8, 1, ksum, {}});
  for (auto _ : state) {
    ceres::DependenceAnalyzer analyzer(program);
    std::uint64_t obj_id = 1;
    analyzer.on_object_created(obj_id, 1);  // pre-loop shared accumulator
    analyzer.on_loop_enter(bench_loop(1));
    for (std::int64_t i = 0; i < kIters; ++i) {
      analyzer.on_loop_iteration(bench_loop(1));
      const std::uint64_t fresh = ++obj_id;
      analyzer.on_object_created(fresh, 5);
      for (std::size_t e = 0; e < kFresh; ++e) batch[e].id = fresh;
      analyzer.on_memory_batch(batch.data(), batch.size());
    }
    analyzer.on_loop_exit(bench_loop(1));
    benchmark::DoNotOptimize(analyzer.warnings().size());
  }
  state.SetItemsProcessed(state.iterations() * kIters * 11);
}
BENCHMARK(BM_DependencePropWrites);

// Characterization cost against nesting depth: all eight loops of the nest
// open, private writes to an activation created at full depth plus shared
// writes to a pre-nest env — the per-level diff the stamp representation
// must make cheap.
void BM_CharacterizeDepth(benchmark::State& state) {
  const js::Program& program = dependence_bench_program();
  const js::Atom local = program->atoms.intern("q");
  const js::Atom shared = program->atoms.intern("acc");
  const int depth = int(state.range(0));
  const std::int64_t kIters = 256;
  std::vector<interp::MemoryEvent> batch(4, {MemKind::VarWrite, 5, 0, local, {}});
  batch.push_back({MemKind::VarWrite, 9, 1, shared, {}});
  for (auto _ : state) {
    ceres::DependenceAnalyzer analyzer(program);
    analyzer.on_env_created(1);
    for (int l = 1; l <= depth; ++l) {
      analyzer.on_loop_enter(bench_loop(l));
      analyzer.on_loop_iteration(bench_loop(l));
    }
    for (std::int64_t i = 0; i < kIters; ++i) {
      analyzer.on_loop_iteration(bench_loop(depth));
      const std::uint64_t activation = 100 + std::uint64_t(i);
      analyzer.on_env_created(activation);
      for (int w = 0; w < 4; ++w) batch[w].id = activation;
      analyzer.on_memory_batch(batch.data(), batch.size());
    }
    for (int l = depth; l >= 1; --l) analyzer.on_loop_exit(bench_loop(l));
    benchmark::DoNotOptimize(analyzer.warnings().size());
  }
  state.SetItemsProcessed(state.iterations() * kIters * 5);
}
BENCHMARK(BM_CharacterizeDepth)->Arg(2)->Arg(8);

// End-to-end mode-3 run of a reduction-shaped program: what a user pays for
// dependence analysis including the interpreter's event emission.
void BM_DependenceEndToEnd(benchmark::State& state) {
  const js::Program program = js::parse(
      "var acc = {sum: 0};\n"
      "var data = [];\n"
      "for (var i0 = 0; i0 < 64; i0++) { data.push(i0); }\n"
      "function stepSum(i) { var v = data[i] * 2; acc.sum = acc.sum + v; return v; }\n"
      "for (var r = 0; r < 40; r++) {\n"
      "  for (var i = 0; i < data.length; i++) { stepSum(i); }\n"
      "}\n");
  for (auto _ : state) {
    VirtualClock clock;
    ceres::DependenceAnalyzer analyzer(program);
    interp::Interpreter interp(program, clock, &analyzer);
    interp.run();
    benchmark::DoNotOptimize(analyzer.warnings().size());
  }
  state.SetItemsProcessed(state.iterations() * 40 * 64);
}
BENCHMARK(BM_DependenceEndToEnd);

// Same program, but with the analyzer behind a one-member HookList, as
// e2e_layers' bare mode-3 run attaches it. Session hands a lone hook to the
// interpreter directly; this row prices the memory_event_sink() bypass.
void BM_DependenceEndToEndHooked(benchmark::State& state) {
  const js::Program program = js::parse(
      "var acc = {sum: 0};\n"
      "var data = [];\n"
      "for (var i0 = 0; i0 < 64; i0++) { data.push(i0); }\n"
      "function stepSum(i) { var v = data[i] * 2; acc.sum = acc.sum + v; return v; }\n"
      "for (var r = 0; r < 40; r++) {\n"
      "  for (var i = 0; i < data.length; i++) { stepSum(i); }\n"
      "}\n");
  for (auto _ : state) {
    VirtualClock clock;
    ceres::DependenceAnalyzer analyzer(program);
    interp::HookList hooks;
    hooks.add(&analyzer);
    interp::Interpreter interp(program, clock, &hooks);
    interp.run();
    benchmark::DoNotOptimize(analyzer.warnings().size());
  }
  state.SetItemsProcessed(state.iterations() * 40 * 64);
}
BENCHMARK(BM_DependenceEndToEndHooked);

// Dispatch latency: what a parallel_for of a near-empty body costs end to
// end. This is the number the work-stealing runtime targets — for small
// kernels the old mutex-queue pool spends its time on std::function heap
// allocation, one locked queue push per chunk, and a cv round trip before
// any work runs.
void BM_ParallelForDispatch(benchmark::State& state) {
  rivertrail::ThreadPool pool(4);
  const std::int64_t n = state.range(0);
  std::atomic<std::int64_t> sink{0};
  // Warm up the workers so thread start-up is not measured.
  rivertrail::parallel_for(pool, 0, 1 << 12,
                           [&](std::int64_t lo, std::int64_t) { benchmark::DoNotOptimize(lo); });
  for (auto _ : state) {
    rivertrail::parallel_for(pool, 0, n, [&](std::int64_t lo, std::int64_t hi) {
      sink.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(64)->Arg(4096);

namespace divergent {

// Raytrace-shaped iteration cost: a few cheap iterations, then a heavy tail
// clustered at one end of the range (mirrors the raytracer's reflective rows
// all sitting in the same image band). Static equal chunking hands the whole
// heavy band to one worker.
double spin_work(std::int64_t i) {
  const std::int64_t reps = (i < 3584) ? 4 : 1200;  // heavy tail: last 512 of 4096
  double acc = 0.017 * double(i);
  for (std::int64_t r = 0; r < reps; ++r) acc = acc * 1.0000001 + 0.5;
  return acc;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace divergent

// Divergent-cost load balance. Each body(lo, hi) call is an indivisible
// span bound to one worker; the largest span's share of total busy time
// lower-bounds the makespan on ANY machine (a worker stuck with a span
// holding 95% of the work caps speedup at ~1x no matter the core count).
// Reported as `worst_span_share` — 1/chunks is ideal for uniform cost; the
// splitter balances divergent cost iff the share stays small when the cost
// is skewed. Host-independent, so the metric is meaningful even on the
// single-core CI container where wall-clock speedup cannot show.
void BM_ParallelForDivergent(benchmark::State& state) {
  rivertrail::ThreadPool pool(4);
  const std::int64_t n = 4096;
  std::vector<double> out(static_cast<std::size_t>(n));
  std::mutex span_mutex;
  double share_sum = 0;
  for (auto _ : state) {
    double total_busy = 0;
    double worst_span = 0;
    rivertrail::parallel_for(
        pool, 0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          const double t0 = divergent::thread_cpu_seconds();
          for (std::int64_t i = lo; i < hi; ++i) {
            out[std::size_t(i)] = divergent::spin_work(i);
          }
          const double dt = divergent::thread_cpu_seconds() - t0;
          const std::lock_guard lock(span_mutex);
          total_busy += dt;
          worst_span = std::max(worst_span, dt);
        });
    benchmark::DoNotOptimize(out.data());
    share_sum += total_busy > 0 ? worst_span / total_busy : 0;
  }
  state.counters["worst_span_share"] = share_sum / double(state.iterations());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForDivergent);

void BM_ParallelFor(benchmark::State& state) {
  rivertrail::ThreadPool pool;
  std::vector<double> data(1 << state.range(0));
  for (auto _ : state) {
    rivertrail::parallel_for(pool, 0, std::int64_t(data.size()),
                             [&](std::int64_t lo, std::int64_t hi) {
                               for (std::int64_t i = lo; i < hi; ++i) {
                                 data[std::size_t(i)] = double(i) * 1.5;
                               }
                             });
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(data.size()));
}
BENCHMARK(BM_ParallelFor)->Arg(12)->Arg(16)->Arg(20);

// ---------------------------------------------------------------------------
// Task-graph / pipeline set (BENCH_pipeline_baseline.json): the scheduling
// cost of the frame-graph primitives, isolated from stage bodies.
// ---------------------------------------------------------------------------

// End-to-end cost of pushing n near-empty tokens through a 3-stage
// serial-in / parallel / serial-out pipeline: per-token turnstile locks,
// task spawns and the retire/spawn chain — the frame-graph dispatch price.
void BM_PipelineDispatch(benchmark::State& state) {
  rivertrail::ThreadPool pool(4);
  const std::size_t n = std::size_t(state.range(0));
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    rivertrail::parallel_pipeline(
        pool, n, 4,
        rivertrail::serial_stage([&](std::size_t t) { sink.fetch_add(std::int64_t(t), std::memory_order_relaxed); }),
        rivertrail::parallel_stage([&](std::size_t) { sink.fetch_add(1, std::memory_order_relaxed); }),
        rivertrail::serial_stage([&](std::size_t) { sink.fetch_add(1, std::memory_order_relaxed); }));
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_PipelineDispatch)->Arg(16)->Arg(256);

// Pipeline with frame-shaped stage costs (upload ~ kernel): measures that
// token hand-off keeps up when stages do real work. Wall-clock here is
// roughly the serialized sum on the 1-core container; the overlap metric
// lives in bench_fig5_pipeline's makespan lower bound.
void BM_PipelineFrameShaped(benchmark::State& state) {
  rivertrail::ThreadPool pool(2);
  constexpr std::size_t kTokens = 32;
  std::atomic<std::int64_t> sink{0};
  // volatile accumulator: the stage cost must not fold away, or this
  // degenerates into a second dispatch benchmark.
  const auto spin = [](std::int64_t units) {
    volatile double acc = 1.0;
    for (std::int64_t u = 0; u < units; ++u) acc = acc * 1.0000001 + 1e-9;
    return std::int64_t(acc);
  };
  for (auto _ : state) {
    rivertrail::parallel_pipeline(
        pool, kTokens, 2,
        rivertrail::serial_stage([&](std::size_t) { sink.fetch_add(spin(2000), std::memory_order_relaxed); }),
        rivertrail::parallel_stage([&](std::size_t) { sink.fetch_add(spin(1600), std::memory_order_relaxed); }),
        rivertrail::serial_stage([&](std::size_t) { sink.fetch_add(spin(200), std::memory_order_relaxed); }));
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * kTokens);
}
BENCHMARK(BM_PipelineFrameShaped);

void BM_NBodyStepPar(benchmark::State& state) {
  rivertrail::ThreadPool pool;
  auto bodies = rivertrail::kernels::make_bodies(int(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rivertrail::kernels::nbody_step_par(pool, bodies, 0.01));
  }
}
BENCHMARK(BM_NBodyStepPar)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
