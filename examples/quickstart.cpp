// Quickstart: run a JavaScript program on the engine with JS-CERES
// instrumentation mode 1 (lightweight profiling) and mode 2 (loop
// profiling) attached, then print where the time went.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the public API:
//   parse -> attach hooks -> Interpreter -> inspect profiles.
#include <cstdio>

#include "ceres/lightweight_profiler.h"
#include "ceres/loop_profiler.h"
#include "interp/interpreter.h"
#include "js/parser.h"

using namespace jsceres;

int main() {
  const char* source = R"JS(
// A tiny image-sharpening kernel, written the way the paper's case-study
// apps write hot code: imperative loops over a flat pixel array.
var W = 64;
var H = 64;
var pixels = [];
for (var i = 0; i < W * H; i++) {
  pixels.push((i * 31) % 256);
}

function sharpen(amount) {
  var out = [];
  for (var y = 1; y < H - 1; y++) {
    for (var x = 1; x < W - 1; x++) {
      var p = y * W + x;
      var v = pixels[p] * (1 + 4 * amount) -
              (pixels[p - 1] + pixels[p + 1] + pixels[p - W] + pixels[p + W]) * amount;
      out[p] = v < 0 ? 0 : (v > 255 ? 255 : v);
    }
  }
  return out;
}

var sharpened = sharpen(0.3);
console.log('first pixels:', sharpened[65], sharpened[66], sharpened[67]);
)JS";

  // 1. Parse. The parser assigns every syntactic loop a stable id.
  const js::Program program = js::parse(source, "quickstart.js");
  std::printf("parsed %d syntactic loop(s)\n", program->loop_count());

  // 2. Attach instrumentation (modes compose through a HookList).
  VirtualClock clock;
  ceres::LightweightProfiler lightweight(clock);
  ceres::LoopProfiler loops(clock);
  interp::HookList hooks;
  hooks.add(&lightweight);
  hooks.add(&loops);

  // 3. Run.
  interp::Interpreter interp(program, clock, &hooks);
  interp.run();
  std::printf("%s", interp.console_output().c_str());

  // 4. Inspect.
  std::printf("\ntotal virtual time: %.3f s, in loops: %.3f s (%.0f%%)\n",
              clock.wall_seconds(), lightweight.in_loops_seconds(),
              100.0 * lightweight.in_loops_seconds() / clock.wall_seconds());
  for (const auto& [loop_id, stats] : loops.stats()) {
    const js::LoopSite& site = program->loop(loop_id);
    std::printf("  %-8s line %-3d  instances=%-4lld trips=%6.1f±%-6.1f total=%.3fs\n",
                js::loop_kind_name(site.kind), site.line,
                static_cast<long long>(stats.instances), stats.trips.mean(),
                stats.trips.stddev(), stats.runtime_ns.total() / 1e9);
  }
  return 0;
}
