// Property-based tests: randomized sweeps over the core invariants of the
// characterization algebra, the statistics, the printer round-trip, and the
// engine's numeric semantics.
#include <gtest/gtest.h>

#include <numeric>

#include "ceres/char_stack.h"
#include "interp/interpreter.h"
#include "js/ast_printer.h"
#include "js/parser.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/welford.h"

namespace jsceres {
namespace {

// ---------------------------------------------------------------------------
// Characterization algebra invariants
// ---------------------------------------------------------------------------

ceres::Stamp random_stamp(Rng& rng, std::size_t max_depth) {
  ceres::Stamp stamp;
  const std::size_t depth = rng.next_below(max_depth + 1);
  for (std::size_t k = 0; k < depth; ++k) {
    stamp.push_back(ceres::LoopFrame{int(k) + 1,
                                     std::int64_t(rng.next_below(3)),
                                     std::int64_t(rng.next_below(4))});
  }
  return stamp;
}

/// Extend `prefix` into a plausible "later" stack (same loops, same or later
/// iterations, possibly deeper).
ceres::Stamp extend_stamp(Rng& rng, const ceres::Stamp& prefix, std::size_t max_depth) {
  ceres::Stamp out = prefix;
  for (auto& frame : out) {
    frame.iteration += std::int64_t(rng.next_below(3));
  }
  while (out.size() < max_depth && rng.next_below(2) == 0) {
    out.push_back(ceres::LoopFrame{int(out.size()) + 1,
                                   std::int64_t(rng.next_below(3)),
                                   std::int64_t(rng.next_below(4))});
  }
  return out;
}

class CharacterizationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CharacterizationProperty, IdenticalStacksAreNeverProblematic) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const ceres::Stamp stamp = random_stamp(rng, 4);
    EXPECT_FALSE(ceres::characterize_creation(stamp, stamp).problematic());
    EXPECT_FALSE(ceres::characterize_flow(stamp, stamp).problematic());
  }
}

TEST_P(CharacterizationProperty, LevelCountMatchesCurrentStack) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const ceres::Stamp stamp = random_stamp(rng, 4);
    const ceres::Stamp current = extend_stamp(rng, stamp, 5);
    const auto chr = ceres::characterize_creation(stamp, current);
    EXPECT_EQ(chr.levels.size(), current.size());
    for (std::size_t k = 0; k < current.size(); ++k) {
      EXPECT_EQ(chr.levels[k].loop_id, current[k].loop_id);
    }
  }
}

TEST_P(CharacterizationProperty, NoDependenceOkCombination) {
  // The paper: "dependence ok is not a valid characterization" — sharing
  // across instances implies sharing across iterations.
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const ceres::Stamp a = random_stamp(rng, 5);
    const ceres::Stamp b = random_stamp(rng, 5);
    for (const auto& chr :
         {ceres::characterize_creation(a, b), ceres::characterize_flow(a, b)}) {
      for (const auto& level : chr.levels) {
        EXPECT_FALSE(level.instance_dep && !level.iteration_dep);
      }
    }
  }
}

TEST_P(CharacterizationProperty, FlagsAreMonotoneInDepth) {
  // Once a level is fully shared (instance dep), all deeper levels are too.
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const ceres::Stamp a = random_stamp(rng, 5);
    const ceres::Stamp b = random_stamp(rng, 5);
    const auto chr = ceres::characterize_creation(a, b);
    bool shared = false;
    for (const auto& level : chr.levels) {
      if (shared) {
        EXPECT_TRUE(level.instance_dep && level.iteration_dep);
      }
      shared |= level.instance_dep;
    }
  }
}

TEST_P(CharacterizationProperty, FlowNeverFlagsWritesFromClosedLoops) {
  // A write whose stack diverges at some instance is in the past: no level
  // below the divergence may be flagged.
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    ceres::Stamp read = random_stamp(rng, 4);
    if (read.empty()) continue;
    ceres::Stamp write = read;
    const std::size_t divergence = rng.next_below(write.size());
    write[divergence].instance += 1;  // a different (closed) instance
    for (std::size_t k = divergence; k < write.size(); ++k) {
      // flow below the divergence point must not be flagged
    }
    const auto chr = ceres::characterize_flow(write, read);
    for (std::size_t k = divergence; k < chr.levels.size(); ++k) {
      EXPECT_FALSE(chr.levels[k].iteration_dep);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CharacterizationProperty,
                         ::testing::Values(1, 17, 8675309));

// ---------------------------------------------------------------------------
// Welford == naive statistics
// ---------------------------------------------------------------------------

class WelfordProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WelfordProperty, MatchesNaiveComputation) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.next_below(500);
    std::vector<double> xs(n);
    Welford w;
    for (auto& x : xs) {
      x = rng.next_double() * 1000 - 500;
      w.add(x);
    }
    const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / double(n);
    double var = 0;
    for (const double x : xs) var += (x - mean) * (x - mean);
    var /= double(n);
    EXPECT_NEAR(w.mean(), mean, 1e-8);
    EXPECT_NEAR(w.variance(), var, 1e-6);
  }
}

TEST_P(WelfordProperty, MergeIsAssociativeEnough) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    Welford whole;
    Welford left;
    Welford right;
    const std::size_t n = 10 + rng.next_below(200);
    const std::size_t split = rng.next_below(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.next_double() * 10;
      whole.add(x);
      (i < split ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelfordProperty, ::testing::Values(3, 99, 123456));

// ---------------------------------------------------------------------------
// Printer round-trip: parse(print(parse(src))) is structurally stable
// ---------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, PrintedSourceReparsesIdentically) {
  const js::Program first = js::parse(GetParam());
  const std::string printed = js::print(first);
  const js::Program second = js::parse(printed);
  // Same loop structure...
  ASSERT_EQ(second->loop_count(), first->loop_count());
  for (int id = 1; id <= first->loop_count(); ++id) {
    EXPECT_EQ(int(second->loop(id).kind), int(first->loop(id).kind));
  }
  // ...and printing again is a fixed point.
  EXPECT_EQ(js::print(second), printed);
}

TEST_P(RoundTrip, PrintedSourceBehavesIdentically) {
  VirtualClock c1;
  interp::Interpreter i1(js::parse(GetParam()), c1);
  i1.run();

  VirtualClock c2;
  interp::Interpreter i2(js::parse(js::print(js::parse(GetParam()))), c2);
  i2.run();

  EXPECT_EQ(i1.console_output(), i2.console_output());
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        "var x = 1 + 2 * 3; console.log(x);",
        "for (var i = 0; i < 5; i++) { console.log(i % 2 ? 'odd' : 'even'); }",
        "var o = {a: [1, 2], b: 'txt'}; for (var k in o) { console.log(k, o[k]); }",
        "function f(a, b) { return a > b ? a - b : b - a; } console.log(f(3, 9));",
        "var n = 0; while (n < 4) { n += 1; if (n === 2) { continue; } console.log(n); }",
        "var s = 0; do { s = (s << 1) | 1; } while (s < 20); console.log(s, ~s, -s);",
        "try { throw {message: 'x'}; } catch (e) { console.log(e.message); } finally { console.log('f'); }",
        "var fns = []; [1, 2, 3].forEach(function (v) { fns.push(function () { return v * v; }); }); console.log(fns[2]());",
        "var a = [5, 3, 1]; a.sort(function (x, y) { return x - y; }); console.log(a.join('-'), a.length, delete a[0], typeof a);",
        "function Point(x) { this.x = x; } Point.prototype.d = function () { return this.x * 2; }; console.log(new Point(21).d());"));

// ---------------------------------------------------------------------------
// Engine numeric semantics vs C++ doubles
// ---------------------------------------------------------------------------

class NumericProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumericProperty, ArithmeticMatchesHostDoubles) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const double a = rng.next_double() * 2000 - 1000;
    const double b = rng.next_double() * 20 - 10;
    const std::string source = "var result = (" + str::fixed(a, 6) + " * " +
                               str::fixed(b, 6) + ") + (" + str::fixed(a, 6) +
                               " - " + str::fixed(b, 6) + ") / 3;";
    VirtualClock clock;
    interp::Interpreter interp(js::parse(source), clock);
    interp.run();
    const double av = std::strtod(str::fixed(a, 6).c_str(), nullptr);
    const double bv = std::strtod(str::fixed(b, 6).c_str(), nullptr);
    EXPECT_DOUBLE_EQ(interp.global("result").as_number(), av * bv + (av - bv) / 3);
  }
}

TEST_P(NumericProperty, BitwiseMatchesInt32Semantics) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto a = std::int32_t(rng.next_u64());
    const auto b = std::int32_t(rng.next_u64());
    const std::string source = "var result = (" + std::to_string(a) + " ^ " +
                               std::to_string(b) + ") | (" + std::to_string(a) +
                               " & " + std::to_string(b) + ");";
    VirtualClock clock;
    interp::Interpreter interp(js::parse(source), clock);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.global("result").as_number(), double((a ^ b) | (a & b)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericProperty, ::testing::Values(5, 11));

}  // namespace
}  // namespace jsceres
