#include <gtest/gtest.h>

#include "analysis/classifier.h"
#include "analysis/nest.h"
#include "interp/interpreter.h"
#include "js/parser.h"

namespace jsceres::analysis {
namespace {

using interp::Interpreter;

// ---------------------------------------------------------------------------
// Nest construction
// ---------------------------------------------------------------------------

struct ProfiledRun {
  explicit ProfiledRun(const std::string& source) : loops(clock) {
    Interpreter interp(js::parse(source), clock, &loops);
    interp.run();
  }
  VirtualClock clock;
  ceres::LoopProfiler loops;
};

TEST(Nest, SyntacticNestingFormsOneNest) {
  ProfiledRun run(
      "for (var i = 0; i < 3; i++) {\n"
      "  for (var j = 0; j < 4; j++) { }\n"
      "}\n");
  const auto nests = build_nests(run.loops);
  ASSERT_EQ(nests.size(), 1u);
  EXPECT_EQ(nests[0].root_loop_id, 1);
  EXPECT_EQ(nests[0].members.size(), 2u);
  EXPECT_EQ(nests[0].instances, 1);
  EXPECT_DOUBLE_EQ(nests[0].trips_mean, 3.0);
}

TEST(Nest, CallNestingFollowsRuntime) {
  ProfiledRun run(
      "function inner() { for (var j = 0; j < 2; j++) { } }\n"
      "for (var i = 0; i < 3; i++) { inner(); }\n");
  const auto nests = build_nests(run.loops);
  ASSERT_EQ(nests.size(), 1u);
  // Loop 2 is the top-level for; loop 1 (inner's) nests under it at runtime.
  EXPECT_EQ(nests[0].root_loop_id, 2);
  EXPECT_EQ(nests[0].members.size(), 2u);
}

TEST(Nest, SiblingLoopsAreSeparateNests) {
  ProfiledRun run(
      "for (var i = 0; i < 300; i++) { }\n"
      "for (var j = 0; j < 100; j++) { }\n");
  const auto nests = build_nests(run.loops);
  ASSERT_EQ(nests.size(), 2u);
  // Sorted by runtime: the 300-trip loop first.
  EXPECT_EQ(nests[0].root_loop_id, 1);
  EXPECT_GT(nests[0].share_of_loop_time, nests[1].share_of_loop_time);
}

TEST(Nest, ReportRootsOverrideTopLevel) {
  ProfiledRun run(
      "for (var i = 0; i < 3; i++) {\n"
      "  for (var j = 0; j < 4; j++) { }\n"
      "}\n");
  const auto nests = build_nests(run.loops, {2});
  ASSERT_EQ(nests.size(), 1u);
  EXPECT_EQ(nests[0].root_loop_id, 2);
  EXPECT_EQ(nests[0].instances, 3);
  EXPECT_DOUBLE_EQ(nests[0].trips_mean, 4.0);
}

TEST(Nest, SharesSumToAtMostOne) {
  ProfiledRun run(
      "for (var i = 0; i < 50; i++) { }\n"
      "for (var j = 0; j < 50; j++) { }\n"
      "for (var k = 0; k < 50; k++) { }\n");
  const auto nests = build_nests(run.loops);
  double total = 0;
  for (const auto& nest : nests) total += nest.share_of_loop_time;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.95);
}

TEST(Nest, TopNestsCoverage) {
  ProfiledRun run(
      "for (var i = 0; i < 800; i++) { }\n"
      "for (var j = 0; j < 150; j++) { }\n"
      "for (var k = 0; k < 50; k++) { }\n");
  const auto nests = build_nests(run.loops);
  const auto top = top_nests(nests, 2.0 / 3.0);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].root_loop_id, 1);
  EXPECT_LT(top.size(), nests.size());
}

// ---------------------------------------------------------------------------
// Classifier rules (Table 3 rubric)
// ---------------------------------------------------------------------------

NestEvidence base_evidence() {
  NestEvidence e;
  e.trips_mean = 100;
  e.trips_cv = 0.1;
  e.branch_sites = 0;
  return e;
}

TEST(Classifier, BranchFreeIsNoDivergence) {
  EXPECT_EQ(classify_divergence(base_evidence()), Divergence::None);
}

TEST(Classifier, LocalBranchesAreLittle) {
  auto e = base_evidence();
  e.branch_sites = 3;
  EXPECT_EQ(classify_divergence(e), Divergence::Little);
}

TEST(Classifier, RecursionDiverges) {
  auto e = base_evidence();
  e.recursion_detected = true;
  EXPECT_EQ(classify_divergence(e), Divergence::Yes);
}

TEST(Classifier, DegenerateTripsDiverge) {
  auto e = base_evidence();
  e.trips_mean = 1.1;  // Ace-style
  EXPECT_EQ(classify_divergence(e), Divergence::Yes);
}

TEST(Classifier, SmallDataDependentTripsDiverge) {
  auto e = base_evidence();
  e.trips_mean = 4;  // MyScript-style
  e.condition_data_dependent = true;
  EXPECT_EQ(classify_divergence(e), Divergence::Yes);
}

TEST(Classifier, HighTripVarianceDiverges) {
  auto e = base_evidence();
  e.branch_sites = 2;
  e.trips_cv = 2.0;
  EXPECT_EQ(classify_divergence(e), Divergence::Yes);
}

TEST(Classifier, PureLoopIsVeryEasy) {
  EXPECT_EQ(classify_dependences(base_evidence()), Difficulty::VeryEasy);
}

TEST(Classifier, DisjointWritesAreVeryEasy) {
  auto e = base_evidence();
  e.prop_write_sites = 4;  // out[i] = f(in[i])
  EXPECT_EQ(classify_dependences(e), Difficulty::VeryEasy);
}

TEST(Classifier, SharedScalarsAreEasy) {
  auto e = base_evidence();
  e.var_write_sites = 1;  // a global accumulator cache
  EXPECT_EQ(classify_dependences(e), Difficulty::Easy);
}

TEST(Classifier, ConflictingWritesAreEasy) {
  auto e = base_evidence();
  e.prop_write_sites = 1;
  e.conflicting_write_sites = 5;  // same field each iteration, write-only
  EXPECT_EQ(classify_dependences(e), Difficulty::Easy);
}

TEST(Classifier, FewFlowSitesAreMedium) {
  auto e = base_evidence();
  e.flow_sites = 3;  // reduction / stencil-like
  EXPECT_EQ(classify_dependences(e), Difficulty::Medium);
}

TEST(Classifier, ManyFlowSitesAreHardThenVeryHard) {
  auto e = base_evidence();
  e.flow_sites = 6;
  EXPECT_EQ(classify_dependences(e), Difficulty::Hard);
  e.flow_sites = 9;
  EXPECT_EQ(classify_dependences(e), Difficulty::VeryHard);
}

TEST(Classifier, HeavyDomAccessIsAlwaysVeryHard) {
  auto e = base_evidence();
  e.touches_dom = true;
  e.dom_touches_per_iteration = 2.0;  // Harmony: drawing IS the work
  EXPECT_EQ(classify_parallelization(e), Difficulty::VeryHard);
}

TEST(Classifier, LightDomAccessBumpsEasyNests) {
  auto e = base_evidence();
  e.var_write_sites = 1;  // easy deps
  e.touches_dom = true;
  e.dom_touches_per_iteration = 0.05;
  EXPECT_EQ(classify_parallelization(e), Difficulty::Medium);
}

TEST(Classifier, HardDepsAreNotBumpedFurther) {
  // D3: hard dependences + DOM + divergence stays "hard" — the dependences
  // are the binding constraint.
  auto e = base_evidence();
  e.flow_sites = 6;
  e.touches_dom = true;
  e.dom_touches_per_iteration = 0.05;
  e.recursion_detected = true;
  EXPECT_EQ(classify_parallelization(e), Difficulty::Hard);
}

TEST(Classifier, DivergenceBumpsEasyNests) {
  // Raytracing: very easy deps + recursion -> easy overall.
  auto e = base_evidence();
  e.prop_write_sites = 1;
  e.recursion_detected = true;
  EXPECT_EQ(classify_parallelization(e), Difficulty::Easy);
}

TEST(Classifier, TinyTripsBumpGranularity) {
  // processing.js rows: easy deps, ~4 trips -> medium.
  auto e = base_evidence();
  e.var_write_sites = 1;
  e.trips_mean = 4;
  EXPECT_EQ(classify_parallelization(e), Difficulty::Medium);
}

TEST(Classifier, BumpSaturatesAtVeryHard) {
  EXPECT_EQ(bump(Difficulty::VeryHard), Difficulty::VeryHard);
  EXPECT_EQ(bump(Difficulty::Hard, 5), Difficulty::VeryHard);
}

TEST(Classifier, LabelsAreStable) {
  EXPECT_STREQ(difficulty_label(Difficulty::VeryEasy), "very easy");
  EXPECT_STREQ(difficulty_label(Difficulty::VeryHard), "very hard");
  EXPECT_STREQ(divergence_label(Divergence::Little), "little");
}

// ---------------------------------------------------------------------------
// Amdahl bounds
// ---------------------------------------------------------------------------

TEST(Amdahl, AsymptoticBound) {
  EXPECT_DOUBLE_EQ(amdahl_bound(0.5), 2.0);
  EXPECT_DOUBLE_EQ(amdahl_bound(0.75), 4.0);
  EXPECT_DOUBLE_EQ(amdahl_bound(0.0), 1.0);
  EXPECT_TRUE(std::isinf(amdahl_bound(1.0)));
}

TEST(Amdahl, FiniteCores) {
  EXPECT_DOUBLE_EQ(amdahl_bound(1.0, 4), 4.0);
  EXPECT_NEAR(amdahl_bound(0.9, 4), 3.077, 1e-3);
  EXPECT_DOUBLE_EQ(amdahl_bound(0.0, 16), 1.0);
}

TEST(Amdahl, ClampsFraction) {
  EXPECT_DOUBLE_EQ(amdahl_bound(-0.5, 4), 1.0);
  EXPECT_DOUBLE_EQ(amdahl_bound(1.5, 4), 4.0);
}

/// Property sweep: the bound grows monotonically with both the parallel
/// fraction and the core count, and never exceeds the asymptote.
class AmdahlSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmdahlSweep, MonotoneAndBounded) {
  const int cores = GetParam();
  double last = 0;
  for (int pct = 0; pct <= 100; pct += 5) {
    const double p = pct / 100.0;
    const double bound = amdahl_bound(p, cores);
    EXPECT_GE(bound, last);
    EXPECT_LE(bound, double(cores) + 1e-9);
    EXPECT_LE(bound, amdahl_bound(p, 0) + 1e-9);
    last = bound;
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, AmdahlSweep, ::testing::Values(2, 4, 8, 64));

}  // namespace
}  // namespace jsceres::analysis
