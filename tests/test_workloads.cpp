#include <gtest/gtest.h>

#include "analysis/classifier.h"
#include "analysis/nest.h"
#include "js/loop_scanner.h"
#include "workloads/runner.h"

namespace jsceres::workloads {
namespace {

TEST(Workloads, TwelveRegistered) {
  EXPECT_EQ(all_workloads().size(), 12u);
}

TEST(Workloads, NamesMatchTable1) {
  const char* expected[] = {
      "HAAR.js",  "Tear-able Cloth", "CamanJS",        "fluidSim",
      "Harmony",  "Ace",             "MyScript",       "Realtime Raytracing",
      "Normal Mapping", "sigma.js",  "processing.js",  "D3.js"};
  const auto& workloads = all_workloads();
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].name, expected[i]);
    EXPECT_FALSE(workloads[i].url.empty());
    EXPECT_FALSE(workloads[i].category.empty());
  }
}

TEST(Workloads, LookupByName) {
  EXPECT_EQ(workload_by_name("Ace").name, "Ace");
  EXPECT_THROW(workload_by_name("nonexistent"), std::out_of_range);
}

TEST(Workloads, MarkerLinesResolve) {
  for (const auto& w : all_workloads()) {
    for (const auto& marker : w.nest_markers) {
      EXPECT_GT(line_of_marker(w.source, marker), 0)
          << w.name << ": marker not found: " << marker;
    }
  }
}

TEST(Workloads, LineOfMarkerCountsNewlines) {
  EXPECT_EQ(line_of_marker("a\nb\nneedle here\n", "needle"), 3);
  EXPECT_EQ(line_of_marker("no such thing", "needle"), 0);
}

/// Every workload must parse, run to completion under every instrumentation
/// mode, and produce deterministic virtual clocks. This is the heaviest
/// suite; it exercises engine + DOM + event loop + all three modes per app.
class WorkloadRun : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadRun, LightweightModeCompletes) {
  const Workload& w = workload_by_name(GetParam());
  auto run = run_workload(w, Mode::Lightweight);
  const auto row = run.table2_row();
  EXPECT_GT(row.total_s, 0);
  EXPECT_GT(row.active_s, 0);
  EXPECT_GT(row.in_loops_s, 0);
  EXPECT_LE(row.active_s, row.total_s + 1e-9);
  EXPECT_LE(row.in_loops_s, row.total_s + 1e-9);
  EXPECT_EQ(run.lightweight->open_loops(), 0);  // balanced enter/exit
}

TEST_P(WorkloadRun, RunsAreDeterministic) {
  const Workload& w = workload_by_name(GetParam());
  auto a = run_workload(w, Mode::Lightweight);
  auto b = run_workload(w, Mode::Lightweight);
  EXPECT_EQ(a.clock.wall_ns(), b.clock.wall_ns());
  EXPECT_EQ(a.clock.cpu_ns(), b.clock.cpu_ns());
  EXPECT_EQ(a.lightweight->in_loops_ns(), b.lightweight->in_loops_ns());
}

TEST_P(WorkloadRun, LoopProfileFindsReportedNests) {
  const Workload& w = workload_by_name(GetParam());
  auto run = run_workload(w, Mode::LoopProfile);
  ASSERT_EQ(run.nest_roots.size(), w.nest_markers.size());
  const auto nests = analysis::build_nests(*run.loops, run.nest_roots);
  ASSERT_EQ(nests.size(), w.nest_markers.size()) << w.name;
  for (const auto& nest : nests) {
    EXPECT_GT(nest.instances, 0) << w.name;
    EXPECT_GT(nest.trips_mean, 0) << w.name;
    EXPECT_GT(nest.runtime_ns, 0) << w.name;
  }
}

TEST_P(WorkloadRun, DependenceModeCompletes) {
  const Workload& w = workload_by_name(GetParam());
  auto run = run_workload(w, Mode::Dependence);
  // Every app has at least one shared-memory access inside loops (paper:
  // "all loops at least read global memory").
  EXPECT_FALSE(run.dependence->summaries().empty()) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, WorkloadRun,
                         ::testing::Values("HAAR.js", "Tear-able Cloth", "CamanJS",
                                           "fluidSim", "Harmony", "Ace", "MyScript",
                                           "Realtime Raytracing", "Normal Mapping",
                                           "sigma.js", "processing.js", "D3.js"));

// ---------------------------------------------------------------------------
// Table 2 / Table 3 shape assertions (the paper's qualitative findings)
// ---------------------------------------------------------------------------

TEST(Shape, EventDrivenAppsAreMostlyIdle) {
  // Harmony, Ace, MyScript: Total >> Active (Table 2's right column shape).
  for (const char* name : {"Harmony", "Ace", "MyScript"}) {
    auto run = run_workload(workload_by_name(name), Mode::Lightweight);
    const auto row = run.table2_row();
    EXPECT_GT(row.total_s / row.active_s, 5.0) << name;
  }
}

TEST(Shape, ComputeAppsAreMostlyActive) {
  for (const char* name : {"fluidSim", "Normal Mapping", "Realtime Raytracing"}) {
    auto run = run_workload(workload_by_name(name), Mode::Lightweight);
    const auto row = run.table2_row();
    EXPECT_GT(row.active_s / row.total_s, 0.5) << name;
  }
}

TEST(Shape, RaytracingLoopsExceedActive) {
  // The paper's anomaly: blocking/suspension inside loops makes wall-clock
  // loop time exceed sampled CPU-active time.
  auto run = run_workload(workload_by_name("Realtime Raytracing"), Mode::Lightweight);
  const auto row = run.table2_row();
  EXPECT_GT(row.in_loops_s, row.active_s);
}

TEST(Shape, HarmonyNestsTouchCanvasEveryIteration) {
  auto run = run_workload(workload_by_name("Harmony"), Mode::LoopProfile);
  const auto nests = analysis::build_nests(*run.loops, run.nest_roots);
  for (const auto& nest : nests) {
    EXPECT_TRUE(nest.touches_canvas);
    EXPECT_GE(nest.dom_touches_per_iteration, 0.5);
  }
}

TEST(Shape, RaytracerRowNestIsCanvasFree) {
  auto run = run_workload(workload_by_name("Realtime Raytracing"), Mode::LoopProfile);
  const auto nests = analysis::build_nests(*run.loops, run.nest_roots);
  ASSERT_EQ(nests.size(), 1u);
  EXPECT_FALSE(nests[0].touches_dom);
  EXPECT_FALSE(nests[0].touches_canvas);
}

TEST(Shape, AceLoopsRunRoughlyOneIteration) {
  auto run = run_workload(workload_by_name("Ace"), Mode::LoopProfile);
  const auto nests = analysis::build_nests(*run.loops, run.nest_roots);
  for (const auto& nest : nests) {
    EXPECT_GE(nest.trips_mean, 1.0);
    EXPECT_LT(nest.trips_mean, 1.5);
  }
}

TEST(Shape, FluidSolverNestDominates) {
  auto run = run_workload(workload_by_name("fluidSim"), Mode::LoopProfile);
  const auto nests = analysis::build_nests(*run.loops, run.nest_roots);
  ASSERT_EQ(nests.size(), 1u);
  EXPECT_GT(nests[0].share_of_loop_time, 0.7);
}

TEST(Shape, NoPolymorphicVariablesInHotLoops) {
  // Paper SS4.2: "our manual inspection did not reveal any polymorphic
  // variables within the computationally-intensive loops". Mechanical proxy:
  // every workload runs to completion without a single TypeError, and the
  // style census confirms purely imperative hot code.
  for (const auto& w : all_workloads()) {
    const js::Program program = js::parse(w.source, w.name);
    const js::StyleCensus census = js::census(program);
    EXPECT_GT(census.imperative_loops(), 0) << w.name;
    EXPECT_EQ(census.functional_op_calls, 0) << w.name;
  }
}

}  // namespace
}  // namespace jsceres::workloads
