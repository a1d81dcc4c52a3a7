// Differential tests for the hash-consed stamp-tree hot path: the id-based
// characterization (CharStack::characterize_*_id + materialize) must agree
// with the reference vector algebra (characterize_creation/flow) on every
// reachable input, and the analyzer built on it must produce byte-identical
// results to the vector-based semantics.
#include <gtest/gtest.h>

#include <vector>

#include "ceres/char_stack.h"
#include "ceres/dependence_analyzer.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "support/rng.h"

namespace jsceres::ceres {
namespace {

/// Replay a random (but well-formed) loop-event schedule on one CharStack,
/// taking both vector snapshots and interned ids at random points, and check
/// the id-based characterization against the reference algebra at every
/// subsequent state.
class StampTreeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StampTreeDifferential, CreationAndFlowMatchVectorAlgebra) {
  Rng rng(GetParam());
  CharStack stack;
  std::vector<int> open;                 // loop ids, innermost last
  std::vector<Stamp> stamp_vecs;         // reference snapshots
  std::vector<StampId> stamp_ids;        // interned snapshots
  int checked = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = rng.next_u64() % 10;
    if (action < 3 || open.empty()) {
      // Enter a loop; small id space so recursion (re-entry of an open
      // loop id through "calls") happens regularly.
      const int loop_id = 1 + int(rng.next_u64() % 5);
      stack.on_enter(loop_id);
      open.push_back(loop_id);
    } else if (action < 6) {
      stack.on_iteration(open.back());
    } else if (action < 8) {
      stack.on_exit(open.back());
      open.pop_back();
    } else {
      // Take a snapshot in both representations.
      stamp_vecs.push_back(stack.current());
      stamp_ids.push_back(stack.current_id());
    }
    // Check a rotating subset of the snapshots against the current state.
    for (std::size_t s = step % 7; s < stamp_vecs.size(); s += 7) {
      const Characterization creation_ref =
          characterize_creation(stamp_vecs[s], stack.current());
      const Characterization creation_id =
          stack.materialize(stack.characterize_creation_id(stamp_ids[s]));
      ASSERT_EQ(creation_ref, creation_id) << "creation diverged at step " << step;
      const Characterization flow_ref =
          characterize_flow(stamp_vecs[s], stack.current());
      const Characterization flow_id =
          stack.materialize(stack.characterize_flow_id(stamp_ids[s]));
      ASSERT_EQ(flow_ref, flow_id) << "flow diverged at step " << step;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);  // the schedule actually exercised comparisons
}

INSTANTIATE_TEST_SUITE_P(Seeds, StampTreeDifferential,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654321u));

// ---------------------------------------------------------------------------
// Stamp-tree growth
// ---------------------------------------------------------------------------

TEST(StampTree, UnreferencedStatesAreNeverMaterialized) {
  CharStack stack;
  stack.on_enter(1);
  for (int i = 0; i < 10000; ++i) stack.on_iteration(1);
  stack.on_exit(1);
  // No stamp was ever taken: the tree holds only the root.
  EXPECT_EQ(stack.node_count(), 1u);
}

TEST(StampTree, NodesGrowWithReferencedStatesOnly) {
  CharStack stack;
  stack.on_enter(1);
  for (int i = 0; i < 1000; ++i) {
    stack.on_iteration(1);
    if (i % 100 == 0) stack.current_id();
  }
  stack.on_exit(1);
  // 10 referenced iteration states (single-frame paths) + root.
  EXPECT_EQ(stack.node_count(), 11u);
}

TEST(StampTree, RepeatedStampsOfOneStateShareOneNode) {
  CharStack stack;
  stack.on_enter(3);
  stack.on_iteration(3);
  const StampId first = stack.current_id();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(stack.current_id(), first);
  EXPECT_EQ(stack.node_count(), 2u);  // root + the one referenced state
}

TEST(StampTree, GrowthUnderRecursionIsLinearInReferencedStates) {
  // Recursive loop re-entry (the §3.3 recursion guard case): every entry is
  // a fresh instance, but the tree still only materializes referenced
  // states — one node per stamped frame, sharing the common prefix.
  CharStack stack;
  stack.on_enter(1);
  stack.on_iteration(1);
  stack.current_id();
  for (int depth = 0; depth < 64; ++depth) {
    stack.on_enter(1);  // recursion: loop 1 re-entered while open
    stack.on_iteration(1);
    stack.current_id();
  }
  EXPECT_TRUE(stack.is_recursive(1));
  // root + 65 stamped frames (one per open depth), not 65 full stack copies.
  EXPECT_EQ(stack.node_count(), 66u);
  for (int depth = 0; depth < 65; ++depth) stack.on_exit(1);
  EXPECT_FALSE(stack.any_open());
}

// ---------------------------------------------------------------------------
// End-to-end differential: analyzer results on real programs
// ---------------------------------------------------------------------------

/// Reference reimplementation of the analyzer's per-warning data using the
/// *vector* algebra, driven from the same run: rendering every recorded
/// warning must round-trip through the reference characterization.
TEST(DependenceDifferential, RecordedCharacterizationsMatchReferenceShape) {
  const char* source = R"JS(
var grid = [];
for (var i0 = 0; i0 < 8; i0++) { grid.push({v: i0, acc: 0}); }
var total = 0;
function relax(rounds) {
  for (var r = 0; r < rounds; r++) {
    for (var i = 0; i < grid.length; i++) {
      var cell = grid[i];
      cell.acc = cell.acc + cell.v;
      total = total + cell.acc;
    }
  }
}
relax(5);
relax(3);
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  interp::Interpreter interp(program, clock, &analyzer);
  interp.run();
  ASSERT_FALSE(analyzer.warnings().empty());
  for (const auto& warning : analyzer.warnings()) {
    // The compact-delta theorem: flags are "ok ok" down to the outermost
    // divergent level, then iteration-shared, then fully shared. Verify
    // every materialized characterization has exactly that shape.
    bool seen_dep = false;
    for (const LevelFlags& level : warning.characterization.levels) {
      EXPECT_FALSE(level.instance_dep && !level.iteration_dep)
          << "dependence-ok is not a valid combination: " << warning.render(program);
      if (seen_dep) {
        // Every level below the outermost divergent one is fully shared.
        EXPECT_TRUE(level.instance_dep && level.iteration_dep)
            << warning.render(program);
      }
      if (level.instance_dep || level.iteration_dep) seen_dep = true;
    }
    EXPECT_TRUE(seen_dep) << "recorded warning must be problematic: "
                          << warning.render(program);
  }
}

/// Computed property keys are interned on first use: the same runtime string
/// reached through different expressions must dedup into one warning site,
/// and re-interning must not grow the atom table.
TEST(DependenceDifferential, InternedComputedKeysDedup) {
  const char* source = R"JS(
var o = {n: 0};
var keys = ['n', 'n'];
for (var i = 0; i < 40; i++) {
  o[keys[i % 2]] = o[keys[(i + 1) % 2]] + 1;
}
)JS";
  js::Program program = js::parse(source);
  DependenceAnalyzer analyzer(program);
  VirtualClock clock;
  interp::Interpreter interp(program, clock, &analyzer);
  const std::size_t atoms_before_run = program->atoms.size();
  interp.run();
  // 'n' was already interned by the lexer (object literal + string
  // literals); computed access must reuse it, growing the program's atom
  // space by at most the handful of array-index keys ("0", "1") the loop
  // touches.
  EXPECT_LE(program->atoms.size(), atoms_before_run + 2);

  std::int64_t write_sites = 0;
  for (const auto& w : analyzer.warnings()) {
    if (w.kind == AccessKind::PropWrite && w.name == "n") {
      ++write_sites;
      EXPECT_GT(w.count, 1) << "computed-key occurrences must dedup";
    }
  }
  EXPECT_EQ(write_sites, 1);
}

}  // namespace
}  // namespace jsceres::ceres
