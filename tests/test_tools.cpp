// Tests for the SS5.3 tooling extensions: the imperative-to-functional
// refactoring tool and the speculative-parallelization abort advisor.
#include <gtest/gtest.h>

#include "ceres/abort_advisor.h"
#include "ceres/dependence_analyzer.h"
#include "interp/interpreter.h"
#include "js/ast_printer.h"
#include "js/loop_scanner.h"
#include "js/parser.h"
#include "js/refactor.h"

namespace jsceres {
namespace {

using interp::Interpreter;

// ---------------------------------------------------------------------------
// Refactoring tool
// ---------------------------------------------------------------------------

std::string run_console(const std::string& source) {
  VirtualClock clock;
  Interpreter interp(js::parse(source), clock);
  interp.run();
  return interp.console_output();
}

TEST(Refactor, RewritesCanonicalLoop) {
  js::Program program = js::parse(
      "var data = [1, 2, 3, 4];\n"
      "var total = 0;\n"
      "for (var i = 0; i < data.length; i++) { total += data[i]; }\n"
      "console.log(total);\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.candidates, 1);
  EXPECT_EQ(report.rewritten, 1);
  EXPECT_NE(report.source.find("data.forEach(function (elem, i)"),
            std::string::npos)
      << report.source;
  // Reads of data[i] became elem.
  EXPECT_NE(report.source.find("total += elem"), std::string::npos) << report.source;
}

TEST(Refactor, RewrittenProgramBehavesIdentically) {
  const std::string source =
      "var data = [];\n"
      "for (var s = 0; s < 20; s++) { data.push(s * 3 % 7); }\n"
      "var total = 0;\n"
      "for (var i = 0; i < data.length; i++) { total += data[i] * data[i]; }\n"
      "console.log(total);\n";
  js::Program program = js::parse(source);
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_GE(report.rewritten, 1);
  EXPECT_EQ(run_console(source), run_console(report.source));
}

TEST(Refactor, PrivatizesBodyVars) {
  // The paper's Fig. 6 effect: `var p` becomes callback-local.
  js::Program program = js::parse(
      "var bodies = [{v: 1}, {v: 2}];\n"
      "for (var i = 0; i < bodies.length; i++) { var p = bodies[i]; p.v += 1; }\n");
  const js::RefactorReport report = js::to_functional(program);
  ASSERT_EQ(report.rewritten, 1);
  // After the rewrite, `p` is a local of the callback; the dependence
  // analyzer no longer flags it.
  js::Program rewritten = js::parse(report.source);
  ceres::DependenceAnalyzer analyzer(rewritten);
  VirtualClock clock;
  Interpreter interp(rewritten, clock, &analyzer);
  interp.run();
  for (const auto& warning : analyzer.warnings()) {
    EXPECT_FALSE(warning.kind == ceres::AccessKind::VarWrite && warning.name == "p")
        << warning.render(rewritten);
  }
}

TEST(Refactor, SkipsLoopsWithBreak) {
  js::Program program = js::parse(
      "var data = [1, 2, 3];\n"
      "for (var i = 0; i < data.length; i++) { if (data[i] === 2) { break; } }\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.candidates, 1);
  EXPECT_EQ(report.rewritten, 0);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("break/continue/return"), std::string::npos);
}

TEST(Refactor, SkipsNonCanonicalShapes) {
  // Starts at 1; steps by 2; compares against a scalar — none are canonical.
  js::Program program = js::parse(
      "var a = [1, 2, 3];\n"
      "var n = 3;\n"
      "for (var i = 1; i < a.length; i++) { }\n"
      "for (var j = 0; j < a.length; j += 2) { }\n"
      "for (var k = 0; k < n; k++) { }\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.rewritten, 0);
}

TEST(Refactor, SkipsWhenBodyWritesIndex) {
  js::Program program = js::parse(
      "var a = [1, 2, 3];\n"
      "for (var i = 0; i < a.length; i++) { if (a[i] < 0) { i = a.length; } }\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.candidates, 1);
  EXPECT_EQ(report.rewritten, 0);
}

TEST(Refactor, SkipsWhenBodyVarEscapes) {
  js::Program program = js::parse(
      "var a = [1, 2, 3];\n"
      "var last;\n"
      "for (var i = 0; i < a.length; i++) { var last = a[i]; }\n"
      "console.log(last);\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.rewritten, 0);
}

TEST(Refactor, RewritesNestedLoopsInsideFunctions) {
  js::Program program = js::parse(
      "function sum(values) {\n"
      "  var total = 0;\n"
      "  for (var i = 0; i < values.length; i++) { total += values[i]; }\n"
      "  return total;\n"
      "}\n"
      "console.log(sum([4, 5, 6]));\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.rewritten, 1);
  EXPECT_EQ(run_console(report.source), "15\n");
}

TEST(Refactor, CensusConfirmsStyleShift) {
  js::Program program = js::parse(
      "var a = [1, 2];\n"
      "for (var i = 0; i < a.length; i++) { a[i] = a[i] * 2; }\n"
      "for (var j = 0; j < a.length; j++) { console.log(a[j]); }\n");
  const js::RefactorReport report = js::to_functional(program);
  EXPECT_EQ(report.rewritten, 2);
  const js::Program rewritten = js::parse(report.source);
  const js::StyleCensus census = js::census(rewritten);
  EXPECT_EQ(census.imperative_loops(), 0);
  EXPECT_EQ(census.functional_op_calls, 2);
}

// ---------------------------------------------------------------------------
// Abort advisor
// ---------------------------------------------------------------------------

struct AdvisedRun {
  explicit AdvisedRun(const std::string& source)
      : program(js::parse(source)), analyzer(program), loops(clock) {
    interp::HookList hooks;
    hooks.add(&analyzer);
    hooks.add(&loops);
    Interpreter interp(program, clock, &hooks);
    interp.run();
  }
  js::Program program;
  VirtualClock clock;
  ceres::DependenceAnalyzer analyzer;
  ceres::LoopProfiler loops;
};

TEST(AbortAdvisor, ReductionLoopWouldAbortWithRemedy) {
  AdvisedRun run(
      "var acc = {sum: 0};\n"
      "var data = [1, 2, 3, 4];\n"
      "for (var i = 0; i < data.length; i++) { acc.sum = acc.sum + data[i]; }\n");
  const auto report = ceres::advise(run.program, run.analyzer, 1, &run.loops);
  EXPECT_TRUE(report.would_abort);
  bool has_flow_reason = false;
  for (const auto& reason : report.reasons) {
    if (reason.what.find("read-after-write") != std::string::npos) {
      has_flow_reason = true;
      EXPECT_NE(reason.remedy.find("reduction"), std::string::npos);
    }
  }
  EXPECT_TRUE(has_flow_reason) << report.render(run.program);
}

TEST(AbortAdvisor, DisjointWritesDoNotAbort) {
  AdvisedRun run(
      "var input = [1, 2, 3, 4];\n"
      "var out = [];\n"
      "out.length = 4;\n"
      "for (var i = 0; i < input.length; i++) { out[i] = input[i] * 2; }\n");
  const auto report = ceres::advise(run.program, run.analyzer, 1, &run.loops);
  EXPECT_FALSE(report.would_abort) << report.render(run.program);
}

TEST(AbortAdvisor, SharedGlobalSuggestsPrivatization) {
  AdvisedRun run(
      "var latest = 0;\n"
      "var data = [5, 6, 7];\n"
      "for (var i = 0; i < data.length; i++) { latest = data[i]; }\n");
  const auto report = ceres::advise(run.program, run.analyzer, 1, &run.loops);
  EXPECT_TRUE(report.would_abort);
  bool suggests_privatization = false;
  for (const auto& reason : report.reasons) {
    if (reason.remedy.find("privatize") != std::string::npos) {
      suggests_privatization = true;
    }
  }
  EXPECT_TRUE(suggests_privatization) << report.render(run.program);
}

TEST(AbortAdvisor, VarScopingGetsExtractionRemedy) {
  AdvisedRun run(
      "var bodies = [{x: 1}, {x: 2}];\n"
      "function step() {\n"
      "  for (var i = 0; i < bodies.length; i++) { var p = bodies[i]; p.x += 1; }\n"
      "}\n"
      "step();\n");
  const auto report = ceres::advise(run.program, run.analyzer, 1, &run.loops);
  bool extraction = false;
  for (const auto& reason : report.reasons) {
    if (reason.what.find("var scoping") != std::string::npos) {
      extraction = true;
      EXPECT_NE(reason.remedy.find("private binding"), std::string::npos);
    }
  }
  EXPECT_TRUE(extraction) << report.render(run.program);
}

TEST(AbortAdvisor, OuterCarriedDependencesDoNotBlameInnerLoop) {
  // Double-buffered solver: the k-loop carries the dependence; the row loop
  // (id 2) is clean.
  AdvisedRun run(
      "var a = [0, 0, 0, 0];\n"
      "var b = [1, 1, 1, 1];\n"
      "for (var k = 0; k < 4; k++) {\n"
      "  for (var j = 0; j < 4; j++) { b[j] = a[j] + 1; }\n"
      "  var t = a; a = b; b = t;\n"
      "}\n");
  const auto inner = ceres::advise(run.program, run.analyzer, 2, &run.loops);
  for (const auto& reason : inner.reasons) {
    EXPECT_EQ(reason.what.find("read-after-write"), std::string::npos)
        << inner.render(run.program);
  }
}

TEST(AbortAdvisor, RenderMentionsLoopAndVerdict) {
  AdvisedRun run(
      "var acc = {n: 0};\n"
      "var d = [1, 2];\n"
      "for (var i = 0; i < d.length; i++) { acc.n = acc.n + d[i]; }\n");
  const auto report = ceres::advise(run.program, run.analyzer, 1, &run.loops);
  const std::string text = report.render(run.program);
  EXPECT_NE(text.find("for at line 3"), std::string::npos) << text;
  EXPECT_NE(text.find("WOULD ABORT"), std::string::npos);
}

}  // namespace
}  // namespace jsceres
