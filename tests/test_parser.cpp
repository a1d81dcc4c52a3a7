#include <gtest/gtest.h>

#include "js/loop_scanner.h"
#include "js/parser.h"

namespace jsceres::js {
namespace {

TEST(Parser, EmptyProgram) {
  const Program p = parse("");
  EXPECT_TRUE(p->statements.empty());
  EXPECT_EQ(p->loop_count(), 0);
}

TEST(Parser, VarDeclarationsHoistToTopLevel) {
  const Program p = parse("var a = 1; var b, c = 2;");
  ASSERT_EQ(p->hoisted_vars.size(), 3u);
  EXPECT_EQ(p->hoisted_vars[0], "a");
  EXPECT_EQ(p->hoisted_vars[2], "c");
}

TEST(Parser, VarInsideLoopHoistsToFunction) {
  const Program p = parse(
      "function f() {\n"
      "  for (var i = 0; i < 3; i++) { var p = i; }\n"
      "}\n");
  ASSERT_EQ(p->hoisted_functions.size(), 1u);
  const auto& fn = *p->hoisted_functions[0]->fn;
  ASSERT_EQ(fn.hoisted_vars.size(), 2u);
  EXPECT_EQ(fn.hoisted_vars[0], "i");
  EXPECT_EQ(fn.hoisted_vars[1], "p");
}

TEST(Parser, LoopTableRecordsKindAndLine) {
  const Program p = parse(
      "while (true) {\n"
      "  for (var i = 0; i < 3; i++) { }\n"
      "}\n");
  ASSERT_EQ(p->loop_count(), 2);
  EXPECT_EQ(p->loop(1).kind, LoopKind::While);
  EXPECT_EQ(p->loop(1).line, 1);
  EXPECT_EQ(p->loop(2).kind, LoopKind::For);
  EXPECT_EQ(p->loop(2).line, 2);
}

TEST(Parser, LoopIdAtLine) {
  const Program p = parse("var x = 0;\nwhile (x < 2) { x++; }\n");
  EXPECT_EQ(p->loop_id_at_line(2), 1);
  EXPECT_EQ(p->loop_id_at_line(1), 0);
}

TEST(Parser, ForInForms) {
  const Program p = parse("for (var k in obj) { } for (k in obj) { }");
  ASSERT_EQ(p->loop_count(), 2);
  EXPECT_EQ(p->loop(1).kind, LoopKind::ForIn);
  const auto* loop = static_cast<const ForIn*>(p->statements[0]);
  EXPECT_TRUE(loop->declares_var);
  const auto* second = static_cast<const ForIn*>(p->statements[1]);
  EXPECT_FALSE(second->declares_var);
}

TEST(Parser, OperatorPrecedence) {
  const Program p = parse("var x = 1 + 2 * 3;");
  const auto* decl = static_cast<const VarDecl*>(p->statements[0]);
  const auto* add = static_cast<const Binary*>(decl->declarators[0].init);
  ASSERT_EQ(add->op, BinaryOp::Add);
  EXPECT_EQ(add->rhs->kind, NodeKind::Binary);
  EXPECT_EQ(static_cast<const Binary*>(add->rhs)->op, BinaryOp::Mul);
}

TEST(Parser, AssignmentIsRightAssociative) {
  const Program p = parse("a = b = 1;");
  const auto* stmt = static_cast<const ExprStmt*>(p->statements[0]);
  const auto* outer = static_cast<const Assign*>(stmt->expr);
  EXPECT_EQ(outer->value->kind, NodeKind::Assign);
}

TEST(Parser, MemberChainsAndCalls) {
  const Program p = parse("a.b.c(1)[2].d();");
  const auto* stmt = static_cast<const ExprStmt*>(p->statements[0]);
  ASSERT_EQ(stmt->expr->kind, NodeKind::Call);
  const auto* call = static_cast<const Call*>(stmt->expr);
  EXPECT_EQ(call->callee->kind, NodeKind::Member);
}

TEST(Parser, NewWithMemberCallee) {
  const Program p = parse("var v = new lib.Vec(1, 2);");
  const auto* decl = static_cast<const VarDecl*>(p->statements[0]);
  ASSERT_EQ(decl->declarators[0].init->kind, NodeKind::New);
  const auto* node = static_cast<const New*>(decl->declarators[0].init);
  EXPECT_EQ(node->callee->kind, NodeKind::Member);
  EXPECT_EQ(node->args.size(), 2u);
}

TEST(Parser, FunctionExpressionAnonymous) {
  const Program p = parse("var f = function (x) { return x; };");
  const auto* decl = static_cast<const VarDecl*>(p->statements[0]);
  ASSERT_EQ(decl->declarators[0].init->kind, NodeKind::FunctionExpr);
  const auto* fn = static_cast<const FunctionExpr*>(decl->declarators[0].init);
  EXPECT_TRUE(fn->fn->name.empty());
  EXPECT_EQ(fn->fn->params.size(), 1u);
}

TEST(Parser, FunctionIdsAreUnique) {
  const Program p = parse("function a() {} function b() {} var c = function () {};");
  EXPECT_EQ(p->fn_names.size(), 3u);
}

TEST(Parser, ConditionalExpression) {
  const Program p = parse("var x = a ? 1 : 2;");
  const auto* decl = static_cast<const VarDecl*>(p->statements[0]);
  EXPECT_EQ(decl->declarators[0].init->kind, NodeKind::Conditional);
}

TEST(Parser, ObjectAndArrayLiterals) {
  const Program p = parse("var o = {a: 1, 'b c': 2, 3: 4}; var a = [1, [2], {}];");
  const auto* decl = static_cast<const VarDecl*>(p->statements[0]);
  const auto* obj = static_cast<const ObjectLit*>(decl->declarators[0].init);
  ASSERT_EQ(obj->properties.size(), 3u);
  EXPECT_EQ(obj->properties[1].first, "b c");
}

TEST(Parser, KeywordPropertyNames) {
  EXPECT_NO_THROW(parse("var x = a.in;"));
  EXPECT_NO_THROW(parse("var y = {in: 1, for: 2};"));
}

TEST(Parser, MemberNameAfterDotIsAnIdentifierName) {
  for (const char* source : {"var a = {}; a.'x' = 1;", "var a = {}; a.5 = 2;"}) {
    try {
      parse(source);
      ADD_FAILURE() << "accepted: " << source;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "expected property name after '.' (line 1)") << source;
    }
  }
  EXPECT_NO_THROW(parse("a.typeof = a.null + a.instanceof;"));
}

TEST(Parser, TryCatchFinally) {
  const Program p = parse("try { f(); } catch (e) { g(e); } finally { h(); }");
  const auto* node = static_cast<const TryCatch*>(p->statements[0]);
  EXPECT_EQ(node->catch_param, "e");
  EXPECT_NE(node->finally_block, nullptr);
}

TEST(Parser, TryWithoutHandlersThrows) {
  EXPECT_THROW(parse("try { f(); }"), ParseError);
}

TEST(Parser, MissingSemicolonThrows) {
  EXPECT_THROW(parse("var a = 1 var b = 2;"), ParseError);
}

TEST(Parser, InvalidAssignmentTargetThrows) {
  EXPECT_THROW(parse("1 = 2;"), ParseError);
}

TEST(Parser, DeleteRequiresMember) {
  EXPECT_THROW(parse("delete x;"), ParseError);
  EXPECT_NO_THROW(parse("delete x.y;"));
}

// The front end's error text is part of its contract: the hostile suites and
// fuzz_driver compare ParseError messages and lines byte for byte.
TEST(Parser, ErrorTextAndLineArePinned) {
  struct Row {
    std::string source;
    int max_parse_depth;  // 0 = the default cap
    const char* what;
    int line;
  };
  const Row rows[] = {
      {"var x = 1", 0, "expected ';' in variable declaration, found end of input (line 1)", 1},
      {"var a;\nif (a { }", 0, "expected ')' in if condition, found '{' (line 2)", 2},
      {"f(1,\n2;", 0, "expected ')' in call arguments, found ';' (line 2)", 2},
      {"var o = {a 1};", 0, "expected ':' in object literal, found number (line 1)", 1},
      {"var o = {\n;};", 0, "expected property key (line 2)", 2},
      {"for (var i = 0; i < 3 i++) { }", 0,
       "expected ';' in for header, found identifier (line 1)", 1},
      {"var a;\nwhile (a) {\n a++;\n", 0, "unterminated block (line 2)", 2},
      {"var x = " + std::string(20, '(') + "1" + std::string(20, ')') + ";", 8,
       "nesting too deep (limit 8 levels) (line 1)", 1},
      {"var a;\n{ { { {\n{ { { { { { x; } } } } } }\n} } } }", 6,
       "nesting too deep (limit 6 levels) (line 3)", 3},
      {"try {\n} var a;", 0, "try requires catch or finally (line 1)", 1},
      {"var a;\n1 = 2;", 0, "invalid assignment target (line 2)", 2},
      {"delete\nx;", 0, "delete requires a property access (line 1)", 1},
      {"function () { }", 0, "function declaration requires a name (line 1)", 1},
      {"var x = ;", 0, "unexpected token ';' (line 1)", 1},
      {"a.;", 0, "expected property name after '.' (line 1)", 1},
      {"new a.(1);", 0, "expected identifier in member access, found '(' (line 1)", 1},
      {"++1;", 0, "invalid increment/decrement target (line 1)", 1},
      {"var a = b ? c;", 0, "expected ':' in conditional expression, found ';' (line 1)", 1},
      {"do { } while (a)", 0,
       "expected ';' in do-while statement, found end of input (line 1)", 1},
  };
  for (const Row& row : rows) {
    EngineLimits limits;
    if (row.max_parse_depth > 0) limits.max_parse_depth = row.max_parse_depth;
    try {
      parse(row.source, "<t>", limits);
      ADD_FAILURE() << "no ParseError for: " << row.source;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), row.what) << row.source;
      EXPECT_EQ(e.line(), row.line) << row.source;
    }
  }
}

TEST(Parser, EnclosingFunctionRecordedForLoops) {
  const Program p = parse(
      "while (a) { }\n"
      "function f() { while (b) { } }\n");
  EXPECT_EQ(p->loop(1).enclosing_fn_id, 0);
  EXPECT_NE(p->loop(2).enclosing_fn_id, 0);
}

TEST(LoopScanner, CensusCountsLoopsAndOperators) {
  const Program p = parse(
      "for (var i = 0; i < 3; i++) { }\n"
      "while (x) { }\n"
      "arr.map(function (v) { return v; });\n"
      "arr.forEach(cb);\n");
  const StyleCensus c = census(p);
  EXPECT_EQ(c.for_loops, 1);
  EXPECT_EQ(c.while_loops, 1);
  EXPECT_EQ(c.imperative_loops(), 2);
  EXPECT_EQ(c.functional_op_calls, 2);
}

TEST(LoopScanner, BranchAndCallSitesPerLoop) {
  const Program p = parse(
      "for (var i = 0; i < 9; i++) {\n"
      "  if (i > 2) { f(i); } else { g(); }\n"
      "  var t = i > 4 ? 1 : 2;\n"
      "}\n");
  const auto loops = scan_loops(p);
  const auto& info = loops.at(1);
  EXPECT_EQ(info.branch_sites, 2);  // if + ?:
  EXPECT_EQ(info.call_sites, 2);    // f, g
  EXPECT_FALSE(info.condition_data_dependent);
}

TEST(LoopScanner, NestedLoopsCounted) {
  const Program p = parse(
      "for (var i = 0; i < 3; i++) {\n"
      "  for (var j = 0; j < 3; j++) { while (q) { } }\n"
      "}\n");
  const auto loops = scan_loops(p);
  EXPECT_EQ(loops.at(1).nested_loops, 2);
  EXPECT_EQ(loops.at(2).nested_loops, 1);
  EXPECT_EQ(loops.at(3).nested_loops, 0);
  EXPECT_TRUE(loops.at(3).condition_data_dependent);
}

}  // namespace
}  // namespace jsceres::js
