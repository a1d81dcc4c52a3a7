#include "js/loop_scanner.h"

namespace jsceres::js {

namespace {

/// Depth-first AST walker feeding both the census and the per-loop scanner.
class Scanner {
 public:
  explicit Scanner(const Program& program) : program_(program) {}

  void run() {
    for (const auto& stmt : program_->statements) walk_stmt(*stmt);
  }

  StyleCensus census;
  std::map<int, LoopStaticInfo> loops;

 private:
  void enter_loop(int loop_id) {
    LoopStaticInfo& info = loops[loop_id];
    info.loop_id = loop_id;
    for (const int open : loop_stack_) ++loops[open].nested_loops;
    loop_stack_.push_back(loop_id);
  }
  void exit_loop() { loop_stack_.pop_back(); }

  void note_branch() {
    for (const int open : loop_stack_) ++loops[open].branch_sites;
  }
  void note_call() {
    for (const int open : loop_stack_) ++loops[open].call_sites;
  }
  void note_statement() {
    for (const int open : loop_stack_) ++loops[open].body_statements;
  }

  void walk_stmt(const Stmt& stmt) {
    note_statement();
    switch (stmt.kind) {
      case NodeKind::Block:
        for (const auto& s : static_cast<const Block&>(stmt).statements) walk_stmt(*s);
        break;
      case NodeKind::VarDecl:
        for (const auto& d : static_cast<const VarDecl&>(stmt).declarators) {
          if (d.init) walk_expr(*d.init);
        }
        break;
      case NodeKind::FunctionDecl:
        ++census.function_decls;
        walk_stmt(*static_cast<const FunctionDecl&>(stmt).fn->body);
        break;
      case NodeKind::ExprStmt:
        walk_expr(*static_cast<const ExprStmt&>(stmt).expr);
        break;
      case NodeKind::If: {
        const auto& node = static_cast<const If&>(stmt);
        note_branch();
        walk_expr(*node.condition);
        walk_stmt(*node.consequent);
        if (node.alternate) walk_stmt(*node.alternate);
        break;
      }
      case NodeKind::For: {
        const auto& node = static_cast<const For&>(stmt);
        ++census.for_loops;
        if (node.init) walk_stmt(*node.init);
        enter_loop(node.loop_id);
        // A classic counted loop has the shape `i <comparison> <bound>`;
        // anything else counts as a data-dependent trip count.
        if (node.condition) {
          loops[node.loop_id].condition_data_dependent =
              node.condition->kind != NodeKind::Binary;
          walk_expr(*node.condition);
        } else {
          loops[node.loop_id].condition_data_dependent = true;
        }
        if (node.update) walk_expr(*node.update);
        walk_stmt(*node.body);
        exit_loop();
        break;
      }
      case NodeKind::ForIn: {
        const auto& node = static_cast<const ForIn&>(stmt);
        ++census.for_in_loops;
        walk_expr(*node.object);
        enter_loop(node.loop_id);
        walk_stmt(*node.body);
        exit_loop();
        break;
      }
      case NodeKind::While: {
        const auto& node = static_cast<const While&>(stmt);
        ++census.while_loops;
        enter_loop(node.loop_id);
        loops[node.loop_id].condition_data_dependent = true;
        walk_expr(*node.condition);
        walk_stmt(*node.body);
        exit_loop();
        break;
      }
      case NodeKind::DoWhile: {
        const auto& node = static_cast<const DoWhile&>(stmt);
        ++census.do_while_loops;
        enter_loop(node.loop_id);
        loops[node.loop_id].condition_data_dependent = true;
        walk_stmt(*node.body);
        walk_expr(*node.condition);
        exit_loop();
        break;
      }
      case NodeKind::Return: {
        const auto& node = static_cast<const Return&>(stmt);
        if (node.value) walk_expr(*node.value);
        break;
      }
      case NodeKind::Throw:
        walk_expr(*static_cast<const Throw&>(stmt).value);
        break;
      case NodeKind::TryCatch: {
        const auto& node = static_cast<const TryCatch&>(stmt);
        walk_stmt(*node.try_block);
        if (node.catch_block) walk_stmt(*node.catch_block);
        if (node.finally_block) walk_stmt(*node.finally_block);
        break;
      }
      default:
        break;
    }
  }

  void walk_expr(const Expr& expr) {
    switch (expr.kind) {
      case NodeKind::ArrayLit:
        for (const auto& e : static_cast<const ArrayLit&>(expr).elements) walk_expr(*e);
        break;
      case NodeKind::ObjectLit:
        for (const auto& [key, value] : static_cast<const ObjectLit&>(expr).properties) {
          (void)key;
          walk_expr(*value);
        }
        break;
      case NodeKind::FunctionExpr:
        walk_stmt(*static_cast<const FunctionExpr&>(expr).fn->body);
        break;
      case NodeKind::Call: {
        const auto& node = static_cast<const Call&>(expr);
        note_call();
        if (node.callee->kind == NodeKind::Member) {
          const auto& member = static_cast<const Member&>(*node.callee);
          if (!member.computed && is_functional_operator(member.property)) {
            ++census.functional_op_calls;
          }
        }
        walk_expr(*node.callee);
        for (const auto& a : node.args) walk_expr(*a);
        break;
      }
      case NodeKind::New: {
        const auto& node = static_cast<const New&>(expr);
        note_call();
        walk_expr(*node.callee);
        for (const auto& a : node.args) walk_expr(*a);
        break;
      }
      case NodeKind::Member: {
        const auto& node = static_cast<const Member&>(expr);
        walk_expr(*node.object);
        if (node.computed) walk_expr(*node.index);
        break;
      }
      case NodeKind::Assign: {
        const auto& node = static_cast<const Assign&>(expr);
        walk_expr(*node.target);
        walk_expr(*node.value);
        break;
      }
      case NodeKind::Conditional: {
        const auto& node = static_cast<const Conditional&>(expr);
        note_branch();
        walk_expr(*node.condition);
        walk_expr(*node.consequent);
        walk_expr(*node.alternate);
        break;
      }
      case NodeKind::Binary: {
        const auto& node = static_cast<const Binary&>(expr);
        walk_expr(*node.lhs);
        walk_expr(*node.rhs);
        break;
      }
      case NodeKind::Logical: {
        const auto& node = static_cast<const Logical&>(expr);
        note_branch();
        walk_expr(*node.lhs);
        walk_expr(*node.rhs);
        break;
      }
      case NodeKind::Unary:
        walk_expr(*static_cast<const Unary&>(expr).operand);
        break;
      case NodeKind::Update:
        walk_expr(*static_cast<const Update&>(expr).target);
        break;
      case NodeKind::Sequence:
        for (const auto& e : static_cast<const Sequence&>(expr).exprs) walk_expr(*e);
        break;
      default:
        break;
    }
  }

  const Program& program_;
  std::vector<int> loop_stack_;
};

}  // namespace

bool is_functional_operator(const std::string& name) {
  return name == "map" || name == "forEach" || name == "filter" ||
         name == "reduce" || name == "every" || name == "some";
}

StyleCensus census(const Program& program) {
  Scanner scanner(program);
  scanner.run();
  return scanner.census;
}

std::map<int, LoopStaticInfo> scan_loops(const Program& program) {
  Scanner scanner(program);
  scanner.run();
  // Make sure every registered loop has an entry even if its body is empty.
  for (const auto& site : program->loops) {
    auto& info = scanner.loops[site.loop_id];
    info.loop_id = site.loop_id;
  }
  return scanner.loops;
}

}  // namespace jsceres::js
