#include "js/refactor.h"

#include <map>
#include <span>

#include "js/ast_printer.h"

namespace jsceres::js {

namespace {

/// Does `stmt` (recursively, not crossing function boundaries) contain a
/// break/continue/return that would escape the loop body?
bool has_escaping_control_flow(const Stmt& stmt) {
  switch (stmt.kind) {
    case NodeKind::Break:
    case NodeKind::Continue:
    case NodeKind::Return:
      return true;
    case NodeKind::Block: {
      for (const auto& s : static_cast<const Block&>(stmt).statements) {
        if (has_escaping_control_flow(*s)) return true;
      }
      return false;
    }
    case NodeKind::If: {
      const auto& node = static_cast<const If&>(stmt);
      if (has_escaping_control_flow(*node.consequent)) return true;
      return node.alternate && has_escaping_control_flow(*node.alternate);
    }
    // break/continue inside a *nested* loop bind to that loop: safe.
    case NodeKind::For:
    case NodeKind::ForIn:
    case NodeKind::While:
    case NodeKind::DoWhile:
      return false;
    case NodeKind::TryCatch: {
      const auto& node = static_cast<const TryCatch&>(stmt);
      if (has_escaping_control_flow(*node.try_block)) return true;
      if (node.catch_block && has_escaping_control_flow(*node.catch_block)) return true;
      return node.finally_block && has_escaping_control_flow(*node.finally_block);
    }
    default:
      return false;
  }
}

using IdentCounts = std::map<std::string, int>;

/// Counts every name a subtree binds or reads: identifiers, `var`
/// declarators, function declarations and for-in variables.
void collect_idents(const Node& node, IdentCounts& out) {
  switch (node.kind) {
    case NodeKind::Ident: ++out[static_cast<const Ident&>(node).name]; break;
    case NodeKind::VarDecl:
      for (const auto& d : static_cast<const VarDecl&>(node).declarators) ++out[d.name];
      break;
    case NodeKind::FunctionDecl: ++out[static_cast<const FunctionDecl&>(node).fn->name]; break;
    case NodeKind::ForIn: ++out[static_cast<const ForIn&>(node).var_name]; break;
    default: break;
  }
  for_each_child(node, [&out](const Node& child) { collect_idents(child, out); });
}

/// Does the body write `name` (assignment or update; declarations excluded)?
bool writes_variable(const Stmt& stmt, const std::string& name);

bool expr_writes_variable(const Expr& expr, const std::string& name) {
  switch (expr.kind) {
    case NodeKind::Assign: {
      const auto& node = static_cast<const Assign&>(expr);
      if (node.target->kind == NodeKind::Ident &&
          static_cast<const Ident&>(*node.target).name == name) {
        return true;
      }
      return expr_writes_variable(*node.value, name) ||
             expr_writes_variable(*node.target, name);
    }
    case NodeKind::Update: {
      const auto& node = static_cast<const Update&>(expr);
      return node.target->kind == NodeKind::Ident &&
             static_cast<const Ident&>(*node.target).name == name;
    }
    case NodeKind::Call: {
      const auto& node = static_cast<const Call&>(expr);
      if (expr_writes_variable(*node.callee, name)) return true;
      for (const auto& a : node.args) {
        if (expr_writes_variable(*a, name)) return true;
      }
      return false;
    }
    case NodeKind::Binary: {
      const auto& node = static_cast<const Binary&>(expr);
      return expr_writes_variable(*node.lhs, name) ||
             expr_writes_variable(*node.rhs, name);
    }
    case NodeKind::Logical: {
      const auto& node = static_cast<const Logical&>(expr);
      return expr_writes_variable(*node.lhs, name) ||
             expr_writes_variable(*node.rhs, name);
    }
    case NodeKind::Conditional: {
      const auto& node = static_cast<const Conditional&>(expr);
      return expr_writes_variable(*node.condition, name) ||
             expr_writes_variable(*node.consequent, name) ||
             expr_writes_variable(*node.alternate, name);
    }
    case NodeKind::Member: {
      const auto& node = static_cast<const Member&>(expr);
      if (expr_writes_variable(*node.object, name)) return true;
      return node.computed && expr_writes_variable(*node.index, name);
    }
    case NodeKind::Sequence: {
      for (const auto& e : static_cast<const Sequence&>(expr).exprs) {
        if (expr_writes_variable(*e, name)) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

bool writes_variable(const Stmt& stmt, const std::string& name) {
  switch (stmt.kind) {
    case NodeKind::Block:
      for (const auto& s : static_cast<const Block&>(stmt).statements) {
        if (writes_variable(*s, name)) return true;
      }
      return false;
    case NodeKind::ExprStmt:
      return expr_writes_variable(*static_cast<const ExprStmt&>(stmt).expr, name);
    case NodeKind::If: {
      const auto& node = static_cast<const If&>(stmt);
      if (expr_writes_variable(*node.condition, name)) return true;
      if (writes_variable(*node.consequent, name)) return true;
      return node.alternate && writes_variable(*node.alternate, name);
    }
    case NodeKind::VarDecl:
      for (const auto& d : static_cast<const VarDecl&>(stmt).declarators) {
        if (d.init && expr_writes_variable(*d.init, name)) return true;
      }
      return false;
    case NodeKind::For: {
      const auto& node = static_cast<const For&>(stmt);
      if (node.init && writes_variable(*node.init, name)) return true;
      if (node.condition && expr_writes_variable(*node.condition, name)) return true;
      if (node.update && expr_writes_variable(*node.update, name)) return true;
      return writes_variable(*node.body, name);
    }
    case NodeKind::While:
      return writes_variable(*static_cast<const While&>(stmt).body, name);
    default:
      return false;
  }
}

/// Collect `var` names declared directly in the body (not inside nested
/// functions) — the variables the rewrite will privatize.
void collect_body_vars(const Stmt& stmt, std::vector<Atom>& out) {
  switch (stmt.kind) {
    case NodeKind::Block:
      for (const auto& s : static_cast<const Block&>(stmt).statements) {
        collect_body_vars(*s, out);
      }
      break;
    case NodeKind::VarDecl:
      for (const auto& d : static_cast<const VarDecl&>(stmt).declarators) {
        out.push_back(d.name);
      }
      break;
    case NodeKind::If: {
      const auto& node = static_cast<const If&>(stmt);
      collect_body_vars(*node.consequent, out);
      if (node.alternate) collect_body_vars(*node.alternate, out);
      break;
    }
    case NodeKind::For: {
      const auto& node = static_cast<const For&>(stmt);
      if (node.init) collect_body_vars(*node.init, out);
      collect_body_vars(*node.body, out);
      break;
    }
    case NodeKind::ForIn: {
      const auto& node = static_cast<const ForIn&>(stmt);
      if (node.declares_var) out.push_back(node.var_name);
      collect_body_vars(*node.body, out);
      break;
    }
    case NodeKind::While:
      collect_body_vars(*static_cast<const While&>(stmt).body, out);
      break;
    case NodeKind::DoWhile:
      collect_body_vars(*static_cast<const DoWhile&>(stmt).body, out);
      break;
    default:
      break;
  }
}

/// The canonical-loop pattern match.
struct Candidate {
  std::string index_name;
  std::string array_name;
};

bool match_canonical(const For& loop, Candidate* out) {
  // init: `var i = 0` or `i = 0`
  std::string index;
  if (loop.init == nullptr) return false;
  if (loop.init->kind == NodeKind::VarDecl) {
    const auto& decl = static_cast<const VarDecl&>(*loop.init);
    if (decl.declarators.size() != 1 || !decl.declarators[0].init) return false;
    if (decl.declarators[0].init->kind != NodeKind::NumberLit) return false;
    if (static_cast<const NumberLit&>(*decl.declarators[0].init).value != 0) return false;
    index = decl.declarators[0].name;
  } else if (loop.init->kind == NodeKind::ExprStmt) {
    const auto& expr = *static_cast<const ExprStmt&>(*loop.init).expr;
    if (expr.kind != NodeKind::Assign) return false;
    const auto& assign = static_cast<const Assign&>(expr);
    if (assign.op != AssignOp::None || assign.target->kind != NodeKind::Ident) return false;
    if (assign.value->kind != NodeKind::NumberLit ||
        static_cast<const NumberLit&>(*assign.value).value != 0) {
      return false;
    }
    index = static_cast<const Ident&>(*assign.target).name;
  } else {
    return false;
  }

  // condition: `i < arr.length`
  if (!loop.condition || loop.condition->kind != NodeKind::Binary) return false;
  const auto& cond = static_cast<const Binary&>(*loop.condition);
  if (cond.op != BinaryOp::Lt) return false;
  if (cond.lhs->kind != NodeKind::Ident ||
      static_cast<const Ident&>(*cond.lhs).name != index) {
    return false;
  }
  if (cond.rhs->kind != NodeKind::Member) return false;
  const auto& len = static_cast<const Member&>(*cond.rhs);
  if (len.computed || len.property != "length") return false;
  if (len.object->kind != NodeKind::Ident) return false;
  const std::string array = static_cast<const Ident&>(*len.object).name;

  // update: `i++`, `++i`, `i += 1` or `i = i + 1`
  if (!loop.update) return false;
  bool inc_ok = false;
  if (loop.update->kind == NodeKind::Update) {
    const auto& update = static_cast<const Update&>(*loop.update);
    inc_ok = update.increment && update.target->kind == NodeKind::Ident &&
             static_cast<const Ident&>(*update.target).name == index;
  } else if (loop.update->kind == NodeKind::Assign) {
    const auto& assign = static_cast<const Assign&>(*loop.update);
    if (assign.target->kind == NodeKind::Ident &&
        static_cast<const Ident&>(*assign.target).name == index) {
      if (assign.op == AssignOp::Add && assign.value->kind == NodeKind::NumberLit &&
          static_cast<const NumberLit&>(*assign.value).value == 1) {
        inc_ok = true;
      }
      if (assign.op == AssignOp::None && assign.value->kind == NodeKind::Binary) {
        const auto& sum = static_cast<const Binary&>(*assign.value);
        inc_ok = sum.op == BinaryOp::Add && sum.lhs->kind == NodeKind::Ident &&
                 static_cast<const Ident&>(*sum.lhs).name == index &&
                 sum.rhs->kind == NodeKind::NumberLit &&
                 static_cast<const NumberLit&>(*sum.rhs).value == 1;
      }
    }
  }
  if (!inc_ok) return false;

  out->index_name = index;
  out->array_name = array;
  return true;
}

/// Replacing reads of `arr[i]` by `elem`, with fresh Ident nodes from the
/// program's arena.
struct Substitution {
  const Candidate& loop;
  Atom elem;
  ProgramBody& program;
};

/// Replace reads of `arr[i]` by `elem` inside an expression tree.
void substitute_element_expr(ExprPtr& expr, const Substitution& sub);

bool is_element_access(const Expr& expr, const Candidate& c) {
  if (expr.kind != NodeKind::Member) return false;
  const auto& member = static_cast<const Member&>(expr);
  if (!member.computed) return false;
  if (member.object->kind != NodeKind::Ident ||
      static_cast<const Ident&>(*member.object).name != c.array_name) {
    return false;
  }
  return member.index->kind == NodeKind::Ident &&
         static_cast<const Ident&>(*member.index).name == c.index_name;
}

void substitute_element_stmt(Stmt& stmt, const Substitution& sub) {
  switch (stmt.kind) {
    case NodeKind::Block:
      for (auto& s : static_cast<Block&>(stmt).statements) {
        substitute_element_stmt(*s, sub);
      }
      break;
    case NodeKind::ExprStmt:
      substitute_element_expr(static_cast<ExprStmt&>(stmt).expr, sub);
      break;
    case NodeKind::VarDecl:
      for (auto& d : static_cast<VarDecl&>(stmt).declarators) {
        if (d.init) substitute_element_expr(d.init, sub);
      }
      break;
    case NodeKind::If: {
      auto& node = static_cast<If&>(stmt);
      substitute_element_expr(node.condition, sub);
      substitute_element_stmt(*node.consequent, sub);
      if (node.alternate) substitute_element_stmt(*node.alternate, sub);
      break;
    }
    case NodeKind::Return: {
      auto& node = static_cast<Return&>(stmt);
      if (node.value) substitute_element_expr(node.value, sub);
      break;
    }
    case NodeKind::While: {
      auto& node = static_cast<While&>(stmt);
      substitute_element_expr(node.condition, sub);
      substitute_element_stmt(*node.body, sub);
      break;
    }
    case NodeKind::For: {
      auto& node = static_cast<For&>(stmt);
      if (node.init) substitute_element_stmt(*node.init, sub);
      if (node.condition) substitute_element_expr(node.condition, sub);
      if (node.update) substitute_element_expr(node.update, sub);
      substitute_element_stmt(*node.body, sub);
      break;
    }
    default:
      break;
  }
}

void substitute_element_expr(ExprPtr& expr, const Substitution& sub) {
  if (is_element_access(*expr, sub.loop)) {
    auto* ident = sub.program.make<Ident>();
    ident->line = expr->line;
    ident->name = sub.elem;
    expr = ident;
    return;
  }
  switch (expr->kind) {
    case NodeKind::Assign: {
      auto& node = static_cast<Assign&>(*expr);
      // Writes through arr[i] stay as-is (forEach callbacks may still write
      // the array via the closure); only the value side is substituted.
      substitute_element_expr(node.value, sub);
      if (node.target->kind == NodeKind::Member) {
        auto& member = static_cast<Member&>(*node.target);
        substitute_element_expr(member.object, sub);
        if (member.computed && !is_element_access(*node.target, sub.loop)) {
          substitute_element_expr(member.index, sub);
        }
      }
      break;
    }
    case NodeKind::Binary: {
      auto& node = static_cast<Binary&>(*expr);
      substitute_element_expr(node.lhs, sub);
      substitute_element_expr(node.rhs, sub);
      break;
    }
    case NodeKind::Logical: {
      auto& node = static_cast<Logical&>(*expr);
      substitute_element_expr(node.lhs, sub);
      substitute_element_expr(node.rhs, sub);
      break;
    }
    case NodeKind::Conditional: {
      auto& node = static_cast<Conditional&>(*expr);
      substitute_element_expr(node.condition, sub);
      substitute_element_expr(node.consequent, sub);
      substitute_element_expr(node.alternate, sub);
      break;
    }
    case NodeKind::Call: {
      auto& node = static_cast<Call&>(*expr);
      substitute_element_expr(node.callee, sub);
      for (auto& a : node.args) substitute_element_expr(a, sub);
      break;
    }
    case NodeKind::New: {
      auto& node = static_cast<New&>(*expr);
      substitute_element_expr(node.callee, sub);
      for (auto& a : node.args) substitute_element_expr(a, sub);
      break;
    }
    case NodeKind::Member: {
      auto& node = static_cast<Member&>(*expr);
      substitute_element_expr(node.object, sub);
      if (node.computed) substitute_element_expr(node.index, sub);
      break;
    }
    case NodeKind::Unary:
      substitute_element_expr(static_cast<Unary&>(*expr).operand, sub);
      break;
    case NodeKind::ArrayLit:
      for (auto& e : static_cast<ArrayLit&>(*expr).elements) {
        substitute_element_expr(e, sub);
      }
      break;
    case NodeKind::ObjectLit:
      for (auto& [key, value] : static_cast<ObjectLit&>(*expr).properties) {
        (void)key;
        substitute_element_expr(value, sub);
      }
      break;
    case NodeKind::Sequence:
      for (auto& e : static_cast<Sequence&>(*expr).exprs) {
        substitute_element_expr(e, sub);
      }
      break;
    default:
      break;
  }
}

class Rewriter {
 public:
  Rewriter(ProgramBody& program, RefactorReport& report)
      : program_(program), report_(report) {
    // Names used anywhere (to keep privatization safe and elem fresh).
    for (const auto& stmt : program.statements) {
      collect_idents(*stmt, all_names_);
    }
  }

  void run() {
    rewrite_list(program_.statements);
  }

 private:
  void rewrite_list(std::span<StmtPtr> statements) {
    for (StmtPtr& stmt : statements) {
      rewrite_children(*stmt);
      if (stmt->kind == NodeKind::For) {
        // The loop node stays in the arena: its LoopSite still points at it.
        if (StmtPtr replacement = try_rewrite(static_cast<For&>(*stmt))) stmt = replacement;
      }
    }
  }

  void rewrite_children(Stmt& stmt) {
    switch (stmt.kind) {
      case NodeKind::Block:
        rewrite_list(static_cast<Block&>(stmt).statements);
        break;
      case NodeKind::FunctionDecl:
        rewrite_children(*static_cast<FunctionDecl&>(stmt).fn->body);
        break;
      case NodeKind::If: {
        auto& node = static_cast<If&>(stmt);
        rewrite_children(*node.consequent);
        if (node.alternate) rewrite_children(*node.alternate);
        break;
      }
      case NodeKind::For:
        rewrite_children(*static_cast<For&>(stmt).body);
        break;
      case NodeKind::ForIn:
        rewrite_children(*static_cast<ForIn&>(stmt).body);
        break;
      case NodeKind::While:
        rewrite_children(*static_cast<While&>(stmt).body);
        break;
      case NodeKind::DoWhile:
        rewrite_children(*static_cast<DoWhile&>(stmt).body);
        break;
      default:
        break;
    }
  }

  StmtPtr try_rewrite(For& loop) {
    Candidate candidate;
    if (!match_canonical(loop, &candidate)) return nullptr;
    ++report_.candidates;

    const std::string at = "loop at line " + std::to_string(loop.line);
    if (has_escaping_control_flow(*loop.body)) {
      report_.notes.push_back(at + ": skipped (break/continue/return in body)");
      return nullptr;
    }
    if (writes_variable(*loop.body, candidate.index_name) ||
        writes_variable(*loop.body, candidate.array_name)) {
      report_.notes.push_back(at + ": skipped (body writes index or array binding)");
      return nullptr;
    }
    std::vector<Atom> body_vars;
    collect_body_vars(*loop.body, body_vars);
    // Privatization must not change behaviour: a body-declared var may not
    // be referenced anywhere outside this loop. Compare whole-program
    // occurrence counts against in-loop counts.
    IdentCounts loop_counts;
    collect_idents(loop, loop_counts);
    for (const auto& name : body_vars) {
      const auto whole = all_names_.find(name);
      const auto inside = loop_counts.find(name);
      const int outside_uses = (whole == all_names_.end() ? 0 : whole->second) -
                               (inside == loop_counts.end() ? 0 : inside->second);
      if (outside_uses > 0) {
        report_.notes.push_back(at + ": skipped (var " + name +
                                " is referenced outside the loop)");
        return nullptr;
      }
    }

    // Fresh element name.
    std::string elem = "elem";
    int suffix = 0;
    while (all_names_.count(elem) > 0) elem = "elem" + std::to_string(++suffix);
    ++all_names_[elem];

    const Atom elem_atom = program_.atoms.intern(elem);
    substitute_element_stmt(*loop.body, Substitution{candidate, elem_atom, program_});

    // Build: arr.forEach(function (elem, i) { body });
    auto* fn = program_.make<FunctionNode>();
    fn->line = loop.line;
    fn->fn_id = int(program_.fn_names.size()) + 1;
    program_.fn_names.push_back("<forEach callback>");
    const Atom params[] = {elem_atom, program_.atoms.intern(candidate.index_name)};
    fn->params = program_.list(std::span<const Atom>(params));
    fn->hoisted_vars = program_.list(std::span<const Atom>(body_vars));
    fn->body = loop.body;
    if (fn->body->kind != NodeKind::Block) {
      auto* block = program_.make<Block>();
      block->line = loop.line;
      block->statements = program_.list(std::span<const StmtPtr>(&fn->body, 1));
      fn->body = block;
    }

    auto* fn_expr = program_.make<FunctionExpr>();
    fn_expr->line = loop.line;
    fn_expr->fn = fn;

    auto* callee = program_.make<Member>();
    callee->line = loop.line;
    auto* array_ident = program_.make<Ident>();
    array_ident->line = loop.line;
    array_ident->name = program_.atoms.intern(candidate.array_name);
    callee->object = array_ident;
    callee->property = program_.atoms.intern("forEach");

    auto* call = program_.make<Call>();
    call->line = loop.line;
    call->callee = callee;
    const ExprPtr args[] = {fn_expr};
    call->args = program_.list(std::span<const ExprPtr>(args));

    auto* stmt = program_.make<ExprStmt>();
    stmt->line = loop.line;
    stmt->expr = call;

    ++report_.rewritten;
    report_.notes.push_back(at + ": rewritten to " + candidate.array_name +
                            ".forEach(...)");
    return stmt;
  }

  ProgramBody& program_;
  RefactorReport& report_;
  IdentCounts all_names_;
};

}  // namespace

RefactorReport to_functional(Program& program) {
  RefactorReport report;
  // The rewrite moves loop bodies into fresh callback functions, which
  // changes every (hops, slot) coordinate inside them: mut() drops the
  // compiled code, and the next run compiles and resolves the new AST.
  Rewriter(program.mut(), report).run();
  report.source = print(program);
  return report;
}

}  // namespace jsceres::js
