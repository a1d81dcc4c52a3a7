// Static scope pre-resolution (see resolve_scopes in ast.h).
//
// The resolver simulates, at parse time, exactly the declaration sequence the
// interpreter performs when it materializes an activation environment
// (interp::Interpreter::call_js_function + hoist_into): parameters in order,
// then hoisted `var`s, then hoisted function declarations — duplicates reuse
// their first slot, mirroring Environment::declare. Because the engine's
// subset has no `with`/`eval`, the runtime environment chain is a pure
// function of lexical structure (one environment per function call, one per
// entered catch clause), so a (hops, slot) pair computed here is valid for
// every execution of the annotated program point.
//
// Names that fall through every function/catch scope resolve to the global
// environment. The global environment's layout is NOT statically known (the
// stdlib and host bindings are installed at interpreter construction), so
// global references instead get a dense `ref_id` that indexes a
// per-interpreter cache of resolved global slot indices — the hash lookup
// happens once per program point per interpreter, not once per execution.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "js/ast.h"

namespace jsceres::js {

namespace {

class Resolver {
 public:
  explicit Resolver(ProgramBody& program) : program_(program) {}

  void run() {
    program_.global_ref_count = 0;
    program_.ic_count = 0;
    scopes_.push_back(Scope{Scope::Global, {}});
    for (auto& stmt : program_.statements) walk_stmt(*stmt);
    scopes_.pop_back();
  }

 private:
  struct Scope {
    enum Kind { Global, Function, Catch };
    Kind kind;
    std::unordered_map<Atom, std::uint32_t> slots;

    std::uint32_t declare(Atom name) {
      const auto it = slots.find(name);
      if (it != slots.end()) return it->second;
      const auto slot = std::uint32_t(slots.size());
      slots.emplace(name, slot);
      return slot;
    }
  };

  void resolve_ref(Atom name, SlotRef& ref) {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      Scope& scope = scopes_[i];
      if (scope.kind == Scope::Global) break;
      const auto it = scope.slots.find(name);
      if (it != scope.slots.end()) {
        ref.hops = std::int32_t(scopes_.size() - 1 - i);
        ref.slot = it->second;
        return;
      }
    }
    ref.hops = -1;
    ref.slot = 0;
    ref.ref_id = program_.global_ref_count++;
  }

  void walk_function(FunctionNode& fn) {
    Scope scope{Scope::Function, {}};
    auto layout = std::make_unique<ActivationLayout>();
    layout->param_slots.reserve(fn.params.size());
    for (const Atom& param : fn.params) {
      layout->param_slots.push_back(scope.declare(param));
    }
    for (const Atom& var : fn.hoisted_vars) scope.declare(var);
    layout->fn_slots.reserve(fn.hoisted_functions.size());
    for (const FunctionDecl* decl : fn.hoisted_functions) {
      layout->fn_slots.push_back(scope.declare(decl->fn->name));
    }
    // Invert the scope map into slot order: the activation template the
    // interpreter stamps per call (resolve_scopes is idempotent, so a
    // re-resolution after an AST rewrite just rebuilds it).
    layout->names.resize(scope.slots.size());
    for (const auto& [name, slot] : scope.slots) {
      layout->names[slot] = name;
    }
    // Entry-value provenance per slot. Later writers win, mirroring the
    // declare sequence (params in order, then hoisted functions): a
    // duplicate parameter name keeps the LAST argument, a function
    // re-binding a parameter shadows it at entry.
    layout->inits.assign(layout->names.size(), ActivationLayout::SlotSource{});
    for (std::uint32_t i = 0; i < layout->param_slots.size(); ++i) {
      layout->inits[layout->param_slots[i]] = {ActivationLayout::SlotInit::Param, i};
    }
    for (std::uint32_t j = 0; j < layout->fn_slots.size(); ++j) {
      layout->inits[layout->fn_slots[j]] = {ActivationLayout::SlotInit::Fn, j};
      // Inline function materialization only when slot order == declaration
      // order, so closure-object creation order is unchanged.
      if (j > 0 && layout->fn_slots[j] <= layout->fn_slots[j - 1]) {
        layout->fns_in_slot_order = false;
      }
    }
    if (!layout->fns_in_slot_order) {
      // Fall back: functions stored by the interpreter's ordered loop; their
      // slots revert to the undefined fill so the loop's operator= sees a
      // constructed value.
      for (const std::uint32_t slot : layout->fn_slots) {
        layout->inits[slot] = ActivationLayout::SlotSource{};
      }
    }
    fn.layout = std::move(layout);
    scopes_.push_back(std::move(scope));
    walk_stmt(*fn.body);
    scopes_.pop_back();
  }

  void walk_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case NodeKind::Block:
        for (auto& s : static_cast<Block&>(stmt).statements) walk_stmt(*s);
        return;
      case NodeKind::ExprStmt:
        walk_expr(*static_cast<ExprStmt&>(stmt).expr);
        return;
      case NodeKind::VarDecl:
        for (auto& d : static_cast<VarDecl&>(stmt).declarators) {
          resolve_ref(d.name, d.ref);
          if (d.init) walk_expr(*d.init);
        }
        return;
      case NodeKind::FunctionDecl: {
        // Hoisted functions are materialized at function entry and close
        // over the function-entry environment — a catch clause textually
        // enclosing the declaration contributes no scope level.
        std::vector<Scope> suspended;
        while (scopes_.back().kind == Scope::Catch) {
          suspended.push_back(std::move(scopes_.back()));
          scopes_.pop_back();
        }
        walk_function(*static_cast<FunctionDecl&>(stmt).fn);
        while (!suspended.empty()) {
          scopes_.push_back(std::move(suspended.back()));
          suspended.pop_back();
        }
        return;
      }
      case NodeKind::If: {
        auto& node = static_cast<If&>(stmt);
        walk_expr(*node.condition);
        walk_stmt(*node.consequent);
        if (node.alternate) walk_stmt(*node.alternate);
        return;
      }
      case NodeKind::For: {
        auto& node = static_cast<For&>(stmt);
        if (node.init) walk_stmt(*node.init);
        if (node.condition) walk_expr(*node.condition);
        if (node.update) walk_expr(*node.update);
        walk_stmt(*node.body);
        return;
      }
      case NodeKind::ForIn: {
        auto& node = static_cast<ForIn&>(stmt);
        resolve_ref(node.var_name, node.var_ref);
        walk_expr(*node.object);
        walk_stmt(*node.body);
        return;
      }
      case NodeKind::While: {
        auto& node = static_cast<While&>(stmt);
        walk_expr(*node.condition);
        walk_stmt(*node.body);
        return;
      }
      case NodeKind::DoWhile: {
        auto& node = static_cast<DoWhile&>(stmt);
        walk_stmt(*node.body);
        walk_expr(*node.condition);
        return;
      }
      case NodeKind::Return: {
        auto& node = static_cast<Return&>(stmt);
        if (node.value) walk_expr(*node.value);
        return;
      }
      case NodeKind::Throw:
        walk_expr(*static_cast<Throw&>(stmt).value);
        return;
      case NodeKind::TryCatch: {
        auto& node = static_cast<TryCatch&>(stmt);
        walk_stmt(*node.try_block);
        if (node.catch_block) {
          Scope scope{Scope::Catch, {}};
          scope.declare(node.catch_param);
          scopes_.push_back(std::move(scope));
          walk_stmt(*node.catch_block);
          scopes_.pop_back();
        }
        if (node.finally_block) walk_stmt(*node.finally_block);
        return;
      }
      case NodeKind::Break:
      case NodeKind::Continue:
      case NodeKind::Empty:
        return;
      default:
        return;
    }
  }

  void walk_expr(Expr& expr) {
    switch (expr.kind) {
      case NodeKind::Ident: {
        auto& ident = static_cast<Ident&>(expr);
        resolve_ref(ident.name, ident.ref);
        return;
      }
      case NodeKind::ArrayLit:
        for (auto& e : static_cast<ArrayLit&>(expr).elements) walk_expr(*e);
        return;
      case NodeKind::ObjectLit:
        for (auto& [key, value] : static_cast<ObjectLit&>(expr).properties) {
          walk_expr(*value);
        }
        return;
      case NodeKind::FunctionExpr:
        // Function expressions close over the environment current at their
        // evaluation site, so catch scopes on the stack stay in force.
        walk_function(*static_cast<FunctionExpr&>(expr).fn);
        return;
      case NodeKind::Call: {
        auto& node = static_cast<Call&>(expr);
        walk_expr(*node.callee);
        for (auto& arg : node.args) walk_expr(*arg);
        return;
      }
      case NodeKind::New: {
        auto& node = static_cast<New&>(expr);
        walk_expr(*node.callee);
        for (auto& arg : node.args) walk_expr(*arg);
        return;
      }
      case NodeKind::Member: {
        auto& node = static_cast<Member&>(expr);
        if (!node.computed) node.ic_id = program_.ic_count++;
        walk_expr(*node.object);
        if (node.index) walk_expr(*node.index);
        return;
      }
      case NodeKind::Assign: {
        auto& node = static_cast<Assign&>(expr);
        walk_expr(*node.target);
        walk_expr(*node.value);
        return;
      }
      case NodeKind::Conditional: {
        auto& node = static_cast<Conditional&>(expr);
        walk_expr(*node.condition);
        walk_expr(*node.consequent);
        walk_expr(*node.alternate);
        return;
      }
      case NodeKind::Binary: {
        auto& node = static_cast<Binary&>(expr);
        walk_expr(*node.lhs);
        walk_expr(*node.rhs);
        return;
      }
      case NodeKind::Logical: {
        auto& node = static_cast<Logical&>(expr);
        walk_expr(*node.lhs);
        walk_expr(*node.rhs);
        return;
      }
      case NodeKind::Unary:
        walk_expr(*static_cast<Unary&>(expr).operand);
        return;
      case NodeKind::Update:
        walk_expr(*static_cast<Update&>(expr).target);
        return;
      case NodeKind::Sequence:
        for (auto& e : static_cast<Sequence&>(expr).exprs) walk_expr(*e);
        return;
      case NodeKind::NumberLit:
      case NodeKind::StringLit:
      case NodeKind::BoolLit:
      case NodeKind::NullLit:
      case NodeKind::ThisExpr:
        return;
      default:
        return;
    }
  }

  ProgramBody& program_;
  std::vector<Scope> scopes_;
};

}  // namespace

void resolve_scopes(Program& program) { Resolver(program.mut()).run(); }

}  // namespace jsceres::js
