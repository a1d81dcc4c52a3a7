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
// The same walk marks each function activation and catch scope whose body
// contains no function: no closure can capture such a scope, so the
// interpreter reuses it as soon as it exits.
//
// Names that fall through every function/catch scope resolve to the global
// environment. The global environment's layout is NOT statically known (the
// stdlib and host bindings are installed at interpreter construction), so
// global references instead get a dense `ref_id` that indexes a
// per-interpreter cache of resolved global slot indices — the hash lookup
// happens once per program point per interpreter, not once per execution.

#include <cstdint>
#include <span>
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
    push_scope(Scope::Global);
    for (Stmt* stmt : program_.statements) walk(*stmt);
    pop_scope();
  }

 private:
  /// A scope's names, in slot order, are `names_[first, first + size)`.
  /// All of them are declared while the scope is innermost, before any
  /// scope inside it is pushed, and a pop truncates `names_` to `first`.
  struct Scope {
    enum Kind { Global, Function, Catch };
    Kind kind;
    std::size_t first;
    std::size_t size = 0;
  };

  /// Slot of `name` in the innermost scope, declared there if new;
  /// duplicates reuse their first slot, as Environment::declare does.
  std::uint32_t declare(Atom name) {
    Scope& scope = scopes_.back();
    for (std::size_t i = 0; i < scope.size; ++i) {
      if (names_[scope.first + i] == name) return std::uint32_t(i);
    }
    names_.push_back(name);
    return std::uint32_t(scope.size++);
  }

  void push_scope(Scope::Kind kind) { scopes_.push_back(Scope{kind, names_.size()}); }

  void pop_scope() {
    names_.resize(scopes_.back().first);
    scopes_.pop_back();
  }

  void resolve_ref(Atom name, SlotRef& ref) {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      const Scope& scope = scopes_[i];
      if (scope.kind == Scope::Global) break;
      for (std::size_t slot = 0; slot < scope.size; ++slot) {
        if (names_[scope.first + slot] == name) {
          ref.hops = std::int32_t(scopes_.size() - 1 - i);
          ref.slot = std::uint32_t(slot);
          return;
        }
      }
    }
    ref.hops = -1;
    ref.slot = 0;
    ref.ref_id = program_.global_ref_count++;
  }

  void walk_function(FunctionNode& fn) {
    push_scope(Scope::Function);
    auto* layout = program_.make<ActivationLayout>();
    layout->param_slots = program_.array<std::uint32_t>(fn.params.size());
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      layout->param_slots[i] = declare(fn.params[i]);
    }
    for (const Atom& var : fn.hoisted_vars) declare(var);
    layout->fn_slots = program_.array<std::uint32_t>(fn.hoisted_functions.size());
    for (std::size_t j = 0; j < fn.hoisted_functions.size(); ++j) {
      layout->fn_slots[j] = declare(fn.hoisted_functions[j]->fn->name);
    }
    // The scope's names in slot order are the activation template the
    // interpreter stamps per call (resolve_scopes is idempotent, so a
    // re-resolution after an AST rewrite just rebuilds it).
    layout->names = program_.list(std::span<const Atom>(names_).subspan(scopes_.back().first));
    // Entry-value provenance per slot. Later writers win, mirroring the
    // declare sequence (params in order, then hoisted functions): a
    // duplicate parameter name keeps the LAST argument, a function
    // re-binding a parameter shadows it at entry.
    layout->inits = program_.array<ActivationLayout::SlotSource>(layout->names.size());
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
    fn.layout = layout;
    const std::size_t functions_before = functions_;
    walk(*fn.body);
    fn.recyclable_activation = functions_ == functions_before;
    pop_scope();
    ++functions_;
  }

  void walk(Node& node) {
    switch (node.kind) {
      case NodeKind::Ident: {
        auto& ident = static_cast<Ident&>(node);
        resolve_ref(ident.name, ident.ref);
        return;
      }
      case NodeKind::VarDecl:
        for (auto& d : static_cast<VarDecl&>(node).declarators) {
          resolve_ref(d.name, d.ref);
          if (d.init) walk(*d.init);
        }
        return;
      case NodeKind::ForIn: {
        auto& loop = static_cast<ForIn&>(node);
        resolve_ref(loop.var_name, loop.var_ref);
        break;
      }
      case NodeKind::Member: {
        auto& member = static_cast<Member&>(node);
        if (!member.computed) member.ic_id = program_.ic_count++;
        break;
      }
      case NodeKind::FunctionExpr:
        // Function expressions close over the environment current at their
        // evaluation site, so catch scopes on the stack stay in force.
        walk_function(*static_cast<FunctionExpr&>(node).fn);
        return;
      case NodeKind::FunctionDecl: {
        // Hoisted functions are materialized at function entry and close
        // over the function-entry environment — a catch clause textually
        // enclosing the declaration contributes no scope level.
        std::vector<Scope> suspended;
        while (scopes_.back().kind == Scope::Catch) {
          suspended.push_back(scopes_.back());
          scopes_.pop_back();
        }
        walk_function(*static_cast<FunctionDecl&>(node).fn);
        while (!suspended.empty()) {
          scopes_.push_back(suspended.back());
          suspended.pop_back();
        }
        return;
      }
      case NodeKind::TryCatch: {
        auto& handler = static_cast<TryCatch&>(node);
        walk(*handler.try_block);
        if (handler.catch_block) {
          push_scope(Scope::Catch);
          declare(handler.catch_param);
          const std::size_t functions_before = functions_;
          walk(*handler.catch_block);
          handler.recyclable_catch_scope = functions_ == functions_before;
          pop_scope();
        }
        if (handler.finally_block) walk(*handler.finally_block);
        return;
      }
      default:
        break;
    }
    for_each_child(node, [this](Node& child) { walk(child); });
  }

  ProgramBody& program_;
  std::vector<Scope> scopes_;
  std::vector<Atom> names_;  // every open scope's names (see Scope)
  std::size_t functions_ = 0;  // functions walked so far
};

}  // namespace

void resolve_scopes(Program& program) { Resolver(program.mut()).run(); }

}  // namespace jsceres::js
