// Lowering of a program to register bytecode (interp/bytecode.h), and the
// static scope resolution the bytecode is built on, in one walk.
//
// Resolution simulates exactly the declaration sequence the interpreter
// performs when it materializes an activation environment
// (Interpreter::call_js_function + hoist_into): parameters in order, then
// hoisted `var`s, then hoisted function declarations; duplicates reuse
// their first slot, mirroring Environment::declare. Because the engine's
// subset has no `with`/`eval`, the runtime environment chain is a pure
// function of lexical structure (one environment per function call, one per
// entered catch clause), so a (hops, slot) pair computed here is valid for
// every execution of the annotated program point. Names that fall through
// every function and catch scope resolve to the global environment, whose
// layout is not static (the stdlib and host bindings are installed per
// interpreter): they get a dense `ref_id` into a per-interpreter cache of
// global slot indices instead. The same walk marks each function activation
// and catch scope whose body contains no function: no closure can capture
// such a scope, so the interpreter reuses it as soon as it exits.
//
// The walk visits each body once, in evaluation order, and emits one
// instruction per operation. A function met on the way is compiled after
// the body that holds it, under a copy of the scopes it was met in. The
// cost model charges one tick per AST node, on entry; the compiler counts
// those ticks and attaches them to the next instruction it emits, which
// charges them before it does anything. No observable step lies between a
// node's entry and that instruction, so the ticks land between the same two
// events as the node-by-node charge did. A pending count never crosses a
// jump target: binding a label first emits the count on a Tick instruction.

#include <algorithm>
#include <vector>

#include "interp/bytecode.h"
#include "support/limits.h"

namespace jsceres::interp {

namespace {

using js::NodeKind;
using Reg = std::uint16_t;
constexpr Reg kNoReg = 0xffff;

/// The instruction for each js::BinaryOp; Binary handles the rest.
constexpr Op kBinaryOps[] = {
    Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Binary,                  // Add .. Mod
    Op::Binary, Op::Binary, Op::Binary, Op::Binary, Op::Binary, Op::Binary,  // BitAnd .. UShr
    Op::Lt, Op::Gt, Op::Le, Op::Ge, Op::Binary, Op::Binary, Op::StrictEq, Op::StrictNe,
    Op::Binary, Op::Binary,  // In, InstanceOf
};
static_assert(std::size(kBinaryOps) == std::size_t(js::BinaryOp::InstanceOf) + 1);

/// A jump target. Until it is bound, its unresolved uses form a chain
/// through their `x` fields (1 + pc of the next use; 0 ends it).
struct Label {
  std::uint32_t chain = 0;
  std::int64_t pc = -1;
};

/// Resolution writes its results into the AST. compile() is the body's
/// only writer: bytecode_of runs it under the body's mutex, before any
/// interpreter reads them.
template <class T>
T& writable(const T& node) {
  return const_cast<T&>(node);
}

class Compiler {
 public:
  Compiler(Bytecode& out, js::ProgramBody& program) : out_(out), program_(program) {}

  void run() {
    program_.global_ref_count = 0;
    program_.ic_count = 0;
    program_.function_count = 0;
    push_scope(Scope::Global);
    out_.script = body(program_.statements, nullptr);
    while (!pending_.empty()) {
      const Pending next = pending_.back();
      pending_.pop_back();
      // The last pending function's scopes are the last ones saved.
      scopes_.assign(saved_scopes_.begin() + next.scopes, saved_scopes_.end());
      names_.assign(saved_names_.begin() + next.names, saved_names_.end());
      saved_scopes_.resize(next.scopes);
      saved_names_.resize(next.names);
      function(*next.fn);
    }
  }

 private:
  CodeRange body(std::span<const js::StmtPtr> statements, const js::Stmt* block) {
    CodeRange range;
    range.begin = pc();
    next_reg_ = 1;  // register 0 holds the return value
    max_reg_ = 1;
    Label end;
    end_ = &end;
    if (block != nullptr) {
      stmt(*block);
    } else {
      for (const js::Stmt* s : statements) stmt(*s);
    }
    bind(end);
    emit(Op::Exit);
    range.end = pc();
    range.registers = max_reg_;
    return range;
  }

  struct Loop {
    Label* exit;
    Label* next;  // `continue` target
    int try_depth;
    const js::Stmt* node;
    js::LoopKind kind;
    int loop_id;
  };

  [[nodiscard]] std::uint32_t pc() const { return std::uint32_t(out_.code.size()); }

  /// Appends an instruction carrying the pending ticks; the reference is
  /// valid until the next emit.
  Instr& emit(Op op, Reg a = 0, Reg b = 0, Reg c = 0, int line = 0,
              const void* p = nullptr) {
    while (ticks_ > 255) {
      out_.code.emplace_back().ticks = 255;  // a Tick (the default op)
      ticks_ -= 255;
    }
    out_.code.push_back(Instr{op, std::uint8_t(ticks_), a, b, c, 0, line, {p}});
    ticks_ = 0;
    return out_.code.back();
  }

  void jump(Op op, Label& label, Reg a = 0, Reg b = 0, Reg c = 0, int line = 0,
            const void* p = nullptr) {
    Instr& ins = emit(op, a, b, c, line, p);
    if (label.pc >= 0) {
      ins.x = std::uint32_t(label.pc);
      return;
    }
    ins.x = label.chain;
    label.chain = pc();  // 1 + the pc of this use
  }

  void bind(Label& label) {
    if (ticks_ > 0) emit(Op::Tick);
    label.pc = pc();
    while (label.chain != 0) {
      Instr& use = out_.code[label.chain - 1];
      label.chain = use.x;
      use.x = std::uint32_t(label.pc);
    }
  }

  /// Registers are 16-bit and kNoReg is none: a body that needs more than
  /// 0xffff of them (a call with ~65,000 arguments) is refused, recoverably.
  Reg alloc() {
    if (next_reg_ == kNoReg) throw EngineError("function body needs more than 65535 registers");
    const Reg r = next_reg_++;
    max_reg_ = std::max<std::uint32_t>(max_reg_, next_reg_);
    return r;
  }

  /// Restores the register top when a statement or operand is done.
  struct Scratch {
    Reg& top;
    const Reg saved = top;
    ~Scratch() { top = saved; }
  };

  // --- scopes -------------------------------------------------------------

  /// A scope's names, in slot order, are `names_[first, first + size)`.
  /// All of them are declared while the scope is innermost, before any
  /// scope inside it is pushed, and a pop truncates `names_` to `first`.
  struct Scope {
    enum Kind : std::uint8_t { Global, Function, Catch };
    Kind kind;
    std::uint32_t first;
    std::uint32_t size = 0;
  };

  /// A function met in a body; the scopes it closes over are saved from
  /// `scopes` and `names` on in saved_scopes_ and saved_names_.
  struct Pending {
    const js::FunctionNode* fn;
    std::size_t scopes;
    std::size_t names;
  };

  /// Slot of `name` in the innermost scope, declared there if new;
  /// duplicates reuse their first slot, as Environment::declare does.
  std::uint32_t declare(js::Atom name) {
    Scope& scope = scopes_.back();
    for (std::uint32_t i = 0; i < scope.size; ++i) {
      if (names_[scope.first + i] == name) return i;
    }
    names_.push_back(name);
    return scope.size++;
  }

  void push_scope(Scope::Kind kind) {
    scopes_.push_back(Scope{kind, std::uint32_t(names_.size())});
  }

  void pop_scope() {
    names_.resize(scopes_.back().first);
    scopes_.pop_back();
  }

  void resolve(js::Atom name, js::SlotRef& ref) {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      const Scope& scope = scopes_[i];
      if (scope.kind == Scope::Global) break;
      for (std::uint32_t slot = 0; slot < scope.size; ++slot) {
        if (names_[scope.first + slot] == name) {
          ref.hops = std::int32_t(scopes_.size() - 1 - i);
          ref.slot = slot;
          return;
        }
      }
    }
    ref.hops = -1;
    ref.slot = 0;
    ref.ref_id = program_.global_ref_count++;
  }

  /// An Ident or a VarDecl declarator, resolved.
  template <class Ref>
  const Ref& resolved(const Ref& node) {
    resolve(node.name, writable(node).ref);
    return node;
  }

  /// A member site; a named one gets its inline-cache id.
  const js::Member& site(const js::Member& member) {
    if (!member.computed) writable(member).ic_id = program_.ic_count++;
    return member;
  }

  /// Defers `fn` until the body being compiled is done. A function
  /// expression closes over the scopes current where it is evaluated; a
  /// declaration is materialized at function entry, so a catch clause
  /// around it contributes no scope.
  void defer(const js::FunctionNode& fn, bool declaration) {
    writable(fn).code_index = program_.function_count++;
    ++functions_;
    pending_.push_back(Pending{&fn, saved_scopes_.size(), saved_names_.size()});
    std::size_t depth = scopes_.size();
    while (declaration && scopes_[depth - 1].kind == Scope::Catch) --depth;
    const Scope& innermost = scopes_[depth - 1];
    saved_scopes_.insert(saved_scopes_.end(), scopes_.begin(), scopes_.begin() + depth);
    saved_names_.insert(saved_names_.end(), names_.begin(),
                        names_.begin() + (innermost.first + innermost.size));
  }

  /// A function's activation layout and code, under the scopes `defer`
  /// saved.
  void function(const js::FunctionNode& node) {
    js::FunctionNode& fn = writable(node);
    push_scope(Scope::Function);
    auto* layout = program_.make<js::ActivationLayout>();
    layout->param_slots = program_.array<std::uint32_t>(fn.params.size());
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      layout->param_slots[i] = declare(fn.params[i]);
    }
    for (const js::Atom& var : fn.hoisted_vars) declare(var);
    layout->fn_slots = program_.array<std::uint32_t>(fn.hoisted_functions.size());
    for (std::size_t j = 0; j < fn.hoisted_functions.size(); ++j) {
      layout->fn_slots[j] = declare(fn.hoisted_functions[j]->fn->name);
    }
    // The scope's names in slot order are the activation template the
    // interpreter stamps per call (a recompile after an AST rewrite just
    // rebuilds it).
    layout->names =
        program_.list(std::span<const js::Atom>(names_).subspan(scopes_.back().first));
    // Entry-value provenance per slot. Later writers win, mirroring the
    // declare sequence (params in order, then hoisted functions): a
    // duplicate parameter name keeps the LAST argument, a function
    // re-binding a parameter shadows it at entry.
    using Source = js::ActivationLayout::SlotSource;
    using Init = js::ActivationLayout::SlotInit;
    layout->inits = program_.array<Source>(layout->names.size());
    for (std::uint32_t i = 0; i < layout->param_slots.size(); ++i) {
      layout->inits[layout->param_slots[i]] = {Init::Param, i};
    }
    for (std::uint32_t j = 0; j < layout->fn_slots.size(); ++j) {
      layout->inits[layout->fn_slots[j]] = {Init::Fn, j};
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
      for (const std::uint32_t slot : layout->fn_slots) layout->inits[slot] = Source{};
    }
    fn.layout = layout;
    const std::size_t functions_before = functions_;
    const CodeRange range = body({}, fn.body);
    fn.recyclable_activation = functions_ == functions_before;
    pop_scope();
    if (out_.functions.size() <= fn.code_index) out_.functions.resize(program_.function_count);
    out_.functions[fn.code_index] = range;
  }

  // --- variables ----------------------------------------------------------

  template <class Ref>  // an Ident or a VarDecl declarator: `name` and `ref`
  void var(bool write, const Ref& node, Reg r, int line) {
    const js::SlotRef& ref = node.ref;
    if (ref.hops > 0xffff) throw EngineError("function nesting deeper than 65535 scopes");
    const Op op = ref.hops == 0 ? (write ? Op::SetLocal : Op::GetLocal)
                  : ref.hops > 0 ? (write ? Op::SetUp : Op::GetUp)
                                 : (write ? Op::SetGlobal : Op::GetGlobal);
    emit(op, r, r, Reg(std::max(ref.hops, 0)), line, &node.name).x =
        ref.hops >= 0 ? ref.slot : ref.ref_id;
  }

  // --- expressions --------------------------------------------------------

  /// Leaves the value of `e` in `dst`; the register top is unchanged.
  void expr(const js::Expr& e, Reg dst) {
    ++ticks_;
    const Scratch scratch{next_reg_};
    switch (e.kind) {
      case NodeKind::NumberLit:
        emit(Op::LoadNum, dst).num = static_cast<const js::NumberLit&>(e).value;
        return;
      case NodeKind::StringLit:
        emit(Op::LoadStr, dst, 0, 0, 0, &static_cast<const js::StringLit&>(e).value);
        return;
      case NodeKind::BoolLit:
        emit(Op::LoadBool, dst).x = static_cast<const js::BoolLit&>(e).value ? 1 : 0;
        return;
      case NodeKind::NullLit: emit(Op::LoadNull, dst); return;
      case NodeKind::Ident:
        return var(false, resolved(static_cast<const js::Ident&>(e)), dst, e.line);
      case NodeKind::ThisExpr: emit(Op::LoadThis, dst); return;
      case NodeKind::ArrayLit: {
        const auto& lit = static_cast<const js::ArrayLit&>(e);
        emit(Op::NewArray, dst, 0, 0, e.line).x = std::uint32_t(lit.elements.size());
        for (std::size_t i = 0; i < lit.elements.size(); ++i) {
          const Reg t = alloc();
          expr(*lit.elements[i], t);
          emit(Op::ArrayPush, dst, t, 0, e.line).x = std::uint32_t(i);
          --next_reg_;
        }
        return;
      }
      case NodeKind::ObjectLit: {
        emit(Op::NewObject, dst, 0, 0, e.line);
        for (const auto& property : static_cast<const js::ObjectLit&>(e).properties) {
          const Reg t = alloc();
          expr(*property.second, t);
          emit(Op::InitProp, dst, t, 0, e.line, &property.first);
          --next_reg_;
        }
        return;
      }
      case NodeKind::FunctionExpr: {
        const js::FunctionNode* fn = static_cast<const js::FunctionExpr&>(e).fn;
        defer(*fn, false);
        emit(Op::Closure, dst, 0, 0, 0, fn);
        return;
      }
      case NodeKind::Call: return call(static_cast<const js::Call&>(e), dst);
      case NodeKind::New: return construct(static_cast<const js::New&>(e), dst);
      case NodeKind::Member: {
        const auto& member = site(static_cast<const js::Member&>(e));
        expr(*member.object, dst);
        if (!member.computed) {
          emit(Op::GetNamed, dst, dst, 0, e.line, &member);
          return;
        }
        const Reg key = alloc();
        expr(*member.index, key);
        emit(Op::GetElem, dst, dst, key, e.line, &member);
        return;
      }
      case NodeKind::Assign: return assign(static_cast<const js::Assign&>(e), dst);
      case NodeKind::Conditional: {
        const auto& node = static_cast<const js::Conditional&>(e);
        Label other;
        Label end;
        expr(*node.condition, dst);
        jump(Op::JumpIfFalse, other, 0, dst);
        expr(*node.consequent, dst);
        jump(Op::Jump, end);
        bind(other);
        expr(*node.alternate, dst);
        bind(end);
        return;
      }
      case NodeKind::Binary: {
        const auto& node = static_cast<const js::Binary&>(e);
        expr(*node.lhs, dst);
        const Reg rhs = alloc();
        expr(*node.rhs, rhs);
        binary(node.op, dst, rhs, e.line);
        return;
      }
      case NodeKind::Logical: {
        const auto& node = static_cast<const js::Logical&>(e);
        Label end;
        expr(*node.lhs, dst);
        jump(node.op == js::LogicalOp::And ? Op::JumpIfFalse : Op::JumpIfTrue, end, 0, dst);
        expr(*node.rhs, dst);
        bind(end);
        return;
      }
      case NodeKind::Unary: return unary(static_cast<const js::Unary&>(e), dst);
      case NodeKind::Update: {
        const auto& node = static_cast<const js::Update&>(e);
        const Reg flags = Reg((node.increment ? 1 : 0) | (node.prefix ? 2 : 0));
        if (node.target->kind == NodeKind::Ident) {
          emit(Op::UpdateVar, dst, 0, flags, e.line,
               &resolved(static_cast<const js::Ident&>(*node.target)));
          return;
        }
        const auto& member = site(static_cast<const js::Member&>(*node.target));
        const Reg base = alloc();
        expr(*member.object, base);
        if (!member.computed) {
          emit(Op::UpdateNamed, dst, base, flags, e.line, &member);
          return;
        }
        const Reg key = alloc();
        expr(*member.index, key);
        emit(Op::UpdateElem, dst, base, key, e.line, &member).x = flags;
        return;
      }
      case NodeKind::Sequence:
        for (const js::Expr* item : static_cast<const js::Sequence&>(e).exprs) expr(*item, dst);
        return;
      default:
        return;
    }
  }

  void binary(js::BinaryOp op, Reg dst, Reg rhs, int line) {
    emit(kBinaryOps[int(op)], dst, dst, rhs, line).x = std::uint32_t(op);
  }

  static js::BinaryOp compound_op(js::AssignOp op) {
    return js::BinaryOp(int(op) - 1 + int(js::BinaryOp::Add));
  }

  /// Whether evaluating `e` can run code that mutates existing state.
  static bool impure(const js::Node& e) {
    switch (e.kind) {
      case NodeKind::Call:
      case NodeKind::New:
      case NodeKind::Assign:
      case NodeKind::Update:
        return true;
      case NodeKind::FunctionExpr:
        return false;
      case NodeKind::Unary:
        if (static_cast<const js::Unary&>(e).op == js::UnaryOp::Delete) return true;
        break;
      default:
        break;
    }
    bool found = false;
    js::for_each_child(e, [&found](const js::Node& child) { found = found || impure(child); });
    return found;
  }

  void assign(const js::Assign& node, Reg dst) {
    const bool compound = node.op != js::AssignOp::None;
    if (node.target->kind == NodeKind::Ident) {
      const auto& ident = resolved(static_cast<const js::Ident&>(*node.target));
      if (!compound) {
        expr(*node.value, dst);
      } else {
        var(false, ident, dst, node.line);
        const Reg rhs = alloc();
        expr(*node.value, rhs);
        binary(compound_op(node.op), dst, rhs, node.line);
      }
      var(true, ident, dst, node.line);
      return;
    }
    const auto& member = site(static_cast<const js::Member&>(*node.target));
    const Reg base = alloc();
    expr(*member.object, base);
    if (!member.computed) {
      if (!compound) {
        expr(*node.value, dst);
      } else {
        emit(Op::GetNamed, dst, base, 0, member.line, &member);
        const Reg rhs = alloc();
        expr(*node.value, rhs);
        binary(compound_op(node.op), dst, rhs, node.line);
      }
      emit(Op::SetNamed, dst, base, 0, member.line, &member);
      return;
    }
    const Reg key = alloc();
    expr(*member.index, key);
    // The key becomes a property name before the right-hand side runs; only
    // code that can mutate an object used as a key could tell the difference.
    if (impure(*node.value)) emit(Op::ElemKey, 0, base, key, node.line, &member);
    if (!compound) {
      expr(*node.value, dst);
    } else {
      emit(Op::GetElem, dst, base, key, node.line, &member);
      const Reg rhs = alloc();
      expr(*node.value, rhs);
      binary(compound_op(node.op), dst, rhs, node.line);
    }
    emit(Op::SetElem, dst, base, key, node.line, &member);
  }

  void unary(const js::Unary& node, Reg dst) {
    switch (node.op) {
      case js::UnaryOp::TypeOf: {
        Label done;
        if (node.operand->kind == NodeKind::Ident) jump(Op::TypeofVar, done, dst, 0, 0, 0, node.operand);
        expr(*node.operand, dst);
        emit(Op::Typeof, dst, dst);
        bind(done);
        return;
      }
      case js::UnaryOp::Delete: {
        const auto& member = site(static_cast<const js::Member&>(*node.operand));
        expr(*member.object, dst);
        if (!member.computed) {
          emit(Op::DeleteProp, dst, dst, kNoReg, node.line, &member);
          return;
        }
        // A non-object base answers true before the key is evaluated.
        Label done;
        jump(Op::DeleteProp, done, dst, dst, kNoReg, node.line, &member);
        const Reg key = alloc();
        expr(*member.index, key);
        emit(Op::DeleteProp, dst, dst, key, node.line, &member);
        bind(done);
        return;
      }
      default:
        break;
    }
    expr(*node.operand, dst);
    static constexpr Op kOps[] = {Op::Neg, Op::Plus, Op::Not, Op::BitNot};
    emit(kOps[int(node.op)], dst, dst);
  }

  /// Argument registers, then Call/Construct: x packs the first argument
  /// register (low 16 bits) and the count.
  std::uint32_t arguments(std::span<const js::ExprPtr> args) {
    emit(Op::Args).x = std::uint32_t(args.size());
    const Reg first = next_reg_;
    for (const js::Expr* arg : args) {
      const Reg r = alloc();
      expr(*arg, r);
    }
    return std::uint32_t(first) | std::uint32_t(args.size()) << 16;
  }

  void call(const js::Call& node, Reg dst) {
    const Reg fn = alloc();
    Reg self = kNoReg;
    if (node.callee->kind == NodeKind::Member) {
      const auto& member = site(static_cast<const js::Member&>(*node.callee));
      self = alloc();
      expr(*member.object, self);
      if (member.computed) {
        expr(*member.index, fn);
        emit(Op::GetElemMethod, fn, self, fn, member.line, &member);
      } else {
        emit(Op::GetMethod, fn, self, 0, member.line, &member);
      }
    } else {
      expr(*node.callee, fn);
    }
    const std::uint32_t args = arguments(node.args);
    emit(Op::Call, dst, fn, self, node.line).x = args;
  }

  void construct(const js::New& node, Reg dst) {
    const Reg fn = alloc();
    expr(*node.callee, fn);
    const Reg self = alloc();
    emit(Op::NewThis, self, fn, 0, node.line);
    const std::uint32_t args = arguments(node.args);
    emit(Op::Construct, dst, fn, self, node.line).x = args;
  }

  /// Jump to `target` when `cond` is false. Relational conditions compare
  /// and branch in one instruction.
  void branch_unless(const js::Expr& cond, Label& target) {
    const Scratch scratch{next_reg_};
    const auto& node = static_cast<const js::Binary&>(cond);  // read only if Binary
    const int relation =  // Lt, Gt, Le, Ge: 0..3
        cond.kind == NodeKind::Binary ? int(node.op) - int(js::BinaryOp::Lt) : -1;
    if (relation >= 0 && relation < 4) {
      ++ticks_;
      const Reg lhs = alloc();
      const Reg rhs = alloc();
      expr(*node.lhs, lhs);
      expr(*node.rhs, rhs);
      return jump(Op(int(Op::JumpIfNotLt) + relation), target, 0, lhs, rhs, cond.line);
    }
    const Reg r = alloc();
    expr(cond, r);
    jump(Op::JumpIfFalse, target, 0, r);
  }

  // --- statements ---------------------------------------------------------

  void stmt(const js::Stmt& s) {
    ++ticks_;
    const Scratch scratch{next_reg_};
    switch (s.kind) {
      case NodeKind::Block:
        for (const js::Stmt* child : static_cast<const js::Block&>(s).statements) stmt(*child);
        return;
      case NodeKind::ExprStmt:
        expr(*static_cast<const js::ExprStmt&>(s).expr, alloc());
        return;
      case NodeKind::VarDecl:
        for (const auto& d : static_cast<const js::VarDecl&>(s).declarators) {
          if (d.init == nullptr) continue;
          const Reg r = alloc();
          expr(*d.init, r);
          var(true, resolved(d), r, s.line);
        }
        return;
      case NodeKind::FunctionDecl:
        defer(*static_cast<const js::FunctionDecl&>(s).fn, true);
        return;
      case NodeKind::If: {
        const auto& node = static_cast<const js::If&>(s);
        Label other;
        branch_unless(*node.condition, other);
        stmt(*node.consequent);
        if (node.alternate == nullptr) {
          bind(other);
          return;
        }
        Label end;
        jump(Op::Jump, end);
        bind(other);
        stmt(*node.alternate);
        bind(end);
        return;
      }
      case NodeKind::For: {
        const auto& node = static_cast<const js::For&>(s);
        if (node.init != nullptr) stmt(*node.init);
        return loop(s, js::LoopKind::For, node.loop_id, node.condition, node.update, *node.body);
      }
      case NodeKind::While: {
        const auto& node = static_cast<const js::While&>(s);
        return loop(s, js::LoopKind::While, node.loop_id, node.condition, nullptr, *node.body);
      }
      case NodeKind::DoWhile: {
        const auto& node = static_cast<const js::DoWhile&>(s);
        Label body;
        Label next;
        Label exit;
        loop_op(Op::LoopEnter, s, js::LoopKind::DoWhile, node.loop_id);
        bind(body);
        loop_op(Op::LoopIter, s, js::LoopKind::DoWhile, node.loop_id);
        loops_.push_back({&exit, &next, try_depth_, &s, js::LoopKind::DoWhile, node.loop_id});
        stmt(*node.body);
        loops_.pop_back();
        bind(next);
        Label done;
        branch_unless(*node.condition, done);
        jump(Op::Jump, body);
        bind(done);
        bind(exit);
        loop_op(Op::LoopExit, s, js::LoopKind::DoWhile, node.loop_id);
        return;
      }
      case NodeKind::ForIn: {
        const auto& node = static_cast<const js::ForIn&>(s);
        resolve(node.var_name, writable(node).var_ref);
        const Reg object = alloc();
        expr(*node.object, object);
        const Reg it = alloc();  // it: position, it + 1: end, it + 2: start
        alloc();
        alloc();
        emit(Op::ForInStart, it, object, Reg(js::LoopKind::ForIn), s.line, &node);
        Label next;
        Label exit;
        bind(next);
        jump(Op::ForInNext, exit, it, 0, 0, s.line, &node);
        loops_.push_back({&exit, &next, try_depth_, &s, js::LoopKind::ForIn, node.loop_id});
        stmt(*node.body);
        loops_.pop_back();
        jump(Op::Jump, next);
        bind(exit);
        emit(Op::ForInEnd, it, 0, Reg(js::LoopKind::ForIn), s.line).x = std::uint32_t(node.loop_id);
        return;
      }
      case NodeKind::Return: {
        const auto& node = static_cast<const js::Return&>(s);
        if (node.value != nullptr) expr(*node.value, 0);
        exit_loops(try_depth_);
        emit(Op::Return, 0, 0, node.value == nullptr ? 1 : 0);
        return;
      }
      case NodeKind::Break:
      case NodeKind::Continue: {  // a Leave when it crosses a try statement
        Label& target = loops_.empty()                 ? *end_
                        : s.kind == NodeKind::Break    ? *loops_.back().exit
                                                       : *loops_.back().next;
        const int depth = loops_.empty() ? 0 : loops_.back().try_depth;
        return jump(depth == try_depth_ ? Op::Jump : Op::Leave, target);
      }
      case NodeKind::Throw: {
        const Reg r = alloc();
        expr(*static_cast<const js::Throw&>(s).value, r);
        emit(Op::Throw, 0, r);
        return;
      }
      case NodeKind::TryCatch: return try_catch(static_cast<const js::TryCatch&>(s));
      default:  // Empty: its tick rides on the next instruction
        return;
    }
  }

  /// A for or while loop (after a for loop's init).
  void loop(const js::Stmt& s, js::LoopKind kind, int loop_id, const js::Expr* condition,
            const js::Expr* update, const js::Stmt& body) {
    Label head;
    Label next;
    Label exit;
    loop_op(Op::LoopEnter, s, kind, loop_id);
    bind(head);
    if (condition != nullptr) branch_unless(*condition, exit);
    loop_op(Op::LoopIter, s, kind, loop_id);
    loops_.push_back({&exit, &next, try_depth_, &s, kind, loop_id});
    stmt(body);
    loops_.pop_back();
    bind(next);
    if (update != nullptr) expr(*update, alloc());
    jump(Op::Jump, head);
    bind(exit);
    loop_op(Op::LoopExit, s, kind, loop_id);
  }

  void loop_op(Op op, const js::Stmt& s, js::LoopKind kind, int loop_id) {
    emit(op, 0, 0, Reg(kind), s.line).x = std::uint32_t(loop_id);
  }

  /// The loop-exit events a return fires on its way out of the loops
  /// opened at try depth `depth`, innermost first.
  void exit_loops(int depth) {
    for (auto loop = loops_.rbegin(); loop != loops_.rend() && loop->try_depth == depth; ++loop) {
      loop_op(Op::LoopExit, *loop->node, loop->kind, loop->loop_id);
    }
  }

  void try_catch(const js::TryCatch& node) {
    const auto index = std::uint32_t(out_.tries.size());
    out_.tries.push_back(TryInfo{&node});
    emit(Op::Try).x = index;
    ++try_depth_;
    stmt(*node.try_block);
    emit(Op::Exit);
    if (node.catch_block != nullptr) {
      out_.tries[index].catch_pc = pc();
      push_scope(Scope::Catch);
      declare(node.catch_param);
      const std::size_t functions_before = functions_;
      stmt(*node.catch_block);
      writable(node).recyclable_catch_scope = functions_ == functions_before;
      pop_scope();
      emit(Op::Exit);
    }
    if (node.finally_block != nullptr) {
      out_.tries[index].finally_pc = pc();
      stmt(*node.finally_block);
      emit(Op::Exit);
    }
    --try_depth_;
    out_.tries[index].ret = pc();
    exit_loops(try_depth_);
    emit(Op::Return);
    out_.tries[index].cont = pc();
  }

  Bytecode& out_;
  js::ProgramBody& program_;
  std::vector<Scope> scopes_;
  std::vector<js::Atom> names_;  // every open scope's names (see Scope)
  std::size_t functions_ = 0;    // functions met so far
  std::vector<Pending> pending_;
  std::vector<Scope> saved_scopes_;
  std::vector<js::Atom> saved_names_;
  std::vector<Loop> loops_;
  Label* end_ = nullptr;
  int try_depth_ = 0;
  std::uint32_t ticks_ = 0;
  Reg next_reg_ = 1;
  std::uint32_t max_reg_ = 1;
};

}  // namespace

Bytecode compile(const js::ProgramBody& body) {
  Bytecode out;
  out.code.reserve(body.node_count + 8);
  Compiler(out, writable(body)).run();
  return out;
}

const Bytecode& bytecode_of(const js::ProgramBody& body) {
  if (const Bytecode* code = body.bytecode.load(std::memory_order_acquire)) return *code;
  const std::lock_guard lock(body.bytecode_mutex);
  if (const Bytecode* code = body.bytecode.load(std::memory_order_relaxed)) return *code;
  const auto* code = new Bytecode(compile(body));
  body.bytecode.store(code, std::memory_order_release);
  return *code;
}

}  // namespace jsceres::interp
