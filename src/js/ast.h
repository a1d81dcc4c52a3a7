#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "js/atom.h"

namespace jsceres {
struct EngineLimits;
}

namespace jsceres::interp {
class Shape;
}

namespace jsceres::js {

struct RefactorReport;

/// AST node discriminator. The interpreter dispatches on this enum; keeping
/// the AST as plain data (instead of virtual eval methods) lets multiple
/// consumers — interpreter, static loop scanner, printer — share one tree.
enum class NodeKind {
  // Expressions
  NumberLit,
  StringLit,
  BoolLit,
  NullLit,
  Ident,
  ThisExpr,
  ArrayLit,
  ObjectLit,
  FunctionExpr,
  Call,
  New,
  Member,
  Assign,
  Conditional,
  Binary,
  Logical,
  Unary,
  Update,
  Sequence,
  // Statements
  VarDecl,
  FunctionDecl,
  ExprStmt,
  If,
  For,
  ForIn,
  While,
  DoWhile,
  Block,
  Return,
  Break,
  Continue,
  Empty,
  Throw,
  TryCatch,
};

enum class BinaryOp {
  Add, Sub, Mul, Div, Mod,
  BitAnd, BitOr, BitXor, Shl, Shr, UShr,
  Lt, Gt, Le, Ge,
  Eq, Ne, StrictEq, StrictNe,
  In, InstanceOf,
};

enum class LogicalOp { And, Or };

enum class UnaryOp { Neg, Plus, Not, BitNot, TypeOf, Delete };

/// Compound-assignment operator; `None` means plain `=`.
enum class AssignOp { None, Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor, Shl, Shr };

/// Nodes are plain data in their ProgramBody's arena (see ProgramBody):
/// ExprPtr/StmtPtr and every child list are non-owning, no node has a
/// destructor to run, and the body frees the whole tree in one step.
/// Dispatch is kind-tagged, so a node carries no vtable.
struct Node {
  NodeKind kind;
  int line = 0;

 protected:
  explicit Node(NodeKind k) : kind(k) {}
};

struct Expr : Node {
 protected:
  using Node::Node;
};

struct Stmt : Node {
 protected:
  using Node::Node;
};

using ExprPtr = Expr*;
using StmtPtr = Stmt*;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct NumberLit : Expr {
  NumberLit() : Expr(NodeKind::NumberLit) {}
  double value = 0;
};

struct StringLit : Expr {
  StringLit() : Expr(NodeKind::StringLit) {}
  Atom value;  // interned once at lex time; eval shares the text, no copy
};

struct BoolLit : Expr {
  BoolLit() : Expr(NodeKind::BoolLit) {}
  bool value = false;
};

struct NullLit : Expr {
  NullLit() : Expr(NodeKind::NullLit) {}
};

/// Static resolution of one identifier reference, filled in by
/// `resolve_scopes` after parsing. `hops >= 0` means the binding lives in a
/// statically known activation: walk `hops` environments up the chain and
/// index `slot` directly — no name hashing at all. `hops < 0` means the name
/// resolves to the global object (or is late-bound); `ref_id` then indexes a
/// per-interpreter cache of resolved global slot indices, so even globals pay
/// the hash lookup only once per program point.
/// Sentinel for SlotRef::ref_id / Member::ic_id on nodes that never went
/// through resolve_scopes (e.g. freshly synthesized by an AST rewriter): the
/// interpreter then falls back to fully dynamic resolution with no caching.
inline constexpr std::uint32_t kNoCacheId = 0xffffffffu;

struct SlotRef {
  std::int32_t hops = -1;
  std::uint32_t slot = 0;
  std::uint32_t ref_id = kNoCacheId;
};

struct Ident : Expr {
  Ident() : Expr(NodeKind::Ident) {}
  Atom name;
  SlotRef ref;
};

struct ThisExpr : Expr {
  ThisExpr() : Expr(NodeKind::ThisExpr) {}
};

struct ArrayLit : Expr {
  ArrayLit() : Expr(NodeKind::ArrayLit) {}
  std::span<ExprPtr> elements;
};

struct ObjectLit : Expr {
  ObjectLit() : Expr(NodeKind::ObjectLit) {}
  std::span<std::pair<Atom, ExprPtr>> properties;
};

struct FunctionExpr;  // below, shares FunctionNode

/// Pre-computed activation layout of a function scope, filled in by
/// `resolve_scopes` from the same declaration simulation that assigns
/// (hops, slot) coordinates. The interpreter stamps a fresh activation from
/// this template — one array copy — instead of re-running the
/// per-name declare scan (params, hoisted vars, hoisted functions) on every
/// call. `names` is the final slot order; `param_slots[i]` / `fn_slots[j]`
/// say where parameter i / hoisted function j land (duplicates share their
/// first slot, mirroring Environment::declare).
struct ActivationLayout {
  /// Provenance of each slot's entry value, proved by the resolver's
  /// declaration simulation. Param and Fn slots are written at function
  /// entry strictly before any body statement can read them — so stamping
  /// an activation can materialize their entry value directly and skip the
  /// undefined zero-fill (the ROADMAP "written before read" lever). Zero
  /// slots (plain hoisted vars) genuinely need the undefined fill: `var x`
  /// is readable before its first assignment.
  enum class SlotInit : std::uint8_t { Zero, Param, Fn };
  struct SlotSource {
    SlotInit kind = SlotInit::Zero;
    std::uint32_t index = 0;  // param index / hoisted-function index
  };

  std::span<Atom> names;
  std::span<std::uint32_t> param_slots;
  std::span<std::uint32_t> fn_slots;
  /// Parallel to `names`: how the interpreter initializes each slot.
  std::span<SlotSource> inits;
  /// False when hoisted-function slots are not strictly increasing (a
  /// function re-binds a parameter or an earlier function's name): the
  /// interpreter then stores functions with the legacy ordered loop so
  /// object-creation order (ids, hook events, cost ticks) is bit-identical
  /// to the declare-scan path.
  bool fns_in_slot_order = true;
};

/// A function body shared by declarations and expressions. The parser
/// pre-computes the `var`-hoisted local names (JavaScript has function
/// scoping, which is load-bearing for the paper's dependence analysis: a
/// `var` declared textually inside a loop still names one binding shared by
/// every iteration) and assigns a process-unique `fn_id` used by the
/// sampling profiler and the call-stack instrumentation.
struct FunctionNode {
  Atom name;  // empty for anonymous function expressions
  std::span<Atom> params;
  std::span<Atom> hoisted_vars;  // all `var` names in this function
  std::span<const struct FunctionDecl*> hoisted_functions;
  StmtPtr body = nullptr;  // always a Block
  int fn_id = 0;
  int line = 0;
  /// Activation template (null on ASTs synthesized without resolve_scopes;
  /// the interpreter then falls back to the per-call declare scan).
  const ActivationLayout* layout = nullptr;
  /// Set by resolve_scopes when the body contains no function, so no
  /// closure can capture the activation: the interpreter reuses it once
  /// the call exits.
  bool recyclable_activation = false;
};

struct FunctionExpr : Expr {
  FunctionExpr() : Expr(NodeKind::FunctionExpr) {}
  FunctionNode* fn = nullptr;
};

struct Call : Expr {
  Call() : Expr(NodeKind::Call) {}
  ExprPtr callee = nullptr;
  std::span<ExprPtr> args;
};

struct New : Expr {
  New() : Expr(NodeKind::New) {}
  ExprPtr callee = nullptr;
  std::span<ExprPtr> args;
};

struct Member : Expr {
  Member() : Expr(NodeKind::Member) {}
  ExprPtr object = nullptr;
  Atom property;  // used when !computed
  ExprPtr index = nullptr;  // used when computed
  bool computed = false;
  /// Index of this access site's inline cache in the interpreter's IC table
  /// (assigned by resolve_scopes to every non-computed member).
  std::uint32_t ic_id = kNoCacheId;
};

struct Assign : Expr {
  Assign() : Expr(NodeKind::Assign) {}
  AssignOp op = AssignOp::None;
  ExprPtr target = nullptr;  // Ident or Member
  ExprPtr value = nullptr;
};

struct Conditional : Expr {
  Conditional() : Expr(NodeKind::Conditional) {}
  ExprPtr condition = nullptr;
  ExprPtr consequent = nullptr;
  ExprPtr alternate = nullptr;
};

struct Binary : Expr {
  Binary() : Expr(NodeKind::Binary) {}
  BinaryOp op = BinaryOp::Add;
  ExprPtr lhs = nullptr;
  ExprPtr rhs = nullptr;
};

struct Logical : Expr {
  Logical() : Expr(NodeKind::Logical) {}
  LogicalOp op = LogicalOp::And;
  ExprPtr lhs = nullptr;
  ExprPtr rhs = nullptr;
};

struct Unary : Expr {
  Unary() : Expr(NodeKind::Unary) {}
  UnaryOp op = UnaryOp::Neg;
  ExprPtr operand = nullptr;
};

struct Update : Expr {
  Update() : Expr(NodeKind::Update) {}
  bool increment = true;
  bool prefix = false;
  ExprPtr target = nullptr;  // Ident or Member
};

struct Sequence : Expr {
  Sequence() : Expr(NodeKind::Sequence) {}
  std::span<ExprPtr> exprs;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct VarDecl : Stmt {
  VarDecl() : Stmt(NodeKind::VarDecl) {}
  struct Declarator {
    Atom name;
    SlotRef ref;
    ExprPtr init = nullptr;
  };
  std::span<Declarator> declarators;
};

struct FunctionDecl : Stmt {
  FunctionDecl() : Stmt(NodeKind::FunctionDecl) {}
  FunctionNode* fn = nullptr;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(NodeKind::ExprStmt) {}
  ExprPtr expr = nullptr;
};

struct If : Stmt {
  If() : Stmt(NodeKind::If) {}
  ExprPtr condition = nullptr;
  StmtPtr consequent = nullptr;
  StmtPtr alternate = nullptr;  // may be null
};

/// Loop kind recorded in the loop table; used by the dependence reports to
/// render the paper's "while(line 24) ok ok -> for(line 6) ok dependence"
/// characterization lists.
enum class LoopKind { For, ForIn, While, DoWhile };

struct For : Stmt {
  For() : Stmt(NodeKind::For) {}
  StmtPtr init = nullptr;       // VarDecl or ExprStmt or null
  ExprPtr condition = nullptr;  // may be null (infinite)
  ExprPtr update = nullptr;     // may be null
  StmtPtr body = nullptr;
  int loop_id = 0;
};

struct ForIn : Stmt {
  ForIn() : Stmt(NodeKind::ForIn) {}
  Atom var_name;
  SlotRef var_ref;
  bool declares_var = false;
  ExprPtr object = nullptr;
  StmtPtr body = nullptr;
  int loop_id = 0;
};

struct While : Stmt {
  While() : Stmt(NodeKind::While) {}
  ExprPtr condition = nullptr;
  StmtPtr body = nullptr;
  int loop_id = 0;
};

struct DoWhile : Stmt {
  DoWhile() : Stmt(NodeKind::DoWhile) {}
  ExprPtr condition = nullptr;
  StmtPtr body = nullptr;
  int loop_id = 0;
};

struct Block : Stmt {
  Block() : Stmt(NodeKind::Block) {}
  std::span<StmtPtr> statements;
};

struct Return : Stmt {
  Return() : Stmt(NodeKind::Return) {}
  ExprPtr value = nullptr;  // may be null
};

struct Break : Stmt {
  Break() : Stmt(NodeKind::Break) {}
};

struct Continue : Stmt {
  Continue() : Stmt(NodeKind::Continue) {}
};

struct Empty : Stmt {
  Empty() : Stmt(NodeKind::Empty) {}
};

struct Throw : Stmt {
  Throw() : Stmt(NodeKind::Throw) {}
  ExprPtr value = nullptr;
};

struct TryCatch : Stmt {
  TryCatch() : Stmt(NodeKind::TryCatch) {}
  StmtPtr try_block = nullptr;
  Atom catch_param;
  StmtPtr catch_block = nullptr;  // may be null when only finally is present
  StmtPtr finally_block = nullptr;  // may be null
  /// Set by resolve_scopes when the catch block contains no function, so
  /// no closure can capture its scope (see FunctionNode).
  bool recyclable_catch_scope = false;
};

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

[[nodiscard]] constexpr bool is_statement(NodeKind kind) { return kind >= NodeKind::VarDecl; }

namespace detail {
/// T, const-qualified like N.
template <class T, class N>
using Like = std::conditional_t<std::is_const_v<N>, const T, T>;
}  // namespace detail

/// Calls `fn` on each non-null child node of `node`, in evaluation order
/// (a For's init, condition, update, body; a DoWhile's body, then its
/// condition). A function's child is its body. `N` is Node or const Node;
/// `fn` takes an `N&`. Walkers handle the kinds they care about and leave
/// the rest to this.
template <class N, class Fn>
void for_each_child(N& node, Fn&& fn) {
  using detail::Like;
  const auto visit = [&fn](Node* child) {
    if (child != nullptr) fn(*child);
  };
  const auto visit_all = [&visit](auto& children) {
    for (Node* child : children) visit(child);
  };
  switch (node.kind) {
    case NodeKind::ArrayLit: return visit_all(static_cast<Like<ArrayLit, N>&>(node).elements);
    case NodeKind::ObjectLit:
      for (const auto& property : static_cast<Like<ObjectLit, N>&>(node).properties) {
        visit(property.second);
      }
      return;
    case NodeKind::FunctionExpr: return visit(static_cast<Like<FunctionExpr, N>&>(node).fn->body);
    case NodeKind::Call: {
      auto& call = static_cast<Like<Call, N>&>(node);
      visit(call.callee);
      return visit_all(call.args);
    }
    case NodeKind::New: {
      auto& call = static_cast<Like<New, N>&>(node);
      visit(call.callee);
      return visit_all(call.args);
    }
    case NodeKind::Member: {
      auto& member = static_cast<Like<Member, N>&>(node);
      visit(member.object);
      return visit(member.index);
    }
    case NodeKind::Assign: {
      auto& assign = static_cast<Like<Assign, N>&>(node);
      visit(assign.target);
      return visit(assign.value);
    }
    case NodeKind::Conditional: {
      auto& cond = static_cast<Like<Conditional, N>&>(node);
      visit(cond.condition);
      visit(cond.consequent);
      return visit(cond.alternate);
    }
    case NodeKind::Binary: {
      auto& binary = static_cast<Like<Binary, N>&>(node);
      visit(binary.lhs);
      return visit(binary.rhs);
    }
    case NodeKind::Logical: {
      auto& logical = static_cast<Like<Logical, N>&>(node);
      visit(logical.lhs);
      return visit(logical.rhs);
    }
    case NodeKind::Unary: return visit(static_cast<Like<Unary, N>&>(node).operand);
    case NodeKind::Update: return visit(static_cast<Like<Update, N>&>(node).target);
    case NodeKind::Sequence: return visit_all(static_cast<Like<Sequence, N>&>(node).exprs);
    case NodeKind::VarDecl:
      for (const auto& d : static_cast<Like<VarDecl, N>&>(node).declarators) visit(d.init);
      return;
    case NodeKind::FunctionDecl: return visit(static_cast<Like<FunctionDecl, N>&>(node).fn->body);
    case NodeKind::ExprStmt: return visit(static_cast<Like<ExprStmt, N>&>(node).expr);
    case NodeKind::If: {
      auto& branch = static_cast<Like<If, N>&>(node);
      visit(branch.condition);
      visit(branch.consequent);
      return visit(branch.alternate);
    }
    case NodeKind::For: {
      auto& loop = static_cast<Like<For, N>&>(node);
      visit(loop.init);
      visit(loop.condition);
      visit(loop.update);
      return visit(loop.body);
    }
    case NodeKind::ForIn: {
      auto& loop = static_cast<Like<ForIn, N>&>(node);
      visit(loop.object);
      return visit(loop.body);
    }
    case NodeKind::While: {
      auto& loop = static_cast<Like<While, N>&>(node);
      visit(loop.condition);
      return visit(loop.body);
    }
    case NodeKind::DoWhile: {
      auto& loop = static_cast<Like<DoWhile, N>&>(node);
      visit(loop.body);
      return visit(loop.condition);
    }
    case NodeKind::Block: return visit_all(static_cast<Like<Block, N>&>(node).statements);
    case NodeKind::Return: return visit(static_cast<Like<Return, N>&>(node).value);
    case NodeKind::Throw: return visit(static_cast<Like<Throw, N>&>(node).value);
    case NodeKind::TryCatch: {
      auto& handler = static_cast<Like<TryCatch, N>&>(node);
      visit(handler.try_block);
      visit(handler.catch_block);
      return visit(handler.finally_block);
    }
    default: return;
  }
}

// ---------------------------------------------------------------------------
// Program and loop table
// ---------------------------------------------------------------------------

/// Static description of one syntactic loop, recorded at parse time.
struct LoopSite {
  int loop_id = 0;
  LoopKind kind = LoopKind::For;
  int line = 0;
  int enclosing_fn_id = 0;  // 0 == top level
  /// The loop's AST node (owned by the Program; valid for its lifetime).
  const Stmt* stmt = nullptr;
};

/// The induction variable of a canonical `for` (the identifier incremented
/// or reassigned in the update clause), or "" when the loop has none.
std::string induction_variable_of(const LoopSite& site);

const char* loop_kind_name(LoopKind kind);

/// One-pass static scope resolution: annotates every identifier reference
/// (Ident, VarDecl declarator, ForIn loop variable) with a (hops, slot)
/// coordinate when the binding's activation layout is statically known, and
/// assigns global-cache / inline-cache ids. `parse` calls this automatically;
/// AST-rewriting tools (js/refactor) must call it again after mutating a
/// program. Idempotent.
void resolve_scopes(class Program& program);

/// What a Program's copies share: the AST, the loop table, the top-level
/// hoisting information (top-level `var`s become globals), and the
/// program's universe — the atom space every name of its parse and runs is
/// interned into, and the root of the shape tree every object of its
/// interpreters hangs off (interp/shape.h). The space and the tree grow
/// under a const body (they are internally synchronized, and growth never
/// changes an answer already given).
///
/// Every AST node, child list and activation layout lives in the body's
/// bump arena and is freed with it in one step; nothing there has a
/// destructor to run. Nodes a rewrite unlinks stay until the body dies.
struct ProgramBody {
  /// `source_bytes` sizes the arena's first chunk (see program.cpp).
  explicit ProgramBody(std::size_t source_bytes = 0);
  ~ProgramBody();

  mutable AtomSpace atoms;  // declared first: destroyed last
  std::pmr::monotonic_buffer_resource arena;
  std::unique_ptr<const interp::Shape> shape_root;
  std::span<StmtPtr> statements;
  std::span<Atom> hoisted_vars;
  std::span<const FunctionDecl*> hoisted_functions;
  std::vector<LoopSite> loops;        // indexed by loop_id - 1
  std::vector<std::string> fn_names;  // indexed by fn_id - 1
  std::string source_name;
  /// Sizes of the per-interpreter caches (filled by resolve_scopes).
  std::uint32_t global_ref_count = 0;  // SlotRef::ref_id domain
  std::uint32_t ic_count = 0;          // Member::ic_id domain

  [[nodiscard]] const LoopSite& loop(int loop_id) const {
    return loops.at(std::size_t(loop_id) - 1);
  }
  [[nodiscard]] int loop_count() const { return int(loops.size()); }

  /// First loop whose source line equals `line`, or 0 when none matches.
  [[nodiscard]] int loop_id_at_line(int line) const {
    for (const auto& site : loops) {
      if (site.line == line) return site.loop_id;
    }
    return 0;
  }

  /// A value-initialized T in the arena.
  template <class T>
  T* make() {
    static_assert(std::is_trivially_destructible_v<T>, "the arena runs no destructor");
    return ::new (arena.allocate(sizeof(T), alignof(T))) T();
  }

  /// `n` value-initialized Ts in the arena.
  template <class T>
  std::span<T> array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>, "the arena runs no destructor");
    if (n == 0) return {};
    T* out = static_cast<T*>(arena.allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(out, n);
    return {out, n};
  }

  /// A copy of `items` in the arena.
  template <class T>
  std::span<T> list(std::span<const T> items) {
    static_assert(std::is_trivially_destructible_v<T>, "the arena runs no destructor");
    if (items.empty()) return {};
    T* out = static_cast<T*>(arena.allocate(items.size_bytes(), alignof(T)));
    std::uninitialized_copy(items.begin(), items.end(), out);
    return {out, items.size()};
  }
};

/// A parsed compilation unit: a cheap handle whose copies share one
/// ProgramBody, freed when the last copy goes. Every Interpreter and
/// DependenceAnalyzer keeps a copy, so a program lives as long as anything
/// that runs it. A default-constructed Program is the empty program. Only
/// the parser, the resolver and js/refactor mutate the body, and only while
/// their handle is its only one.
class Program {
 public:
  Program();

  const ProgramBody* operator->() const noexcept { return body_.get(); }

 private:
  friend Program parse(std::string_view source, std::string source_name,
                       const EngineLimits& limits);
  friend void resolve_scopes(Program& program);
  friend RefactorReport to_functional(Program& program);
  explicit Program(std::size_t source_bytes);
  /// The body, for the three friends; throws std::logic_error when another
  /// handle shares it (a rewrite under a running interpreter).
  ProgramBody& mut();

  std::shared_ptr<ProgramBody> body_;
};

}  // namespace jsceres::js
