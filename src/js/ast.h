#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

struct Node {
  NodeKind kind;
  int line = 0;

  // Nodes are owned as ExprPtr/StmtPtr (pointers to the base class), so
  // deletion must be virtual — without this, derived destructors never run
  // and every child vector leaks (new-delete-type-mismatch under ASan).
  // Dispatch stays kind-tagged; the vtable exists only for destruction.
  virtual ~Node() = default;

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

using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

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
  std::vector<ExprPtr> elements;
};

struct ObjectLit : Expr {
  ObjectLit() : Expr(NodeKind::ObjectLit) {}
  std::vector<std::pair<Atom, ExprPtr>> properties;
};

struct FunctionExpr;  // below, shares FunctionNode

/// Pre-computed activation layout of a function scope, filled in by
/// `resolve_scopes` from the same declaration simulation that assigns
/// (hops, slot) coordinates. The interpreter stamps a fresh activation from
/// this template — one vector copy — instead of re-running the
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

  std::vector<Atom> names;
  std::vector<std::uint32_t> param_slots;
  std::vector<std::uint32_t> fn_slots;
  /// Parallel to `names`: how the interpreter initializes each slot.
  std::vector<SlotSource> inits;
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
  std::vector<Atom> params;
  std::vector<Atom> hoisted_vars;     // all `var` names in this function
  std::vector<const struct FunctionDecl*> hoisted_functions;
  StmtPtr body;  // always a Block
  int fn_id = 0;
  int line = 0;
  /// Activation template (null on ASTs synthesized without resolve_scopes;
  /// the interpreter then falls back to the per-call declare scan).
  std::unique_ptr<ActivationLayout> layout;
};

struct FunctionExpr : Expr {
  FunctionExpr() : Expr(NodeKind::FunctionExpr) {}
  std::unique_ptr<FunctionNode> fn;
};

struct Call : Expr {
  Call() : Expr(NodeKind::Call) {}
  ExprPtr callee;
  std::vector<ExprPtr> args;
};

struct New : Expr {
  New() : Expr(NodeKind::New) {}
  ExprPtr callee;
  std::vector<ExprPtr> args;
};

struct Member : Expr {
  Member() : Expr(NodeKind::Member) {}
  ExprPtr object;
  Atom property;  // used when !computed
  ExprPtr index;  // used when computed
  bool computed = false;
  /// Index of this access site's inline cache in the interpreter's IC table
  /// (assigned by resolve_scopes to every non-computed member).
  std::uint32_t ic_id = kNoCacheId;
};

struct Assign : Expr {
  Assign() : Expr(NodeKind::Assign) {}
  AssignOp op = AssignOp::None;
  ExprPtr target;  // Ident or Member
  ExprPtr value;
};

struct Conditional : Expr {
  Conditional() : Expr(NodeKind::Conditional) {}
  ExprPtr condition;
  ExprPtr consequent;
  ExprPtr alternate;
};

struct Binary : Expr {
  Binary() : Expr(NodeKind::Binary) {}
  BinaryOp op = BinaryOp::Add;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct Logical : Expr {
  Logical() : Expr(NodeKind::Logical) {}
  LogicalOp op = LogicalOp::And;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct Unary : Expr {
  Unary() : Expr(NodeKind::Unary) {}
  UnaryOp op = UnaryOp::Neg;
  ExprPtr operand;
};

struct Update : Expr {
  Update() : Expr(NodeKind::Update) {}
  bool increment = true;
  bool prefix = false;
  ExprPtr target;  // Ident or Member
};

struct Sequence : Expr {
  Sequence() : Expr(NodeKind::Sequence) {}
  std::vector<ExprPtr> exprs;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct VarDecl : Stmt {
  VarDecl() : Stmt(NodeKind::VarDecl) {}
  struct Declarator {
    Atom name;
    SlotRef ref;
    ExprPtr init;  // may be null
  };
  std::vector<Declarator> declarators;
};

struct FunctionDecl : Stmt {
  FunctionDecl() : Stmt(NodeKind::FunctionDecl) {}
  std::unique_ptr<FunctionNode> fn;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(NodeKind::ExprStmt) {}
  ExprPtr expr;
};

struct If : Stmt {
  If() : Stmt(NodeKind::If) {}
  ExprPtr condition;
  StmtPtr consequent;
  StmtPtr alternate;  // may be null
};

/// Loop kind recorded in the loop table; used by the dependence reports to
/// render the paper's "while(line 24) ok ok -> for(line 6) ok dependence"
/// characterization lists.
enum class LoopKind { For, ForIn, While, DoWhile };

struct For : Stmt {
  For() : Stmt(NodeKind::For) {}
  StmtPtr init;       // VarDecl or ExprStmt or null
  ExprPtr condition;  // may be null (infinite)
  ExprPtr update;     // may be null
  StmtPtr body;
  int loop_id = 0;
};

struct ForIn : Stmt {
  ForIn() : Stmt(NodeKind::ForIn) {}
  Atom var_name;
  SlotRef var_ref;
  bool declares_var = false;
  ExprPtr object;
  StmtPtr body;
  int loop_id = 0;
};

struct While : Stmt {
  While() : Stmt(NodeKind::While) {}
  ExprPtr condition;
  StmtPtr body;
  int loop_id = 0;
};

struct DoWhile : Stmt {
  DoWhile() : Stmt(NodeKind::DoWhile) {}
  ExprPtr condition;
  StmtPtr body;
  int loop_id = 0;
};

struct Block : Stmt {
  Block() : Stmt(NodeKind::Block) {}
  std::vector<StmtPtr> statements;
};

struct Return : Stmt {
  Return() : Stmt(NodeKind::Return) {}
  ExprPtr value;  // may be null
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
  ExprPtr value;
};

struct TryCatch : Stmt {
  TryCatch() : Stmt(NodeKind::TryCatch) {}
  StmtPtr try_block;
  Atom catch_param;
  StmtPtr catch_block;  // may be null when only finally is present
  StmtPtr finally_block;  // may be null
};

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
struct ProgramBody {
  ProgramBody();
  ~ProgramBody();

  mutable AtomSpace atoms;  // declared first: destroyed last
  std::unique_ptr<const interp::Shape> shape_root;
  std::vector<StmtPtr> statements;
  std::vector<Atom> hoisted_vars;
  std::vector<const FunctionDecl*> hoisted_functions;
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
  /// The body, for the three friends; throws std::logic_error when another
  /// handle shares it (a rewrite under a running interpreter).
  ProgramBody& mut();

  std::shared_ptr<ProgramBody> body_;
};

}  // namespace jsceres::js
