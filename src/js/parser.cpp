#include "js/parser.h"

#include <span>
#include <type_traits>
#include <utility>

#include "js/lexer.h"

namespace jsceres::js {

namespace {

class Parser {
 public:
  /// `program` arrives empty but for its name and the atom space `tokens`
  /// were interned into.
  Parser(std::vector<Token> tokens, ProgramBody& program, int max_depth)
      : tokens_(std::move(tokens)), program_(program), max_depth_(max_depth) {}

  void run() {
    // The top level behaves like a function body for hoisting purposes.
    HoistScope top(this, /*fn_id=*/0);
    while (!check(Tok::Eof)) stmts_.push_back(parse_statement());
    program_.statements = take(stmts_, 0);
    program_.hoisted_vars = take(atoms_, top.var_mark);
    program_.hoisted_functions = take(fns_, top.fn_mark);
  }

 private:
  // -- hoisting ------------------------------------------------------------

  /// Collects `var` names and function declarations for the function being
  /// parsed. JavaScript's function scoping means every `var` in the body —
  /// including ones textually inside loops — belongs to the enclosing
  /// function's environment; the interpreter materializes them at call time.
  /// Its names and declarations sit on the parser's scratch stacks above
  /// `var_mark` and `fn_mark`.
  struct HoistScope {
    explicit HoistScope(Parser* parser, int fn_id)
        : parser(parser),
          previous(parser->hoist_),
          fn_id(fn_id),
          var_mark(parser->atoms_.size()),
          fn_mark(parser->fns_.size()) {
      parser->hoist_ = this;
    }
    ~HoistScope() { parser->hoist_ = previous; }

    void add_var(Atom name) {
      std::vector<Atom>& vars = parser->atoms_;
      for (std::size_t i = var_mark; i < vars.size(); ++i) {
        if (vars[i] == name) return;
      }
      vars.push_back(name);
    }

    Parser* parser;
    HoistScope* previous;
    int fn_id;
    std::size_t var_mark;
    std::size_t fn_mark;
  };

  // -- arena ---------------------------------------------------------------

  template <class T>
  T* make() {
    if constexpr (std::is_base_of_v<Node, T>) ++program_.node_count;
    return program_.make<T>();
  }

  /// Moves the items above `mark` off a scratch stack into the arena. A
  /// list's items stay on the stack until it is complete; a list nested in
  /// it completes first and takes only its own, so one stack per item type
  /// serves every depth.
  template <class T>
  std::span<T> take(std::vector<T>& scratch, std::size_t mark) {
    const std::span<T> out = program_.list(std::span<const T>(scratch).subspan(mark));
    scratch.resize(mark);
    return out;
  }

  // -- token plumbing --------------------------------------------------------

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  [[nodiscard]] bool check(Tok kind) const { return peek().kind == kind; }
  const Token& advance() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }
  bool match(Tok kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(Tok kind, const char* context) {
    if (!check(kind)) {
      throw ParseError(std::string("expected ") + tok_name(kind) + " in " +
                           context + ", found " + tok_name(peek().kind),
                       peek().line);
    }
    return advance();
  }
  [[nodiscard]] int line() const { return peek().line; }

  // -- recursion cap ---------------------------------------------------------

  /// Counts live recursive-descent frames. Guards sit at the three points
  /// every recursion cycle passes through — parse_statement (blocks,
  /// if/loop bodies), parse_unary (prefix-operator chains) and
  /// parse_primary (parens, literals, `new` chains, function expressions) —
  /// so crafted nesting trips a recoverable ParseError long before the
  /// native stack runs out.
  struct DepthGuard {
    explicit DepthGuard(Parser* parser) : parser(parser) {
      if (++parser->depth_ > parser->max_depth_) {
        throw ParseError("nesting too deep (limit " +
                             std::to_string(parser->max_depth_) + " levels)",
                         parser->line());
      }
    }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  // -- statements ------------------------------------------------------------

  StmtPtr parse_statement() {
    const DepthGuard guard(this);
    switch (peek().kind) {
      case Tok::LBrace: return parse_block();
      case Tok::KwVar: {
        auto decl = parse_var_decl();
        expect(Tok::Semicolon, "variable declaration");
        return decl;
      }
      case Tok::KwFunction: return parse_function_decl();
      case Tok::KwIf: return parse_if();
      case Tok::KwFor: return parse_for();
      case Tok::KwWhile: return parse_while();
      case Tok::KwDo: return parse_do_while();
      case Tok::KwReturn: return parse_return();
      case Tok::KwBreak: {
        auto node = make<Break>();
        node->line = line();
        advance();
        expect(Tok::Semicolon, "break statement");
        return node;
      }
      case Tok::KwContinue: {
        auto node = make<Continue>();
        node->line = line();
        advance();
        expect(Tok::Semicolon, "continue statement");
        return node;
      }
      case Tok::Semicolon: {
        auto node = make<Empty>();
        node->line = line();
        advance();
        return node;
      }
      case Tok::KwThrow: {
        auto node = make<Throw>();
        node->line = line();
        advance();
        node->value = parse_expression();
        expect(Tok::Semicolon, "throw statement");
        return node;
      }
      case Tok::KwTry: return parse_try();
      default: {
        auto node = make<ExprStmt>();
        node->line = line();
        node->expr = parse_expression();
        expect(Tok::Semicolon, "expression statement");
        return node;
      }
    }
  }

  StmtPtr parse_block() {
    auto block = make<Block>();
    block->line = line();
    expect(Tok::LBrace, "block");
    const std::size_t mark = stmts_.size();
    while (!check(Tok::RBrace)) {
      if (check(Tok::Eof)) throw ParseError("unterminated block", block->line);
      stmts_.push_back(parse_statement());
    }
    block->statements = take(stmts_, mark);
    expect(Tok::RBrace, "block");
    return block;
  }

  VarDecl* parse_var_decl() {
    auto decl = make<VarDecl>();
    decl->line = line();
    expect(Tok::KwVar, "variable declaration");
    const std::size_t mark = decls_.size();
    while (true) {
      VarDecl::Declarator d;
      d.name = expect(Tok::Ident, "variable declaration").atom;
      hoist_->add_var(d.name);
      if (match(Tok::Assign)) d.init = parse_assignment();
      decls_.push_back(d);
      if (!match(Tok::Comma)) break;
    }
    decl->declarators = take(decls_, mark);
    return decl;
  }

  FunctionNode* parse_function_tail(bool require_name) {
    auto fn = make<FunctionNode>();
    fn->line = line();
    fn->fn_id = next_fn_id_++;
    if (check(Tok::Ident)) {
      fn->name = advance().atom;
    } else if (require_name) {
      throw ParseError("function declaration requires a name", line());
    }
    program_.fn_names.push_back(fn->name.empty() ? std::string("<anonymous>")
                                                 : fn->name.str());
    expect(Tok::LParen, "function parameter list");
    const std::size_t mark = atoms_.size();
    if (!check(Tok::RParen)) {
      while (true) {
        atoms_.push_back(expect(Tok::Ident, "parameter list").atom);
        if (!match(Tok::Comma)) break;
      }
    }
    fn->params = take(atoms_, mark);
    expect(Tok::RParen, "function parameter list");
    {
      HoistScope scope(this, fn->fn_id);
      fn->body = parse_block();
      fn->hoisted_vars = take(atoms_, scope.var_mark);
      fn->hoisted_functions = take(fns_, scope.fn_mark);
    }
    return fn;
  }

  StmtPtr parse_function_decl() {
    auto decl = make<FunctionDecl>();
    decl->line = line();
    expect(Tok::KwFunction, "function declaration");
    decl->fn = parse_function_tail(/*require_name=*/true);
    fns_.push_back(decl);
    return decl;
  }

  StmtPtr parse_if() {
    auto node = make<If>();
    node->line = line();
    expect(Tok::KwIf, "if statement");
    expect(Tok::LParen, "if condition");
    node->condition = parse_expression();
    expect(Tok::RParen, "if condition");
    node->consequent = parse_statement();
    if (match(Tok::KwElse)) node->alternate = parse_statement();
    return node;
  }

  int register_loop(LoopKind kind, int loop_line, const Stmt* node = nullptr) {
    LoopSite site;
    site.loop_id = int(program_.loops.size()) + 1;
    site.kind = kind;
    site.line = loop_line;
    site.enclosing_fn_id = hoist_->fn_id;
    site.stmt = node;
    program_.loops.push_back(site);
    return site.loop_id;
  }

  StmtPtr parse_for() {
    const int for_line = line();
    expect(Tok::KwFor, "for statement");
    expect(Tok::LParen, "for header");

    // Disambiguate for-in from the classic three-clause form.
    if (check(Tok::KwVar) && peek(1).kind == Tok::Ident && peek(2).kind == Tok::KwIn) {
      auto node = make<ForIn>();
      node->line = for_line;
      advance();  // var
      node->var_name = advance().atom;
      node->declares_var = true;
      hoist_->add_var(node->var_name);
      advance();  // in
      node->object = parse_expression();
      expect(Tok::RParen, "for-in header");
      node->loop_id = register_loop(LoopKind::ForIn, for_line, node);
      node->body = parse_statement();
      return node;
    }
    if (check(Tok::Ident) && peek(1).kind == Tok::KwIn) {
      auto node = make<ForIn>();
      node->line = for_line;
      node->var_name = advance().atom;
      advance();  // in
      node->object = parse_expression();
      expect(Tok::RParen, "for-in header");
      node->loop_id = register_loop(LoopKind::ForIn, for_line, node);
      node->body = parse_statement();
      return node;
    }

    auto node = make<For>();
    node->line = for_line;
    if (match(Tok::Semicolon)) {
      // no init
    } else if (check(Tok::KwVar)) {
      node->init = parse_var_decl();
      expect(Tok::Semicolon, "for header");
    } else {
      auto init = make<ExprStmt>();
      init->line = line();
      init->expr = parse_expression();
      node->init = init;
      expect(Tok::Semicolon, "for header");
    }
    if (!check(Tok::Semicolon)) node->condition = parse_expression();
    expect(Tok::Semicolon, "for header");
    if (!check(Tok::RParen)) node->update = parse_expression();
    expect(Tok::RParen, "for header");
    node->loop_id = register_loop(LoopKind::For, for_line, node);
    node->body = parse_statement();
    return node;
  }

  StmtPtr parse_while() {
    auto node = make<While>();
    node->line = line();
    expect(Tok::KwWhile, "while statement");
    expect(Tok::LParen, "while condition");
    node->condition = parse_expression();
    expect(Tok::RParen, "while condition");
    node->loop_id = register_loop(LoopKind::While, node->line, node);
    node->body = parse_statement();
    return node;
  }

  StmtPtr parse_do_while() {
    auto node = make<DoWhile>();
    node->line = line();
    expect(Tok::KwDo, "do-while statement");
    node->loop_id = register_loop(LoopKind::DoWhile, node->line, node);
    node->body = parse_statement();
    expect(Tok::KwWhile, "do-while statement");
    expect(Tok::LParen, "do-while condition");
    node->condition = parse_expression();
    expect(Tok::RParen, "do-while condition");
    expect(Tok::Semicolon, "do-while statement");
    return node;
  }

  StmtPtr parse_return() {
    auto node = make<Return>();
    node->line = line();
    expect(Tok::KwReturn, "return statement");
    if (!check(Tok::Semicolon)) node->value = parse_expression();
    expect(Tok::Semicolon, "return statement");
    return node;
  }

  StmtPtr parse_try() {
    auto node = make<TryCatch>();
    node->line = line();
    expect(Tok::KwTry, "try statement");
    node->try_block = parse_block();
    if (match(Tok::KwCatch)) {
      expect(Tok::LParen, "catch clause");
      node->catch_param = expect(Tok::Ident, "catch clause").atom;
      expect(Tok::RParen, "catch clause");
      node->catch_block = parse_block();
    }
    if (match(Tok::KwFinally)) node->finally_block = parse_block();
    if (!node->catch_block && !node->finally_block) {
      throw ParseError("try requires catch or finally", node->line);
    }
    return node;
  }

  // -- expressions -----------------------------------------------------------

  ExprPtr parse_expression() {
    ExprPtr first = parse_assignment();
    if (!check(Tok::Comma)) return first;
    auto seq = make<Sequence>();
    seq->line = first->line;
    const std::size_t mark = exprs_.size();
    exprs_.push_back(first);
    while (match(Tok::Comma)) exprs_.push_back(parse_assignment());
    seq->exprs = take(exprs_, mark);
    return seq;
  }

  static AssignOp assign_op_for(Tok kind) {
    switch (kind) {
      case Tok::Assign: return AssignOp::None;
      case Tok::PlusAssign: return AssignOp::Add;
      case Tok::MinusAssign: return AssignOp::Sub;
      case Tok::StarAssign: return AssignOp::Mul;
      case Tok::SlashAssign: return AssignOp::Div;
      case Tok::PercentAssign: return AssignOp::Mod;
      case Tok::AmpAssign: return AssignOp::BitAnd;
      case Tok::PipeAssign: return AssignOp::BitOr;
      case Tok::CaretAssign: return AssignOp::BitXor;
      case Tok::ShlAssign: return AssignOp::Shl;
      case Tok::ShrAssign: return AssignOp::Shr;
      default: return AssignOp::None;
    }
  }

  static bool is_assign_tok(Tok kind) {
    switch (kind) {
      case Tok::Assign:
      case Tok::PlusAssign:
      case Tok::MinusAssign:
      case Tok::StarAssign:
      case Tok::SlashAssign:
      case Tok::PercentAssign:
      case Tok::AmpAssign:
      case Tok::PipeAssign:
      case Tok::CaretAssign:
      case Tok::ShlAssign:
      case Tok::ShrAssign:
        return true;
      default:
        return false;
    }
  }

  ExprPtr parse_assignment() {
    ExprPtr target = parse_conditional();
    if (!is_assign_tok(peek().kind)) return target;
    if (target->kind != NodeKind::Ident && target->kind != NodeKind::Member) {
      throw ParseError("invalid assignment target", peek().line);
    }
    auto node = make<Assign>();
    node->line = peek().line;
    node->op = assign_op_for(advance().kind);
    node->target = target;
    node->value = parse_assignment();
    return node;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_binary(1);
    if (!match(Tok::Question)) return cond;
    auto node = make<Conditional>();
    node->line = cond->line;
    node->condition = cond;
    node->consequent = parse_assignment();
    expect(Tok::Colon, "conditional expression");
    node->alternate = parse_assignment();
    return node;
  }

  /// Precedence of binary operator `kind`, from 1 (`||`) to 10 (`*`); 0
  /// when `kind` is not one.
  static int precedence(Tok kind) {
    switch (kind) {
      case Tok::OrOr: return 1;
      case Tok::AndAnd: return 2;
      case Tok::BitOr: return 3;
      case Tok::BitXor: return 4;
      case Tok::BitAnd: return 5;
      case Tok::EqEq: case Tok::NotEq: case Tok::EqEqEq: case Tok::NotEqEq: return 6;
      case Tok::Lt: case Tok::Gt: case Tok::Le: case Tok::Ge: case Tok::KwIn:
      case Tok::KwInstanceof: return 7;
      case Tok::Shl: case Tok::Shr: case Tok::UShr: return 8;
      case Tok::Plus: case Tok::Minus: return 9;
      case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
      default: return 0;
    }
  }

  static BinaryOp binary_op(Tok kind) {
    switch (kind) {
      case Tok::BitOr: return BinaryOp::BitOr;
      case Tok::BitXor: return BinaryOp::BitXor;
      case Tok::BitAnd: return BinaryOp::BitAnd;
      case Tok::EqEq: return BinaryOp::Eq;
      case Tok::NotEq: return BinaryOp::Ne;
      case Tok::EqEqEq: return BinaryOp::StrictEq;
      case Tok::NotEqEq: return BinaryOp::StrictNe;
      case Tok::Lt: return BinaryOp::Lt;
      case Tok::Gt: return BinaryOp::Gt;
      case Tok::Le: return BinaryOp::Le;
      case Tok::Ge: return BinaryOp::Ge;
      case Tok::KwIn: return BinaryOp::In;
      case Tok::KwInstanceof: return BinaryOp::InstanceOf;
      case Tok::Shl: return BinaryOp::Shl;
      case Tok::Shr: return BinaryOp::Shr;
      case Tok::UShr: return BinaryOp::UShr;
      case Tok::Plus: return BinaryOp::Add;
      case Tok::Minus: return BinaryOp::Sub;
      case Tok::Star: return BinaryOp::Mul;
      case Tok::Slash: return BinaryOp::Div;
      default: return BinaryOp::Mod;  // Tok::Percent
    }
  }

  /// A chain of binary and logical operators of at least `min_precedence`,
  /// left-associative (precedence climbing). Each node's line is its
  /// operator's.
  ExprPtr parse_binary(int min_precedence) {
    ExprPtr lhs = parse_unary();
    while (true) {
      const Tok kind = peek().kind;
      const int level = precedence(kind);
      if (level < min_precedence) return lhs;  // also ends at a non-operator (0)
      const int op_line = advance().line;
      ExprPtr rhs = parse_binary(level + 1);
      if (kind == Tok::OrOr || kind == Tok::AndAnd) {
        auto node = make<Logical>();
        node->line = op_line;
        node->op = kind == Tok::OrOr ? LogicalOp::Or : LogicalOp::And;
        node->lhs = lhs;
        node->rhs = rhs;
        lhs = node;
      } else {
        auto node = make<Binary>();
        node->line = op_line;
        node->op = binary_op(kind);
        node->lhs = lhs;
        node->rhs = rhs;
        lhs = node;
      }
    }
  }

  ExprPtr parse_unary() {
    const DepthGuard guard(this);
    UnaryOp op;
    switch (peek().kind) {
      case Tok::Minus: op = UnaryOp::Neg; break;
      case Tok::Plus: op = UnaryOp::Plus; break;
      case Tok::Not: op = UnaryOp::Not; break;
      case Tok::BitNot: op = UnaryOp::BitNot; break;
      case Tok::KwTypeof: op = UnaryOp::TypeOf; break;
      case Tok::KwDelete: op = UnaryOp::Delete; break;
      case Tok::PlusPlus:
      case Tok::MinusMinus: {
        auto node = make<Update>();
        node->line = line();
        node->increment = peek().kind == Tok::PlusPlus;
        node->prefix = true;
        advance();
        node->target = parse_unary();
        if (node->target->kind != NodeKind::Ident &&
            node->target->kind != NodeKind::Member) {
          throw ParseError("invalid increment/decrement target", node->line);
        }
        return node;
      }
      default:
        return parse_postfix();
    }
    auto node = make<Unary>();
    node->line = line();
    node->op = op;
    advance();
    node->operand = parse_unary();
    if (op == UnaryOp::Delete && node->operand->kind != NodeKind::Member) {
      throw ParseError("delete requires a property access", node->line);
    }
    return node;
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_call_member(parse_primary());
    if (check(Tok::PlusPlus) || check(Tok::MinusMinus)) {
      if (expr->kind != NodeKind::Ident && expr->kind != NodeKind::Member) {
        throw ParseError("invalid increment/decrement target", peek().line);
      }
      auto node = make<Update>();
      node->line = peek().line;
      node->increment = peek().kind == Tok::PlusPlus;
      node->prefix = false;
      advance();
      node->target = expr;
      return node;
    }
    return expr;
  }

  /// Comma-separated assignment expressions up to (not including) `close`.
  std::span<ExprPtr> parse_list(Tok close) {
    const std::size_t mark = exprs_.size();
    if (!check(close)) {
      while (true) {
        exprs_.push_back(parse_assignment());
        if (!match(Tok::Comma)) break;
      }
    }
    return take(exprs_, mark);
  }

  ExprPtr parse_call_member(ExprPtr base) {
    while (true) {
      if (match(Tok::Dot)) {
        auto node = make<Member>();
        node->line = peek().line;
        // An ES5 IdentifierName: a name or a keyword (obj.in is legal).
        if (!check(Tok::Ident) && !is_keyword(peek().kind)) {
          throw ParseError("expected property name after '.'", peek().line);
        }
        node->property = advance().atom;
        node->object = base;
        base = node;
      } else if (check(Tok::LBracket)) {
        auto node = make<Member>();
        node->line = advance().line;
        node->computed = true;
        node->object = base;
        node->index = parse_expression();
        expect(Tok::RBracket, "computed member access");
        base = node;
      } else if (check(Tok::LParen)) {
        auto node = make<Call>();
        node->line = advance().line;
        node->callee = base;
        node->args = parse_list(Tok::RParen);
        expect(Tok::RParen, "call arguments");
        base = node;
      } else {
        return base;
      }
    }
  }

  ExprPtr parse_new() {
    const int new_line = line();
    expect(Tok::KwNew, "new expression");
    // `new a.b.C(args)` — member accesses bind tighter than the call.
    ExprPtr callee = parse_primary();
    while (true) {
      if (match(Tok::Dot)) {
        auto node = make<Member>();
        node->line = peek().line;
        node->property = expect(Tok::Ident, "member access").atom;
        node->object = callee;
        callee = node;
      } else if (check(Tok::LBracket)) {
        auto node = make<Member>();
        node->line = advance().line;
        node->computed = true;
        node->object = callee;
        node->index = parse_expression();
        expect(Tok::RBracket, "computed member access");
        callee = node;
      } else {
        break;
      }
    }
    auto node = make<New>();
    node->line = new_line;
    node->callee = callee;
    if (match(Tok::LParen)) {
      node->args = parse_list(Tok::RParen);
      expect(Tok::RParen, "new arguments");
    }
    return node;
  }

  ExprPtr parse_primary() {
    const DepthGuard guard(this);
    const Token& tok = peek();
    switch (tok.kind) {
      case Tok::Number: {
        auto node = make<NumberLit>();
        node->line = tok.line;
        node->value = tok.number;
        advance();
        return node;
      }
      case Tok::String: {
        auto node = make<StringLit>();
        node->line = tok.line;
        node->value = tok.atom;
        advance();
        return node;
      }
      case Tok::KwTrue:
      case Tok::KwFalse: {
        auto node = make<BoolLit>();
        node->line = tok.line;
        node->value = tok.kind == Tok::KwTrue;
        advance();
        return node;
      }
      case Tok::KwNull: {
        auto node = make<NullLit>();
        node->line = tok.line;
        advance();
        return node;
      }
      case Tok::Ident: {
        auto node = make<Ident>();
        node->line = tok.line;
        node->name = tok.atom;
        advance();
        return node;
      }
      case Tok::KwThis: {
        auto node = make<ThisExpr>();
        node->line = tok.line;
        advance();
        return node;
      }
      case Tok::LParen: {
        advance();
        ExprPtr inner = parse_expression();
        expect(Tok::RParen, "parenthesized expression");
        return inner;
      }
      case Tok::LBracket: {
        auto node = make<ArrayLit>();
        node->line = advance().line;
        node->elements = parse_list(Tok::RBracket);
        expect(Tok::RBracket, "array literal");
        return node;
      }
      case Tok::LBrace: {
        auto node = make<ObjectLit>();
        node->line = advance().line;
        const std::size_t mark = props_.size();
        if (!check(Tok::RBrace)) {
          while (true) {
            Atom key;
            if (check(Tok::Number)) {
              // Keyed as String(n) spells the number: {0x10: 1} sets o[16].
              key = program_.atoms.intern(number_to_string(advance().number));
            } else if (check(Tok::Ident) || check(Tok::String) || is_keyword(peek().kind)) {
              key = advance().atom;
            } else {
              throw ParseError("expected property key", peek().line);
            }
            expect(Tok::Colon, "object literal");
            props_.emplace_back(key, parse_assignment());
            if (!match(Tok::Comma)) break;
          }
        }
        node->properties = take(props_, mark);
        expect(Tok::RBrace, "object literal");
        return node;
      }
      case Tok::KwFunction: {
        auto node = make<FunctionExpr>();
        node->line = advance().line;
        node->fn = parse_function_tail(/*require_name=*/false);
        return node;
      }
      case Tok::KwNew:
        return parse_new();
      default:
        throw ParseError(std::string("unexpected token ") + tok_name(tok.kind),
                         tok.line);
    }
  }

  std::vector<Token> tokens_;
  // Scratch stacks for the lists under construction (see take()).
  std::vector<StmtPtr> stmts_;
  std::vector<ExprPtr> exprs_;
  std::vector<Atom> atoms_;
  std::vector<const FunctionDecl*> fns_;
  std::vector<VarDecl::Declarator> decls_;
  std::vector<std::pair<Atom, ExprPtr>> props_;
  std::size_t pos_ = 0;
  ProgramBody& program_;
  HoistScope* hoist_ = nullptr;
  int next_fn_id_ = 1;
  int depth_ = 0;
  int max_depth_;
};

}  // namespace

std::string induction_variable_of(const LoopSite& site) {
  if (site.kind != LoopKind::For || site.stmt == nullptr) return "";
  const auto& loop = static_cast<const For&>(*site.stmt);
  if (!loop.update) return "";
  if (loop.update->kind == NodeKind::Update) {
    const auto& update = static_cast<const Update&>(*loop.update);
    if (update.target->kind == NodeKind::Ident) {
      return static_cast<const Ident&>(*update.target).name;
    }
  }
  if (loop.update->kind == NodeKind::Assign) {
    const auto& assign = static_cast<const Assign&>(*loop.update);
    if (assign.target->kind == NodeKind::Ident) {
      return static_cast<const Ident&>(*assign.target).name;
    }
  }
  return "";
}

const char* loop_kind_name(LoopKind kind) {
  switch (kind) {
    case LoopKind::For: return "for";
    case LoopKind::ForIn: return "for-in";
    case LoopKind::While: return "while";
    case LoopKind::DoWhile: return "do-while";
  }
  return "?";
}

Program parse(std::string_view source, std::string source_name) {
  return parse(source, std::move(source_name), EngineLimits{});
}

Program parse(std::string_view source, std::string source_name,
              const EngineLimits& limits) {
  const int max_depth = limits.max_parse_depth > 0 ? limits.max_parse_depth
                                                   : EngineLimits{}.max_parse_depth;
  Program program(source.size());
  ProgramBody& body = program.mut();
  body.source_name = std::move(source_name);
  Parser(lex(source, body.atoms, limits), body, max_depth).run();
  return program;
}

}  // namespace jsceres::js
