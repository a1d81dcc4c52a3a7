#include "js/parser.h"

#include <cassert>
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
    while (!check(Tok::Eof)) {
      program_.statements.push_back(parse_statement());
    }
    program_.hoisted_vars = std::move(top.vars);
    program_.hoisted_functions = std::move(top.functions);
  }

 private:
  // -- hoisting ------------------------------------------------------------

  /// Collects `var` names and function declarations for the function being
  /// parsed. JavaScript's function scoping means every `var` in the body —
  /// including ones textually inside loops — belongs to the enclosing
  /// function's environment; the interpreter materializes them at call time.
  struct HoistScope {
    explicit HoistScope(Parser* parser, int fn_id)
        : parser(parser), previous(parser->hoist_), fn_id(fn_id) {
      parser->hoist_ = this;
    }
    ~HoistScope() { parser->hoist_ = previous; }

    void add_var(Atom name) {
      for (const auto& existing : vars) {
        if (existing == name) return;
      }
      vars.push_back(name);
    }

    Parser* parser;
    HoistScope* previous;
    int fn_id;
    std::vector<Atom> vars;
    std::vector<const FunctionDecl*> functions;
  };

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
        auto node = std::make_unique<Break>();
        node->line = line();
        advance();
        expect(Tok::Semicolon, "break statement");
        return node;
      }
      case Tok::KwContinue: {
        auto node = std::make_unique<Continue>();
        node->line = line();
        advance();
        expect(Tok::Semicolon, "continue statement");
        return node;
      }
      case Tok::Semicolon: {
        auto node = std::make_unique<Empty>();
        node->line = line();
        advance();
        return node;
      }
      case Tok::KwThrow: {
        auto node = std::make_unique<Throw>();
        node->line = line();
        advance();
        node->value = parse_expression();
        expect(Tok::Semicolon, "throw statement");
        return node;
      }
      case Tok::KwTry: return parse_try();
      default: {
        auto node = std::make_unique<ExprStmt>();
        node->line = line();
        node->expr = parse_expression();
        expect(Tok::Semicolon, "expression statement");
        return node;
      }
    }
  }

  StmtPtr parse_block() {
    auto block = std::make_unique<Block>();
    block->line = line();
    expect(Tok::LBrace, "block");
    while (!check(Tok::RBrace)) {
      if (check(Tok::Eof)) throw ParseError("unterminated block", block->line);
      block->statements.push_back(parse_statement());
    }
    expect(Tok::RBrace, "block");
    return block;
  }

  std::unique_ptr<VarDecl> parse_var_decl() {
    auto decl = std::make_unique<VarDecl>();
    decl->line = line();
    expect(Tok::KwVar, "variable declaration");
    while (true) {
      VarDecl::Declarator d;
      d.name = expect(Tok::Ident, "variable declaration").atom;
      hoist_->add_var(d.name);
      if (match(Tok::Assign)) d.init = parse_assignment();
      decl->declarators.push_back(std::move(d));
      if (!match(Tok::Comma)) break;
    }
    return decl;
  }

  std::unique_ptr<FunctionNode> parse_function_tail(bool require_name) {
    auto fn = std::make_unique<FunctionNode>();
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
    if (!check(Tok::RParen)) {
      while (true) {
        fn->params.push_back(expect(Tok::Ident, "parameter list").atom);
        if (!match(Tok::Comma)) break;
      }
    }
    expect(Tok::RParen, "function parameter list");
    {
      HoistScope scope(this, fn->fn_id);
      fn->body = parse_block();
      fn->hoisted_vars = std::move(scope.vars);
      fn->hoisted_functions = std::move(scope.functions);
    }
    return fn;
  }

  StmtPtr parse_function_decl() {
    auto decl = std::make_unique<FunctionDecl>();
    decl->line = line();
    expect(Tok::KwFunction, "function declaration");
    decl->fn = parse_function_tail(/*require_name=*/true);
    hoist_->functions.push_back(decl.get());
    return decl;
  }

  StmtPtr parse_if() {
    auto node = std::make_unique<If>();
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
      auto node = std::make_unique<ForIn>();
      node->line = for_line;
      advance();  // var
      node->var_name = advance().atom;
      node->declares_var = true;
      hoist_->add_var(node->var_name);
      advance();  // in
      node->object = parse_expression();
      expect(Tok::RParen, "for-in header");
      node->loop_id = register_loop(LoopKind::ForIn, for_line, node.get());
      node->body = parse_statement();
      return node;
    }
    if (check(Tok::Ident) && peek(1).kind == Tok::KwIn) {
      auto node = std::make_unique<ForIn>();
      node->line = for_line;
      node->var_name = advance().atom;
      advance();  // in
      node->object = parse_expression();
      expect(Tok::RParen, "for-in header");
      node->loop_id = register_loop(LoopKind::ForIn, for_line, node.get());
      node->body = parse_statement();
      return node;
    }

    auto node = std::make_unique<For>();
    node->line = for_line;
    if (match(Tok::Semicolon)) {
      // no init
    } else if (check(Tok::KwVar)) {
      node->init = parse_var_decl();
      expect(Tok::Semicolon, "for header");
    } else {
      auto init = std::make_unique<ExprStmt>();
      init->line = line();
      init->expr = parse_expression();
      node->init = std::move(init);
      expect(Tok::Semicolon, "for header");
    }
    if (!check(Tok::Semicolon)) node->condition = parse_expression();
    expect(Tok::Semicolon, "for header");
    if (!check(Tok::RParen)) node->update = parse_expression();
    expect(Tok::RParen, "for header");
    node->loop_id = register_loop(LoopKind::For, for_line, node.get());
    node->body = parse_statement();
    return node;
  }

  StmtPtr parse_while() {
    auto node = std::make_unique<While>();
    node->line = line();
    expect(Tok::KwWhile, "while statement");
    expect(Tok::LParen, "while condition");
    node->condition = parse_expression();
    expect(Tok::RParen, "while condition");
    node->loop_id = register_loop(LoopKind::While, node->line, node.get());
    node->body = parse_statement();
    return node;
  }

  StmtPtr parse_do_while() {
    auto node = std::make_unique<DoWhile>();
    node->line = line();
    expect(Tok::KwDo, "do-while statement");
    node->loop_id = register_loop(LoopKind::DoWhile, node->line, node.get());
    node->body = parse_statement();
    expect(Tok::KwWhile, "do-while statement");
    expect(Tok::LParen, "do-while condition");
    node->condition = parse_expression();
    expect(Tok::RParen, "do-while condition");
    expect(Tok::Semicolon, "do-while statement");
    return node;
  }

  StmtPtr parse_return() {
    auto node = std::make_unique<Return>();
    node->line = line();
    expect(Tok::KwReturn, "return statement");
    if (!check(Tok::Semicolon)) node->value = parse_expression();
    expect(Tok::Semicolon, "return statement");
    return node;
  }

  StmtPtr parse_try() {
    auto node = std::make_unique<TryCatch>();
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
    auto seq = std::make_unique<Sequence>();
    seq->line = first->line;
    seq->exprs.push_back(std::move(first));
    while (match(Tok::Comma)) seq->exprs.push_back(parse_assignment());
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
    auto node = std::make_unique<Assign>();
    node->line = peek().line;
    node->op = assign_op_for(advance().kind);
    node->target = std::move(target);
    node->value = parse_assignment();
    return node;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_logical_or();
    if (!match(Tok::Question)) return cond;
    auto node = std::make_unique<Conditional>();
    node->line = cond->line;
    node->condition = std::move(cond);
    node->consequent = parse_assignment();
    expect(Tok::Colon, "conditional expression");
    node->alternate = parse_assignment();
    return node;
  }

  ExprPtr parse_logical_or() {
    ExprPtr lhs = parse_logical_and();
    while (check(Tok::OrOr)) {
      const int op_line = advance().line;
      auto node = std::make_unique<Logical>();
      node->line = op_line;
      node->op = LogicalOp::Or;
      node->lhs = std::move(lhs);
      node->rhs = parse_logical_and();
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr parse_logical_and() {
    ExprPtr lhs = parse_bit_or();
    while (check(Tok::AndAnd)) {
      const int op_line = advance().line;
      auto node = std::make_unique<Logical>();
      node->line = op_line;
      node->op = LogicalOp::And;
      node->lhs = std::move(lhs);
      node->rhs = parse_bit_or();
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, int op_line) {
    auto node = std::make_unique<Binary>();
    node->line = op_line;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  ExprPtr parse_bit_or() {
    ExprPtr lhs = parse_bit_xor();
    while (check(Tok::BitOr)) {
      const int op_line = advance().line;
      lhs = make_binary(BinaryOp::BitOr, std::move(lhs), parse_bit_xor(), op_line);
    }
    return lhs;
  }

  ExprPtr parse_bit_xor() {
    ExprPtr lhs = parse_bit_and();
    while (check(Tok::BitXor)) {
      const int op_line = advance().line;
      lhs = make_binary(BinaryOp::BitXor, std::move(lhs), parse_bit_and(), op_line);
    }
    return lhs;
  }

  ExprPtr parse_bit_and() {
    ExprPtr lhs = parse_equality();
    while (check(Tok::BitAnd)) {
      const int op_line = advance().line;
      lhs = make_binary(BinaryOp::BitAnd, std::move(lhs), parse_equality(), op_line);
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_relational();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case Tok::EqEq: op = BinaryOp::Eq; break;
        case Tok::NotEq: op = BinaryOp::Ne; break;
        case Tok::EqEqEq: op = BinaryOp::StrictEq; break;
        case Tok::NotEqEq: op = BinaryOp::StrictNe; break;
        default: return lhs;
      }
      const int op_line = advance().line;
      lhs = make_binary(op, std::move(lhs), parse_relational(), op_line);
    }
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_shift();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case Tok::Lt: op = BinaryOp::Lt; break;
        case Tok::Gt: op = BinaryOp::Gt; break;
        case Tok::Le: op = BinaryOp::Le; break;
        case Tok::Ge: op = BinaryOp::Ge; break;
        case Tok::KwIn: op = BinaryOp::In; break;
        case Tok::KwInstanceof: op = BinaryOp::InstanceOf; break;
        default: return lhs;
      }
      const int op_line = advance().line;
      lhs = make_binary(op, std::move(lhs), parse_shift(), op_line);
    }
  }

  ExprPtr parse_shift() {
    ExprPtr lhs = parse_additive();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case Tok::Shl: op = BinaryOp::Shl; break;
        case Tok::Shr: op = BinaryOp::Shr; break;
        case Tok::UShr: op = BinaryOp::UShr; break;
        default: return lhs;
      }
      const int op_line = advance().line;
      lhs = make_binary(op, std::move(lhs), parse_additive(), op_line);
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (check(Tok::Plus) || check(Tok::Minus)) {
      const BinaryOp op = check(Tok::Plus) ? BinaryOp::Add : BinaryOp::Sub;
      const int op_line = advance().line;
      lhs = make_binary(op, std::move(lhs), parse_multiplicative(), op_line);
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case Tok::Star: op = BinaryOp::Mul; break;
        case Tok::Slash: op = BinaryOp::Div; break;
        case Tok::Percent: op = BinaryOp::Mod; break;
        default: return lhs;
      }
      const int op_line = advance().line;
      lhs = make_binary(op, std::move(lhs), parse_unary(), op_line);
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
        auto node = std::make_unique<Update>();
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
    auto node = std::make_unique<Unary>();
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
      auto node = std::make_unique<Update>();
      node->line = peek().line;
      node->increment = peek().kind == Tok::PlusPlus;
      node->prefix = false;
      advance();
      node->target = std::move(expr);
      return node;
    }
    return expr;
  }

  ExprPtr parse_call_member(ExprPtr base) {
    while (true) {
      if (match(Tok::Dot)) {
        auto node = std::make_unique<Member>();
        node->line = peek().line;
        // Allow keyword-looking property names (obj.in is legal ES5).
        if (check(Tok::Ident)) {
          node->property = advance().atom;
        } else if (!peek().text.empty()) {
          const Token& tok = advance();
          node->property = tok.atom.empty() ? program_.atoms.intern(tok.text) : tok.atom;
        } else {
          throw ParseError("expected property name after '.'", peek().line);
        }
        node->object = std::move(base);
        base = std::move(node);
      } else if (check(Tok::LBracket)) {
        auto node = std::make_unique<Member>();
        node->line = advance().line;
        node->computed = true;
        node->object = std::move(base);
        node->index = parse_expression();
        expect(Tok::RBracket, "computed member access");
        base = std::move(node);
      } else if (check(Tok::LParen)) {
        auto node = std::make_unique<Call>();
        node->line = advance().line;
        node->callee = std::move(base);
        if (!check(Tok::RParen)) {
          while (true) {
            node->args.push_back(parse_assignment());
            if (!match(Tok::Comma)) break;
          }
        }
        expect(Tok::RParen, "call arguments");
        base = std::move(node);
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
        auto node = std::make_unique<Member>();
        node->line = peek().line;
        node->property = expect(Tok::Ident, "member access").atom;
        node->object = std::move(callee);
        callee = std::move(node);
      } else if (check(Tok::LBracket)) {
        auto node = std::make_unique<Member>();
        node->line = advance().line;
        node->computed = true;
        node->object = std::move(callee);
        node->index = parse_expression();
        expect(Tok::RBracket, "computed member access");
        callee = std::move(node);
      } else {
        break;
      }
    }
    auto node = std::make_unique<New>();
    node->line = new_line;
    node->callee = std::move(callee);
    if (match(Tok::LParen)) {
      if (!check(Tok::RParen)) {
        while (true) {
          node->args.push_back(parse_assignment());
          if (!match(Tok::Comma)) break;
        }
      }
      expect(Tok::RParen, "new arguments");
    }
    return node;
  }

  ExprPtr parse_primary() {
    const DepthGuard guard(this);
    const Token& tok = peek();
    switch (tok.kind) {
      case Tok::Number: {
        auto node = std::make_unique<NumberLit>();
        node->line = tok.line;
        node->value = tok.number;
        advance();
        return node;
      }
      case Tok::String: {
        auto node = std::make_unique<StringLit>();
        node->line = tok.line;
        node->value = tok.atom;
        advance();
        return node;
      }
      case Tok::KwTrue:
      case Tok::KwFalse: {
        auto node = std::make_unique<BoolLit>();
        node->line = tok.line;
        node->value = tok.kind == Tok::KwTrue;
        advance();
        return node;
      }
      case Tok::KwNull: {
        auto node = std::make_unique<NullLit>();
        node->line = tok.line;
        advance();
        return node;
      }
      case Tok::Ident: {
        auto node = std::make_unique<Ident>();
        node->line = tok.line;
        node->name = tok.atom;
        advance();
        return node;
      }
      case Tok::KwThis: {
        auto node = std::make_unique<ThisExpr>();
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
        auto node = std::make_unique<ArrayLit>();
        node->line = advance().line;
        if (!check(Tok::RBracket)) {
          while (true) {
            node->elements.push_back(parse_assignment());
            if (!match(Tok::Comma)) break;
          }
        }
        expect(Tok::RBracket, "array literal");
        return node;
      }
      case Tok::LBrace: {
        auto node = std::make_unique<ObjectLit>();
        node->line = advance().line;
        if (!check(Tok::RBrace)) {
          while (true) {
            Atom key;
            if (check(Tok::Number)) {
              // Number tokens carry no atom; key by the literal's spelling.
              key = program_.atoms.intern(advance().text);
            } else if (check(Tok::Ident) || check(Tok::String) ||
                       !peek().text.empty()) {
              key = advance().atom;
            } else {
              throw ParseError("expected property key", peek().line);
            }
            expect(Tok::Colon, "object literal");
            node->properties.emplace_back(key, parse_assignment());
            if (!match(Tok::Comma)) break;
          }
        }
        expect(Tok::RBrace, "object literal");
        return node;
      }
      case Tok::KwFunction: {
        auto node = std::make_unique<FunctionExpr>();
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
  Program program;
  ProgramBody& body = program.mut();
  body.source_name = std::move(source_name);
  Parser(lex(source, body.atoms, limits), body, max_depth).run();
  resolve_scopes(program);
  return program;
}

}  // namespace jsceres::js
