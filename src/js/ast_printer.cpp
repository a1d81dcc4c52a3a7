#include "js/ast_printer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace jsceres::js {

namespace {

std::string pad(int indent) { return std::string(std::size_t(indent) * 2, ' '); }

std::string number_text(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  // Shortest representation that round-trips exactly.
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

const char* binary_op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::UShr: return ">>>";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::StrictEq: return "===";
    case BinaryOp::StrictNe: return "!==";
    case BinaryOp::In: return "in";
    case BinaryOp::InstanceOf: return "instanceof";
  }
  return "?";
}

const char* assign_op_text(AssignOp op) {
  switch (op) {
    case AssignOp::None: return "=";
    case AssignOp::Add: return "+=";
    case AssignOp::Sub: return "-=";
    case AssignOp::Mul: return "*=";
    case AssignOp::Div: return "/=";
    case AssignOp::Mod: return "%=";
    case AssignOp::BitAnd: return "&=";
    case AssignOp::BitOr: return "|=";
    case AssignOp::BitXor: return "^=";
    case AssignOp::Shl: return "<<=";
    case AssignOp::Shr: return ">>=";
  }
  return "=";
}

std::string quote(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    switch (c) {
      case '\'': out += "\\'"; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  return out + "'";
}

std::string print_function(const FunctionNode& fn) {
  std::string out = "function ";
  out += fn.name;
  out += "(";
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += fn.params[i];
  }
  out += ") ";
  out += print_stmt(*fn.body, 0);
  return out;
}

}  // namespace

std::string print_expr(const Expr& expr) {
  switch (expr.kind) {
    case NodeKind::NumberLit:
      return number_text(static_cast<const NumberLit&>(expr).value);
    case NodeKind::StringLit:
      return quote(static_cast<const StringLit&>(expr).value);
    case NodeKind::BoolLit:
      return static_cast<const BoolLit&>(expr).value ? "true" : "false";
    case NodeKind::NullLit:
      return "null";
    case NodeKind::Ident:
      return static_cast<const Ident&>(expr).name;
    case NodeKind::ThisExpr:
      return "this";
    case NodeKind::ArrayLit: {
      const auto& lit = static_cast<const ArrayLit&>(expr);
      std::string out = "[";
      for (std::size_t i = 0; i < lit.elements.size(); ++i) {
        if (i > 0) out += ", ";
        out += print_expr(*lit.elements[i]);
      }
      return out + "]";
    }
    case NodeKind::ObjectLit: {
      const auto& lit = static_cast<const ObjectLit&>(expr);
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : lit.properties) {
        if (!first) out += ", ";
        first = false;
        out += key + ": " + print_expr(*value);
      }
      return out + "}";
    }
    case NodeKind::FunctionExpr:
      return print_function(*static_cast<const FunctionExpr&>(expr).fn);
    case NodeKind::Call: {
      const auto& call = static_cast<const Call&>(expr);
      std::string out = print_expr(*call.callee) + "(";
      for (std::size_t i = 0; i < call.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += print_expr(*call.args[i]);
      }
      return out + ")";
    }
    case NodeKind::New: {
      const auto& node = static_cast<const New&>(expr);
      std::string out = "new " + print_expr(*node.callee) + "(";
      for (std::size_t i = 0; i < node.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += print_expr(*node.args[i]);
      }
      return out + ")";
    }
    case NodeKind::Member: {
      const auto& member = static_cast<const Member&>(expr);
      if (member.computed) {
        return print_expr(*member.object) + "[" + print_expr(*member.index) + "]";
      }
      return print_expr(*member.object) + "." + member.property;
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const Assign&>(expr);
      return print_expr(*assign.target) + " " + assign_op_text(assign.op) + " " +
             print_expr(*assign.value);
    }
    case NodeKind::Conditional: {
      const auto& node = static_cast<const Conditional&>(expr);
      return "(" + print_expr(*node.condition) + " ? " +
             print_expr(*node.consequent) + " : " + print_expr(*node.alternate) +
             ")";
    }
    case NodeKind::Binary: {
      const auto& node = static_cast<const Binary&>(expr);
      return "(" + print_expr(*node.lhs) + " " + binary_op_text(node.op) + " " +
             print_expr(*node.rhs) + ")";
    }
    case NodeKind::Logical: {
      const auto& node = static_cast<const Logical&>(expr);
      return "(" + print_expr(*node.lhs) +
             (node.op == LogicalOp::And ? " && " : " || ") + print_expr(*node.rhs) +
             ")";
    }
    case NodeKind::Unary: {
      const auto& node = static_cast<const Unary&>(expr);
      switch (node.op) {
        case UnaryOp::Neg: return "(-" + print_expr(*node.operand) + ")";
        case UnaryOp::Plus: return "(+" + print_expr(*node.operand) + ")";
        case UnaryOp::Not: return "(!" + print_expr(*node.operand) + ")";
        case UnaryOp::BitNot: return "(~" + print_expr(*node.operand) + ")";
        case UnaryOp::TypeOf: return "(typeof " + print_expr(*node.operand) + ")";
        case UnaryOp::Delete: return "(delete " + print_expr(*node.operand) + ")";
      }
      return "?";
    }
    case NodeKind::Update: {
      const auto& node = static_cast<const Update&>(expr);
      const char* op = node.increment ? "++" : "--";
      return node.prefix ? op + print_expr(*node.target)
                         : print_expr(*node.target) + op;
    }
    case NodeKind::Sequence: {
      const auto& node = static_cast<const Sequence&>(expr);
      std::string out;
      for (std::size_t i = 0; i < node.exprs.size(); ++i) {
        if (i > 0) out += ", ";
        out += print_expr(*node.exprs[i]);
      }
      return out;
    }
    default:
      return "/*?*/";
  }
}

std::string print_stmt(const Stmt& stmt, int indent) {
  switch (stmt.kind) {
    case NodeKind::Block: {
      const auto& block = static_cast<const Block&>(stmt);
      std::string out = "{\n";
      for (const auto& s : block.statements) {
        out += pad(indent + 1) + print_stmt(*s, indent + 1) + "\n";
      }
      return out + pad(indent) + "}";
    }
    case NodeKind::VarDecl: {
      const auto& decl = static_cast<const VarDecl&>(stmt);
      std::string out = "var ";
      for (std::size_t i = 0; i < decl.declarators.size(); ++i) {
        if (i > 0) out += ", ";
        out += decl.declarators[i].name;
        if (decl.declarators[i].init) {
          out += " = " + print_expr(*decl.declarators[i].init);
        }
      }
      return out + ";";
    }
    case NodeKind::FunctionDecl:
      return print_function(*static_cast<const FunctionDecl&>(stmt).fn);
    case NodeKind::ExprStmt:
      return print_expr(*static_cast<const ExprStmt&>(stmt).expr) + ";";
    case NodeKind::If: {
      const auto& node = static_cast<const If&>(stmt);
      std::string out =
          "if (" + print_expr(*node.condition) + ") " + print_stmt(*node.consequent, indent);
      if (node.alternate) out += " else " + print_stmt(*node.alternate, indent);
      return out;
    }
    case NodeKind::For: {
      const auto& node = static_cast<const For&>(stmt);
      std::string out = "for (";
      if (node.init) {
        // Either a VarDecl (already ends with ';') or an expression.
        const std::string init = print_stmt(*node.init, 0);
        out += init;
        if (init.empty() || init.back() != ';') out += ";";
      } else {
        out += ";";
      }
      out += " ";
      if (node.condition) out += print_expr(*node.condition);
      out += "; ";
      if (node.update) out += print_expr(*node.update);
      out += ") " + print_stmt(*node.body, indent);
      return out;
    }
    case NodeKind::ForIn: {
      const auto& node = static_cast<const ForIn&>(stmt);
      std::string out = "for (";
      if (node.declares_var) out += "var ";
      out += node.var_name + " in " + print_expr(*node.object) + ") ";
      return out + print_stmt(*node.body, indent);
    }
    case NodeKind::While: {
      const auto& node = static_cast<const While&>(stmt);
      return "while (" + print_expr(*node.condition) + ") " +
             print_stmt(*node.body, indent);
    }
    case NodeKind::DoWhile: {
      const auto& node = static_cast<const DoWhile&>(stmt);
      return "do " + print_stmt(*node.body, indent) + " while (" +
             print_expr(*node.condition) + ");";
    }
    case NodeKind::Return: {
      const auto& node = static_cast<const Return&>(stmt);
      if (node.value) return "return " + print_expr(*node.value) + ";";
      return "return;";
    }
    case NodeKind::Break:
      return "break;";
    case NodeKind::Continue:
      return "continue;";
    case NodeKind::Empty:
      return ";";
    case NodeKind::Throw:
      return "throw " + print_expr(*static_cast<const Throw&>(stmt).value) + ";";
    case NodeKind::TryCatch: {
      const auto& node = static_cast<const TryCatch&>(stmt);
      std::string out = "try " + print_stmt(*node.try_block, indent);
      if (node.catch_block) {
        out += " catch (" + node.catch_param + ") " +
               print_stmt(*node.catch_block, indent);
      }
      if (node.finally_block) {
        out += " finally " + print_stmt(*node.finally_block, indent);
      }
      return out;
    }
    default:
      return ";";
  }
}

std::string print(const Program& program) {
  std::string out;
  for (const auto& stmt : program->statements) {
    out += print_stmt(*stmt, 0) + "\n";
  }
  return out;
}

}  // namespace jsceres::js
