#include "js/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

namespace jsceres::js {

namespace {

const std::unordered_map<std::string_view, Tok>& keyword_table() {
  static const std::unordered_map<std::string_view, Tok> table = {
      {"var", Tok::KwVar},
      {"function", Tok::KwFunction},
      {"return", Tok::KwReturn},
      {"if", Tok::KwIf},
      {"else", Tok::KwElse},
      {"for", Tok::KwFor},
      {"while", Tok::KwWhile},
      {"do", Tok::KwDo},
      {"break", Tok::KwBreak},
      {"continue", Tok::KwContinue},
      {"new", Tok::KwNew},
      {"delete", Tok::KwDelete},
      {"typeof", Tok::KwTypeof},
      {"this", Tok::KwThis},
      {"true", Tok::KwTrue},
      {"false", Tok::KwFalse},
      {"null", Tok::KwNull},
      {"in", Tok::KwIn},
      {"instanceof", Tok::KwInstanceof},
      {"throw", Tok::KwThrow},
      {"try", Tok::KwTry},
      {"catch", Tok::KwCatch},
      {"finally", Tok::KwFinally},
  };
  return table;
}

class Cursor {
 public:
  explicit Cursor(std::string_view src) : src_(src) {}

  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  bool match(char expected) {
    if (at_end() || src_[pos_] != expected) return false;
    advance();
    return true;
  }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::string_view slice(std::size_t from) const {
    return src_.substr(from, pos_ - from);
  }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool is_ident_part(char c) {
  return is_ident_start(c) || std::isdigit(static_cast<unsigned char>(c));
}

void skip_trivia(Cursor& cur) {
  while (!cur.at_end()) {
    const char c = cur.peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.advance();
    } else if (c == '/' && cur.peek(1) == '/') {
      while (!cur.at_end() && cur.peek() != '\n') cur.advance();
    } else if (c == '/' && cur.peek(1) == '*') {
      const int start_line = cur.line();
      cur.advance();
      cur.advance();
      while (!(cur.peek() == '*' && cur.peek(1) == '/')) {
        if (cur.at_end()) throw LexError("unterminated block comment", start_line);
        cur.advance();
      }
      cur.advance();
      cur.advance();
    } else {
      return;
    }
  }
}

Token lex_number(Cursor& cur) {
  const int line = cur.line();
  const std::size_t start = cur.pos();
  if (cur.peek() == '0' && (cur.peek(1) == 'x' || cur.peek(1) == 'X')) {
    cur.advance();
    cur.advance();
    while (std::isxdigit(static_cast<unsigned char>(cur.peek()))) cur.advance();
    const std::string text(cur.slice(start));
    return Token{Tok::Number, text, Atom(),
                 double(std::strtoll(text.c_str(), nullptr, 16)), line};
  }
  while (std::isdigit(static_cast<unsigned char>(cur.peek()))) cur.advance();
  if (cur.peek() == '.' && std::isdigit(static_cast<unsigned char>(cur.peek(1)))) {
    cur.advance();
    while (std::isdigit(static_cast<unsigned char>(cur.peek()))) cur.advance();
  }
  if (cur.peek() == 'e' || cur.peek() == 'E') {
    std::size_t ahead = 1;
    if (cur.peek(1) == '+' || cur.peek(1) == '-') ahead = 2;
    if (std::isdigit(static_cast<unsigned char>(cur.peek(ahead)))) {
      for (std::size_t i = 0; i < ahead; ++i) cur.advance();
      while (std::isdigit(static_cast<unsigned char>(cur.peek()))) cur.advance();
    }
  }
  const std::string text(cur.slice(start));
  return Token{Tok::Number, text, Atom(), std::strtod(text.c_str(), nullptr), line};
}

Token lex_string(Cursor& cur, AtomSpace& atoms) {
  const int line = cur.line();
  const char quote = cur.advance();
  std::string value;
  while (true) {
    if (cur.at_end()) throw LexError("unterminated string literal", line);
    const char c = cur.advance();
    if (c == quote) break;
    if (c == '\n') throw LexError("newline in string literal", line);
    if (c == '\\') {
      if (cur.at_end()) throw LexError("unterminated escape", line);
      const char esc = cur.advance();
      switch (esc) {
        case 'n': value += '\n'; break;
        case 't': value += '\t'; break;
        case 'r': value += '\r'; break;
        case '0': value += '\0'; break;
        case '\\': value += '\\'; break;
        case '\'': value += '\''; break;
        case '"': value += '"'; break;
        default: value += esc; break;
      }
    } else {
      value += c;
    }
  }
  Token token{Tok::String, std::string(), atoms.intern(value), 0, line};
  token.text = std::move(value);
  return token;
}

}  // namespace

const char* tok_name(Tok kind) {
  switch (kind) {
    case Tok::Number: return "number";
    case Tok::String: return "string";
    case Tok::Ident: return "identifier";
    case Tok::KwVar: return "'var'";
    case Tok::KwFunction: return "'function'";
    case Tok::KwReturn: return "'return'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwFor: return "'for'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwDo: return "'do'";
    case Tok::KwBreak: return "'break'";
    case Tok::KwContinue: return "'continue'";
    case Tok::KwNew: return "'new'";
    case Tok::KwDelete: return "'delete'";
    case Tok::KwTypeof: return "'typeof'";
    case Tok::KwThis: return "'this'";
    case Tok::KwTrue: return "'true'";
    case Tok::KwFalse: return "'false'";
    case Tok::KwNull: return "'null'";
    case Tok::KwIn: return "'in'";
    case Tok::KwInstanceof: return "'instanceof'";
    case Tok::KwThrow: return "'throw'";
    case Tok::KwTry: return "'try'";
    case Tok::KwCatch: return "'catch'";
    case Tok::KwFinally: return "'finally'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Semicolon: return "';'";
    case Tok::Comma: return "','";
    case Tok::Dot: return "'.'";
    case Tok::Colon: return "':'";
    case Tok::Question: return "'?'";
    case Tok::Assign: return "'='";
    case Tok::PlusAssign: return "'+='";
    case Tok::MinusAssign: return "'-='";
    case Tok::StarAssign: return "'*='";
    case Tok::SlashAssign: return "'/='";
    case Tok::PercentAssign: return "'%='";
    case Tok::AmpAssign: return "'&='";
    case Tok::PipeAssign: return "'|='";
    case Tok::CaretAssign: return "'^='";
    case Tok::ShlAssign: return "'<<='";
    case Tok::ShrAssign: return "'>>='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::PlusPlus: return "'++'";
    case Tok::MinusMinus: return "'--'";
    case Tok::EqEq: return "'=='";
    case Tok::NotEq: return "'!='";
    case Tok::EqEqEq: return "'==='";
    case Tok::NotEqEq: return "'!=='";
    case Tok::Lt: return "'<'";
    case Tok::Gt: return "'>'";
    case Tok::Le: return "'<='";
    case Tok::Ge: return "'>='";
    case Tok::AndAnd: return "'&&'";
    case Tok::OrOr: return "'||'";
    case Tok::Not: return "'!'";
    case Tok::BitAnd: return "'&'";
    case Tok::BitOr: return "'|'";
    case Tok::BitXor: return "'^'";
    case Tok::BitNot: return "'~'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::UShr: return "'>>>'";
    case Tok::Eof: return "end of input";
  }
  return "?";
}

std::vector<Token> lex(std::string_view source, AtomSpace& atoms,
                       const EngineLimits& limits) {
  if (limits.max_source_bytes > 0 && source.size() > limits.max_source_bytes) {
    throw LexError("source too large: " + std::to_string(source.size()) +
                       " > " + std::to_string(limits.max_source_bytes) +
                       " bytes",
                   1);
  }
  std::vector<Token> tokens;
  Cursor cur(source);
  while (true) {
    skip_trivia(cur);
    if (cur.at_end()) break;
    if (limits.max_tokens > 0 && tokens.size() >= limits.max_tokens) {
      throw LexError("token limit exceeded (" +
                         std::to_string(limits.max_tokens) + " tokens)",
                     cur.line());
    }
    const char c = cur.peek();
    const int line = cur.line();

    if (std::isdigit(static_cast<unsigned char>(c))) {
      tokens.push_back(lex_number(cur));
      continue;
    }
    if (c == '"' || c == '\'') {
      tokens.push_back(lex_string(cur, atoms));
      continue;
    }
    if (is_ident_start(c)) {
      const std::size_t start = cur.pos();
      while (is_ident_part(cur.peek())) cur.advance();
      const std::string_view text = cur.slice(start);
      const auto it = keyword_table().find(text);
      const Tok kind = it != keyword_table().end() ? it->second : Tok::Ident;
      tokens.push_back(Token{kind, std::string(text), atoms.intern(text), 0, line});
      continue;
    }

    cur.advance();
    const auto push = [&](Tok kind) {
      tokens.push_back(Token{kind, "", Atom(), 0, line});
    };
    switch (c) {
      case '(': push(Tok::LParen); break;
      case ')': push(Tok::RParen); break;
      case '{': push(Tok::LBrace); break;
      case '}': push(Tok::RBrace); break;
      case '[': push(Tok::LBracket); break;
      case ']': push(Tok::RBracket); break;
      case ';': push(Tok::Semicolon); break;
      case ',': push(Tok::Comma); break;
      case '.': push(Tok::Dot); break;
      case ':': push(Tok::Colon); break;
      case '?': push(Tok::Question); break;
      case '~': push(Tok::BitNot); break;
      case '+':
        push(cur.match('+') ? Tok::PlusPlus
                            : (cur.match('=') ? Tok::PlusAssign : Tok::Plus));
        break;
      case '-':
        push(cur.match('-') ? Tok::MinusMinus
                            : (cur.match('=') ? Tok::MinusAssign : Tok::Minus));
        break;
      case '*': push(cur.match('=') ? Tok::StarAssign : Tok::Star); break;
      case '/': push(cur.match('=') ? Tok::SlashAssign : Tok::Slash); break;
      case '%': push(cur.match('=') ? Tok::PercentAssign : Tok::Percent); break;
      case '=':
        if (cur.match('=')) {
          push(cur.match('=') ? Tok::EqEqEq : Tok::EqEq);
        } else {
          push(Tok::Assign);
        }
        break;
      case '!':
        if (cur.match('=')) {
          push(cur.match('=') ? Tok::NotEqEq : Tok::NotEq);
        } else {
          push(Tok::Not);
        }
        break;
      case '<':
        if (cur.match('<')) {
          push(cur.match('=') ? Tok::ShlAssign : Tok::Shl);
        } else {
          push(cur.match('=') ? Tok::Le : Tok::Lt);
        }
        break;
      case '>':
        if (cur.match('>')) {
          if (cur.match('>')) {
            push(Tok::UShr);
          } else {
            push(cur.match('=') ? Tok::ShrAssign : Tok::Shr);
          }
        } else {
          push(cur.match('=') ? Tok::Ge : Tok::Gt);
        }
        break;
      case '&':
        push(cur.match('&') ? Tok::AndAnd
                            : (cur.match('=') ? Tok::AmpAssign : Tok::BitAnd));
        break;
      case '|':
        push(cur.match('|') ? Tok::OrOr
                            : (cur.match('=') ? Tok::PipeAssign : Tok::BitOr));
        break;
      case '^': push(cur.match('=') ? Tok::CaretAssign : Tok::BitXor); break;
      default:
        throw LexError(std::string("unexpected character '") + c + "'", line);
    }
  }
  tokens.push_back(Token{Tok::Eof, "", Atom(), 0, cur.line()});
  return tokens;
}

}  // namespace jsceres::js
