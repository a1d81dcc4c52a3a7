#include "js/lexer.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace jsceres::js {

namespace {

enum : std::uint8_t { kSpace = 1, kIdentStart = 2, kDigit = 4, kHexDigit = 8 };

/// The "C" locale's isspace / isalpha-or-`_$` / isdigit / isxdigit, one
/// lookup per byte.
constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) table[std::uint8_t(c)] |= kSpace;
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kIdentStart;
  table['_'] |= kIdentStart;
  table['$'] |= kIdentStart;
  for (int c = '0'; c <= '9'; ++c) table[c] |= kDigit | kHexDigit;
  for (int c = 'a'; c <= 'f'; ++c) table[c] |= kHexDigit;
  for (int c = 'A'; c <= 'F'; ++c) table[c] |= kHexDigit;
  return table;
}();

bool is(char c, std::uint8_t cls) { return (kCharClass[std::uint8_t(c)] & cls) != 0; }

/// The keyword an identifier spells, or Tok::Ident: a switch on the first
/// character and the length, then one compare.
Tok keyword_kind(std::string_view text) {
  const auto kw = [text](Tok kind) {
    return text == kKeywordSpellings[std::size_t(kind) - std::size_t(Tok::KwVar)]
               ? kind
               : Tok::Ident;
  };
  const std::size_t n = text.size();
  switch (text[0]) {
    case 'b': return kw(Tok::KwBreak);
    case 'c': return kw(n == 8 ? Tok::KwContinue : Tok::KwCatch);
    case 'd': return kw(n == 2 ? Tok::KwDo : Tok::KwDelete);
    case 'e': return kw(Tok::KwElse);
    case 'f':
      return kw(n == 3   ? Tok::KwFor
                : n == 5 ? Tok::KwFalse
                : n == 7 ? Tok::KwFinally
                         : Tok::KwFunction);
    case 'i':
      return kw(n == 10 ? Tok::KwInstanceof : text[n - 1] == 'f' ? Tok::KwIf : Tok::KwIn);
    case 'n': return kw(n == 3 ? Tok::KwNew : Tok::KwNull);
    case 'r': return kw(Tok::KwReturn);
    case 't':
      switch (n) {
        case 3: return kw(Tok::KwTry);
        case 4: return kw(text[1] == 'h' ? Tok::KwThis : Tok::KwTrue);
        case 5: return kw(Tok::KwThrow);
        case 6: return kw(Tok::KwTypeof);
        default: return Tok::Ident;
      }
    case 'v': return kw(Tok::KwVar);
    case 'w': return kw(Tok::KwWhile);
    default: return Tok::Ident;
  }
}

/// The prefix atom of keyword `kind` (the prefix interns every keyword when
/// it is built, so these lookups never create anything).
Atom keyword_atom(Tok kind) {
  static const auto atoms = [] {
    std::array<Atom, std::size(kKeywordSpellings)> out;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = Atom::intern(kKeywordSpellings[i]);
    return out;
  }();
  return atoms[std::size_t(kind) - std::size_t(Tok::KwVar)];
}

/// A decimal literal's value: from_chars, which rounds exactly as strtod
/// does, with strtod itself for the overflow and underflow cases that
/// from_chars reports as errors (inf and 0).
double decimal_value(std::string_view text) {
  double value = 0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec == std::errc()) {
    return value;
  }
  return std::strtod(std::string(text).c_str(), nullptr);
}

/// A hex literal's value from its digits, saturating as strtoll does.
double hex_value(std::string_view digits) {
  long long value = 0;
  if (std::from_chars(digits.data(), digits.data() + digits.size(), value, 16).ec ==
      std::errc::result_out_of_range) {
    value = LLONG_MAX;
  }
  return double(value);
}

class Lexer {
 public:
  Lexer(std::string_view src, AtomSpace& atoms) : src_(src), names_(atoms) {}

  std::vector<Token> run(const EngineLimits& limits) {
    std::vector<Token> tokens;
    // Generated programs run 2.5 source bytes per token and the study apps
    // 3-4.5; the vector grows past a denser source.
    std::size_t expected = src_.size() / 2 + 16;
    if (limits.max_tokens > 0) expected = std::min(expected, limits.max_tokens + 1);
    tokens.reserve(expected);
    while (true) {
      skip_trivia();
      if (at_end()) break;
      if (limits.max_tokens > 0 && tokens.size() >= limits.max_tokens) {
        throw LexError("token limit exceeded (" + std::to_string(limits.max_tokens) +
                           " tokens)",
                       line_);
      }
      tokens.push_back(next());
    }
    tokens.push_back(Token{Tok::Eof, line_, Atom(), 0, std::uint32_t(pos_)});
    return tokens;
  }

 private:
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
    ++pos_;
    return true;
  }

  void skip_trivia() {
    while (!at_end()) {
      const char c = peek();
      if (is(c, kSpace)) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') ++pos_;
      } else if (c == '/' && peek(1) == '*') {
        const int start_line = line_;
        pos_ += 2;
        while (!(peek() == '*' && peek(1) == '/')) {
          if (at_end()) throw LexError("unterminated block comment", start_line);
          advance();
        }
        pos_ += 2;
      } else {
        return;
      }
    }
  }

  Token next() {
    Token token;
    token.line = line_;
    token.offset = std::uint32_t(pos_);
    const char c = peek();
    if (is(c, kDigit)) {
      token.kind = Tok::Number;
      token.number = lex_number();
      return token;
    }
    if (c == '"' || c == '\'') {
      token.kind = Tok::String;
      token.atom = names_.intern(lex_string());
      return token;
    }
    if (is(c, kIdentStart)) {
      const std::size_t start = pos_;
      while (is(peek(), kIdentStart | kDigit)) ++pos_;
      const std::string_view text = src_.substr(start, pos_ - start);
      token.kind = keyword_kind(text);
      token.atom = token.kind == Tok::Ident ? names_.intern(text) : keyword_atom(token.kind);
      return token;
    }
    ++pos_;
    token.kind = punctuator(c);
    return token;
  }

  double lex_number() {
    const std::size_t start = pos_;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      pos_ += 2;
      while (is(peek(), kHexDigit)) ++pos_;
      return hex_value(src_.substr(start + 2, pos_ - start - 2));
    }
    while (is(peek(), kDigit)) ++pos_;
    if (peek() == '.' && is(peek(1), kDigit)) {
      ++pos_;
      while (is(peek(), kDigit)) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      const std::size_t ahead = peek(1) == '+' || peek(1) == '-' ? 2 : 1;
      if (is(peek(ahead), kDigit)) {
        pos_ += ahead;
        while (is(peek(), kDigit)) ++pos_;
      }
    }
    return decimal_value(src_.substr(start, pos_ - start));
  }

  /// The literal's value: a view of the source when it has no escape, else
  /// decoded into `decoded_`.
  std::string_view lex_string() {
    const int line = line_;
    const char quote = advance();
    const std::size_t start = pos_;
    bool escaped = false;
    while (true) {
      if (at_end()) throw LexError("unterminated string literal", line);
      const char c = advance();
      if (c == quote) break;
      if (c == '\n') throw LexError("newline in string literal", line);
      if (c == '\\') {
        if (!escaped) {
          decoded_.assign(src_.substr(start, pos_ - 1 - start));
          escaped = true;
        }
        if (at_end()) throw LexError("unterminated escape", line);
        const char esc = advance();
        switch (esc) {
          case 'n': decoded_ += '\n'; break;
          case 't': decoded_ += '\t'; break;
          case 'r': decoded_ += '\r'; break;
          case '0': decoded_ += '\0'; break;
          default: decoded_ += esc; break;
        }
      } else if (escaped) {
        decoded_ += c;
      }
    }
    return escaped ? std::string_view(decoded_) : src_.substr(start, pos_ - 1 - start);
  }

  /// The operator or punctuator starting with `c` (already consumed).
  Tok punctuator(char c) {
    switch (c) {
      case '(': return Tok::LParen;
      case ')': return Tok::RParen;
      case '{': return Tok::LBrace;
      case '}': return Tok::RBrace;
      case '[': return Tok::LBracket;
      case ']': return Tok::RBracket;
      case ';': return Tok::Semicolon;
      case ',': return Tok::Comma;
      case '.': return Tok::Dot;
      case ':': return Tok::Colon;
      case '?': return Tok::Question;
      case '~': return Tok::BitNot;
      case '+':
        return match('+') ? Tok::PlusPlus : match('=') ? Tok::PlusAssign : Tok::Plus;
      case '-':
        return match('-') ? Tok::MinusMinus : match('=') ? Tok::MinusAssign : Tok::Minus;
      case '*': return match('=') ? Tok::StarAssign : Tok::Star;
      case '/': return match('=') ? Tok::SlashAssign : Tok::Slash;
      case '%': return match('=') ? Tok::PercentAssign : Tok::Percent;
      case '=':
        if (match('=')) return match('=') ? Tok::EqEqEq : Tok::EqEq;
        return Tok::Assign;
      case '!':
        if (match('=')) return match('=') ? Tok::NotEqEq : Tok::NotEq;
        return Tok::Not;
      case '<':
        if (match('<')) return match('=') ? Tok::ShlAssign : Tok::Shl;
        return match('=') ? Tok::Le : Tok::Lt;
      case '>':
        if (match('>')) {
          if (match('>')) return Tok::UShr;
          return match('=') ? Tok::ShrAssign : Tok::Shr;
        }
        return match('=') ? Tok::Ge : Tok::Gt;
      case '&':
        return match('&') ? Tok::AndAnd : match('=') ? Tok::AmpAssign : Tok::BitAnd;
      case '|':
        return match('|') ? Tok::OrOr : match('=') ? Tok::PipeAssign : Tok::BitOr;
      case '^': return match('=') ? Tok::CaretAssign : Tok::BitXor;
      default:
        throw LexError(std::string("unexpected character '") + c + "'", line_);
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  AtomCache names_;
  std::string decoded_;
};

}  // namespace

const char* tok_name(Tok kind) {
  // In Tok order.
  static constexpr const char* kNames[] = {
      "number", "string", "identifier", "'var'", "'function'", "'return'", "'if'", "'else'",
      "'for'", "'while'", "'do'", "'break'", "'continue'", "'new'", "'delete'", "'typeof'",
      "'this'", "'true'", "'false'", "'null'", "'in'", "'instanceof'", "'throw'", "'try'",
      "'catch'", "'finally'", "'('", "')'", "'{'", "'}'", "'['", "']'", "';'", "','", "'.'",
      "':'", "'?'", "'='", "'+='", "'-='", "'*='", "'/='", "'%='", "'&='", "'|='", "'^='",
      "'<<='", "'>>='", "'+'", "'-'", "'*'", "'/'", "'%'", "'++'", "'--'", "'=='", "'!='",
      "'==='", "'!=='", "'<'", "'>'", "'<='", "'>='", "'&&'", "'||'", "'!'", "'&'", "'|'",
      "'^'", "'~'", "'<<'", "'>>'", "'>>>'", "end of input",
  };
  static_assert(std::size(kNames) == std::size_t(Tok::Eof) + 1);
  return kNames[std::size_t(kind)];
}

std::string number_to_string(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", d);
  return buf;
}

std::vector<Token> lex(std::string_view source, AtomSpace& atoms,
                       const EngineLimits& limits) {
  if (limits.max_source_bytes > 0 && source.size() > limits.max_source_bytes) {
    throw LexError("source too large: " + std::to_string(source.size()) +
                       " > " + std::to_string(limits.max_source_bytes) +
                       " bytes",
                   1);
  }
  return Lexer(source, atoms).run(limits);
}

}  // namespace jsceres::js
