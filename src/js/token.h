#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>

#include "js/atom.h"

namespace jsceres::js {

/// Token kinds for the JavaScript subset accepted by the engine (ES5-style:
/// the language level of the paper's 2014 study corpus, before ES6 shipped).
enum class Tok {
  // Literals / names
  Number,
  String,
  Ident,
  // Keywords
  KwVar,
  KwFunction,
  KwReturn,
  KwIf,
  KwElse,
  KwFor,
  KwWhile,
  KwDo,
  KwBreak,
  KwContinue,
  KwNew,
  KwDelete,
  KwTypeof,
  KwThis,
  KwTrue,
  KwFalse,
  KwNull,
  KwIn,
  KwInstanceof,
  KwThrow,
  KwTry,
  KwCatch,
  KwFinally,
  // Punctuation
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semicolon,
  Comma,
  Dot,
  Colon,
  Question,
  // Operators
  Assign,         // =
  PlusAssign,     // +=
  MinusAssign,    // -=
  StarAssign,     // *=
  SlashAssign,    // /=
  PercentAssign,  // %=
  AmpAssign,      // &=
  PipeAssign,     // |=
  CaretAssign,    // ^=
  ShlAssign,      // <<=
  ShrAssign,      // >>=
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  PlusPlus,
  MinusMinus,
  EqEq,
  NotEq,
  EqEqEq,
  NotEqEq,
  Lt,
  Gt,
  Le,
  Ge,
  AndAnd,
  OrOr,
  Not,
  BitAnd,
  BitOr,
  BitXor,
  BitNot,
  Shl,
  Shr,
  UShr,
  // End of input
  Eof,
};

/// Keyword spellings, in Tok order from Tok::KwVar to Tok::KwFinally. Their
/// atoms live in the process-wide prefix from its construction on, with the
/// engine's own names (atom.cpp), so a keyword token never touches the
/// program's atom space.
inline constexpr std::string_view kKeywordSpellings[] = {
    "var", "function", "return", "if", "else", "for", "while", "do",
    "break", "continue", "new", "delete", "typeof", "this", "true", "false",
    "null", "in", "instanceof", "throw", "try", "catch", "finally",
};
static_assert(std::size(kKeywordSpellings) ==
              std::size_t(Tok::KwFinally) - std::size_t(Tok::KwVar) + 1);

[[nodiscard]] constexpr bool is_keyword(Tok kind) {
  return kind >= Tok::KwVar && kind <= Tok::KwFinally;
}

/// One token: plain data, 32 bytes. `atom` is the name for Ident and
/// keyword tokens and the decoded value for String tokens (empty
/// otherwise); `number` is a Number token's value; `offset` is the byte
/// offset of the token's first character in the source.
struct Token {
  Tok kind = Tok::Eof;
  int line = 0;  // 1-based source line
  Atom atom;
  double number = 0;
  std::uint32_t offset = 0;
};
static_assert(std::is_trivially_copyable_v<Token>);

/// Human-readable token-kind name, for diagnostics.
const char* tok_name(Tok kind);

/// The canonical string of a number, as `String(n)` spells it ("16",
/// "1.5", "Infinity"); numeric property keys are keyed by it.
std::string number_to_string(double d);

}  // namespace jsceres::js
