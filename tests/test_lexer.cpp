#include <gtest/gtest.h>

#include "js/lexer.h"

namespace jsceres::js {
namespace {

// The tokens' atoms live here, as a parsed program's live in its space.
AtomSpace g_atoms;

std::vector<Token> lex(std::string_view src) { return js::lex(src, g_atoms); }

std::vector<Tok> kinds(const std::string& src) {
  std::vector<Tok> out;
  for (const auto& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEof) {
  const auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, Tok::Eof);
}

TEST(Lexer, Numbers) {
  const auto tokens = lex("42 3.5 1e3 2.5e-2 0x1f");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_DOUBLE_EQ(tokens[0].number, 42);
  EXPECT_DOUBLE_EQ(tokens[1].number, 3.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 1000);
  EXPECT_DOUBLE_EQ(tokens[3].number, 0.025);
  EXPECT_DOUBLE_EQ(tokens[4].number, 31);
}

TEST(Lexer, Strings) {
  const auto tokens = lex(R"('abc' "d\ne" 'q\'t')");
  EXPECT_EQ(tokens[0].atom, "abc");
  EXPECT_EQ(tokens[1].atom, "d\ne");
  EXPECT_EQ(tokens[2].atom, "q't");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(lex("'abc"), LexError);
}

TEST(Lexer, KeywordsVsIdentifiers) {
  const auto tokens = lex("var variable function functional");
  EXPECT_EQ(tokens[0].kind, Tok::KwVar);
  EXPECT_EQ(tokens[1].kind, Tok::Ident);
  EXPECT_EQ(tokens[2].kind, Tok::KwFunction);
  EXPECT_EQ(tokens[3].kind, Tok::Ident);
}

TEST(Lexer, MultiCharOperators) {
  EXPECT_EQ(kinds("=== !== == != <= >= && || << >> >>> += -="),
            (std::vector<Tok>{Tok::EqEqEq, Tok::NotEqEq, Tok::EqEq, Tok::NotEq,
                              Tok::Le, Tok::Ge, Tok::AndAnd, Tok::OrOr, Tok::Shl,
                              Tok::Shr, Tok::UShr, Tok::PlusAssign, Tok::MinusAssign,
                              Tok::Eof}));
}

TEST(Lexer, IncrementVsPlusAssign) {
  EXPECT_EQ(kinds("i++ + ++j"),
            (std::vector<Tok>{Tok::Ident, Tok::PlusPlus, Tok::Plus, Tok::PlusPlus,
                              Tok::Ident, Tok::Eof}));
}

TEST(Lexer, LineComments) {
  const auto tokens = lex("a // comment\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].atom, "a");
  EXPECT_EQ(tokens[1].atom, "b");
  EXPECT_EQ(tokens[1].line, 2);
}

TEST(Lexer, BlockComments) {
  const auto tokens = lex("a /* x\ny */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].atom, "b");
  EXPECT_EQ(tokens[1].line, 2);
}

TEST(Lexer, UnterminatedBlockCommentThrows) {
  EXPECT_THROW(lex("/* oops"), LexError);
}

TEST(Lexer, LineNumbersTrackNewlines) {
  const auto tokens = lex("a\nb\n\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(Lexer, UnexpectedCharacterThrows) {
  EXPECT_THROW(lex("a # b"), LexError);
}

TEST(Lexer, DollarAndUnderscoreIdentifiers) {
  const auto tokens = lex("$el _private x$1");
  EXPECT_EQ(tokens[0].atom, "$el");
  EXPECT_EQ(tokens[1].atom, "_private");
  EXPECT_EQ(tokens[2].atom, "x$1");
}

TEST(Lexer, DotVsNumberDot) {
  const auto tokens = lex("a.b 1.5");
  EXPECT_EQ(tokens[1].kind, Tok::Dot);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5);
}

// The front end's error text is part of its contract: the hostile suites and
// fuzz_driver compare LexError messages and lines byte for byte.
struct ErrorRow {
  const char* source;
  std::size_t max_source_bytes;
  std::size_t max_tokens;
  const char* what;
  int line;
};

TEST(Lexer, ErrorTextAndLineArePinned) {
  const ErrorRow rows[] = {
      {"var s = 'abc", 0, 0, "unterminated string literal (line 1)", 1},
      {"var a = 1;\nvar s = \"abc\n", 0, 0, "newline in string literal (line 2)", 2},
      {"var a = 1;\n/* never\nclosed", 0, 0, "unterminated block comment (line 2)", 2},
      {"var s = 'abc\\", 0, 0, "unterminated escape (line 1)", 1},
      {"var a;\nvar s = 'ab\ncd';", 0, 0, "newline in string literal (line 2)", 2},
      {"var a = 1;\nvar b = a # 2;", 0, 0, "unexpected character '#' (line 2)", 2},
      {"var a = 1;\n\n\nvar b = @;", 0, 0, "unexpected character '@' (line 4)", 4},
      {"var a = 1; var b = 2; var c = 3;", 16, 0, "source too large: 32 > 16 bytes (line 1)", 1},
      {"var a = 1;\nvar b = 2;\nvar c = 3;", 0, 12, "token limit exceeded (12 tokens) (line 3)", 3},
      {"var a = 1;\nvar b = 2;", 0, 5, "token limit exceeded (5 tokens) (line 2)", 2},
  };
  for (const ErrorRow& row : rows) {
    EngineLimits limits;
    limits.max_source_bytes = row.max_source_bytes;
    limits.max_tokens = row.max_tokens;
    try {
      js::lex(row.source, g_atoms, limits);
      ADD_FAILURE() << "no LexError for: " << row.source;
    } catch (const LexError& e) {
      EXPECT_STREQ(e.what(), row.what) << row.source;
      EXPECT_EQ(e.line(), row.line) << row.source;
    }
  }
}

}  // namespace
}  // namespace jsceres::js
