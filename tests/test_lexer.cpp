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
  EXPECT_EQ(tokens[0].text, "abc");
  EXPECT_EQ(tokens[1].text, "d\ne");
  EXPECT_EQ(tokens[2].text, "q't");
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
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].line, 2);
}

TEST(Lexer, BlockComments) {
  const auto tokens = lex("a /* x\ny */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
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
  EXPECT_EQ(tokens[0].text, "$el");
  EXPECT_EQ(tokens[1].text, "_private");
  EXPECT_EQ(tokens[2].text, "x$1");
}

TEST(Lexer, DotVsNumberDot) {
  const auto tokens = lex("a.b 1.5");
  EXPECT_EQ(tokens[1].kind, Tok::Dot);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5);
}

}  // namespace
}  // namespace jsceres::js
