// Parser tests: every predicate shape from the dissertation, error cases,
// and a parse -> print -> parse round-trip property sweep.
#include <gtest/gtest.h>

#include "reldb/expr.h"
#include "sqlparse/lexer.h"
#include "sqlparse/parser.h"

namespace hypre {
namespace sqlparse {
namespace {

using reldb::ExprKind;
using reldb::ExprPtr;

ExprPtr MustParse(const std::string& text) {
  auto r = ParsePredicate(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? r.value() : nullptr;
}

TEST(LexerTest, TokenStream) {
  auto toks = Tokenize("dblp.venue = 'VLDB' AND year >= 2010");
  ASSERT_TRUE(toks.ok());
  std::vector<TokenType> types;
  for (const auto& t : *toks) types.push_back(t.type);
  EXPECT_EQ(types,
            (std::vector<TokenType>{
                TokenType::kIdent, TokenType::kDot, TokenType::kIdent,
                TokenType::kEq, TokenType::kString, TokenType::kAnd,
                TokenType::kIdent, TokenType::kGe, TokenType::kInt,
                TokenType::kEnd}));
}

TEST(LexerTest, NumberForms) {
  auto toks = Tokenize("1 -2 3.5 -0.25 1e3 2.5E-2");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kInt);
  EXPECT_EQ((*toks)[0].int_value, 1);
  EXPECT_EQ((*toks)[1].type, TokenType::kInt);
  EXPECT_EQ((*toks)[1].int_value, -2);
  EXPECT_EQ((*toks)[2].type, TokenType::kReal);
  EXPECT_DOUBLE_EQ((*toks)[2].real_value, 3.5);
  EXPECT_DOUBLE_EQ((*toks)[3].real_value, -0.25);
  EXPECT_DOUBLE_EQ((*toks)[4].real_value, 1000.0);
  EXPECT_DOUBLE_EQ((*toks)[5].real_value, 0.025);
}

TEST(LexerTest, QuoteStyles) {
  auto toks = Tokenize("\"INFOCOM\" 'O''Hara'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "INFOCOM");
  EXPECT_EQ((*toks)[1].text, "O'Hara");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
}

TEST(ParserTest, SimpleEquality) {
  ExprPtr e = MustParse("dblp.venue=\"INFOCOM\"");
  ASSERT_EQ(e->kind(), ExprKind::kCompare);
  EXPECT_EQ(e->ToString(), "dblp.venue='INFOCOM'");
}

TEST(ParserTest, UnqualifiedColumn) {
  ExprPtr e = MustParse("year>2010");
  EXPECT_EQ(e->ToString(), "year>2010");
}

TEST(ParserTest, Between) {
  ExprPtr e = MustParse("price between 7000 AND 16000");
  ASSERT_EQ(e->kind(), ExprKind::kBetween);
  EXPECT_EQ(e->ToString(), "price BETWEEN 7000 AND 16000");
}

TEST(ParserTest, InList) {
  ExprPtr e = MustParse("make IN ('BMW', 'Honda')");
  ASSERT_EQ(e->kind(), ExprKind::kInList);
  EXPECT_EQ(e->ToString(), "make IN ('BMW', 'Honda')");
}

TEST(ParserTest, PrecedenceAndOverOr) {
  // a=1 OR b=2 AND c=3  parses as  a=1 OR (b=2 AND c=3)
  ExprPtr e = MustParse("a=1 OR b=2 AND c=3");
  ASSERT_EQ(e->kind(), ExprKind::kOr);
  const auto& orx = static_cast<const reldb::NaryExpr&>(*e);
  ASSERT_EQ(orx.children().size(), 2u);
  EXPECT_EQ(orx.children()[1]->kind(), ExprKind::kAnd);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  ExprPtr e = MustParse("(a=1 OR b=2) AND c=3");
  ASSERT_EQ(e->kind(), ExprKind::kAnd);
}

TEST(ParserTest, NotBindsTightest) {
  ExprPtr e = MustParse("NOT a=1 AND b=2");
  ASSERT_EQ(e->kind(), ExprKind::kAnd);
  const auto& andx = static_cast<const reldb::NaryExpr&>(*e);
  EXPECT_EQ(andx.children()[0]->kind(), ExprKind::kNot);
}

TEST(ParserTest, DissertationPredicates) {
  // Every predicate string that appears in the dissertation's text.
  for (const char* text : {
           "dblp.venue=\"INFOCOM\"",
           "dblp.venue=\"PODS\"",
           "dblp_author.aid=128",
           "dblp_author.aid=116",
           "year>=2000 AND year<=2005",
           "year>=2009",
           "venue=\"VLDB\" AND year>=2010",
           "venue=\"VLDB\" AND year<2010",
           "(dblp.venue=\"INFOCOM\" OR dblp.venue=\"PODS\") AND "
           "(author.aid=128 OR author.aid=116)",
           "price between 7000 AND 16000",
           "mileage between 20000 and 50000",
           "make IN ('BMW', 'Honda')",
           "color in ('red')",
       }) {
    // "color in ('red')" alone is the PREFERRING-clause fragment; our
    // grammar accepts IN as a complete predicate.
    EXPECT_TRUE(ParsePredicate(text).ok()) << text;
  }
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParsePredicate("").ok());
  EXPECT_FALSE(ParsePredicate("a=").ok());
  EXPECT_FALSE(ParsePredicate("a==1").ok());
  EXPECT_FALSE(ParsePredicate("(a=1").ok());
  EXPECT_FALSE(ParsePredicate("a=1 extra").ok());
  EXPECT_FALSE(ParsePredicate("a BETWEEN 1").ok());
  EXPECT_FALSE(ParsePredicate("a IN ()").ok());
  EXPECT_FALSE(ParsePredicate("a IN (1,)").ok());
  EXPECT_FALSE(ParsePredicate("AND a=1").ok());
  EXPECT_FALSE(ParsePredicate("a.b.c=1").ok());
}

TEST(ParserTest, NestingDepthIsCapped) {
  auto nested_parens = [](size_t depth) {
    return std::string(depth, '(') + "a=1" + std::string(depth, ')');
  };
  auto not_chain = [](size_t depth) {
    std::string text;
    for (size_t i = 0; i < depth; ++i) text += "NOT ";
    return text + "a=1";
  };
  // At the cap (64 levels) both shapes still parse.
  EXPECT_NE(MustParse(nested_parens(64)), nullptr);
  EXPECT_NE(MustParse(not_chain(64)), nullptr);
  EXPECT_NE(MustParse("NOT (" + nested_parens(62) + ")"), nullptr);
  // One level past it, and far past it, they fail cleanly.
  for (size_t depth : {size_t{65}, size_t{200000}}) {
    for (const std::string& text : {nested_parens(depth), not_chain(depth)}) {
      auto r = ParsePredicate(text);
      ASSERT_FALSE(r.ok()) << "depth " << depth;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError);
      EXPECT_NE(r.status().message().find("nests deeper"), std::string::npos)
          << r.status().ToString();
    }
  }
  EXPECT_FALSE(ParsePredicate("NOT (" + nested_parens(64) + ")").ok());
}

TEST(ParserTest, LiteralOnLeft) {
  ExprPtr e = MustParse("2010 <= year");
  EXPECT_EQ(e->ToString(), "2010<=year");
}

// Round-trip property: parse(text).ToString() re-parses to a structurally
// identical tree, and the printed form is a fixed point.
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParse) {
  ExprPtr first = MustParse(GetParam());
  ASSERT_NE(first, nullptr);
  std::string printed = first->ToString();
  ExprPtr second = MustParse(printed);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(reldb::ExprEquals(*first, *second)) << printed;
  EXPECT_EQ(printed, second->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTrip,
    ::testing::Values(
        "dblp.venue='VLDB'", "a=1 AND b=2 AND c=3", "a=1 OR b=2 OR c=3",
        "a=1 AND (b=2 OR c=3)", "(a=1 OR b=2) AND (c=3 OR d=4)",
        "NOT (a=1)", "NOT (a=1 AND b=2)", "x BETWEEN -1 AND 1",
        "score>=0.5", "name!='x'", "v IN (1, 2, 3)",
        "v IN ('a', 'b')", "t.c<=-0.25",
        "(a=1 AND b=2) OR (a=2 AND b=1)",
        "dblp.venue='VLDB' AND (dblp_author.aid=1 OR dblp_author.aid=2)"));

}  // namespace
}  // namespace sqlparse
}  // namespace hypre
