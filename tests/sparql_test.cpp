// Tests for the SPARQL {AND, OPT} frontend: lexer, parser, printer,
// data loaders.

#include <gtest/gtest.h>

#include "src/relational/rdf.h"
#include "src/sparql/data_loader.h"
#include "src/sparql/lexer.h"
#include "src/sparql/parser.h"
#include "src/sparql/printer.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

using sparql::ParseQuery;
using sparql::Token;
using sparql::TokenKind;
using sparql::Tokenize;

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> tokens =
      Tokenize("SELECT ?x WHERE ((?x, p, \"v 1\") AND (?x, q, y2)) OPT");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kSelect, TokenKind::kVar, TokenKind::kWhere,
                TokenKind::kLParen, TokenKind::kLParen, TokenKind::kVar,
                TokenKind::kComma, TokenKind::kIdent, TokenKind::kComma,
                TokenKind::kString, TokenKind::kRParen, TokenKind::kAnd,
                TokenKind::kLParen, TokenKind::kVar, TokenKind::kComma,
                TokenKind::kIdent, TokenKind::kComma, TokenKind::kIdent,
                TokenKind::kRParen, TokenKind::kRParen, TokenKind::kOpt,
                TokenKind::kEnd}));
  EXPECT_EQ((*tokens)[9].text, "v 1");
}

TEST(LexerTest, CommentsAndErrors) {
  Result<std::vector<Token>> ok = Tokenize("# comment\n(?x, p, o)");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].kind, TokenKind::kLParen);
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("? ").ok());
  EXPECT_FALSE(Tokenize("{").ok());
}

TEST(ParserTest, Example1QueryParses) {
  RdfContext ctx;
  Result<PatternTree> tree = ParseQuery(
      "(((?x, recorded_by, ?y) AND (?x, published, \"after_2010\")) "
      "OPT (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)",
      &ctx);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_nodes(), 3u);
  EXPECT_EQ(tree->label(PatternTree::kRoot).size(), 2u);
  EXPECT_EQ(tree->children(PatternTree::kRoot).size(), 2u);
  EXPECT_TRUE(tree->IsProjectionFree());
}

TEST(ParserTest, SelectClauseSetsProjection) {
  RdfContext ctx;
  Result<PatternTree> tree = ParseQuery(
      "SELECT ?y ?z WHERE ((?x, recorded_by, ?y) OPT (?x, rated, ?z))",
      &ctx);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->IsProjectionFree());
  EXPECT_EQ(tree->free_vars().size(), 2u);
}

TEST(ParserTest, NestedOptBuildsDeepTree) {
  RdfContext ctx;
  Result<PatternTree> tree = ParseQuery(
      "(?a, p, ?b) OPT ((?b, q, ?c) OPT (?c, r, ?d))", &ctx);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 3u);
  EXPECT_EQ(tree->depth(2), 2u);
}

TEST(ParserTest, NonWellDesignedRejected) {
  RdfContext ctx;
  // ?z appears in two unrelated OPT branches: not well-designed.
  Result<PatternTree> tree = ParseQuery(
      "((?x, p, ?y) OPT (?x, q, ?z)) OPT (?y, r, ?z)", &ctx);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kNotWellDesigned);
}

TEST(ParserTest, SyntaxErrorsReported) {
  RdfContext ctx;
  EXPECT_FALSE(ParseQuery("(?x, p", &ctx).ok());
  EXPECT_FALSE(ParseQuery("(?x, p, o) AND", &ctx).ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x (?x, p, o)", &ctx).ok());
  EXPECT_FALSE(ParseQuery("(?x, p, o) (?x, q, o)", &ctx).ok());
}

TEST(ParserTest, NestingBeyondTheCapIsAParseError) {
  // The parser recurses once per group: 1,000 levels parse, one more is
  // rejected, and so is a 200 KB query that would overflow the stack.
  auto nested = [](size_t levels) {
    return std::string(levels, '(') + "(?x, p, ?y)" +
           std::string(levels, ')');
  };
  RdfContext ctx;
  Result<PatternTree> at_cap = ParseQuery(nested(1000), &ctx);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_nodes(), 1u);
  for (size_t levels : {size_t{1001}, size_t{100000}}) {
    Result<PatternTree> deep = ParseQuery(nested(levels), &ctx);
    ASSERT_FALSE(deep.ok()) << levels << " levels";
    EXPECT_EQ(deep.status().code(), StatusCode::kParseError) << levels;
  }
}

TEST(ParserTest, RoundTripThroughPrinter) {
  RdfContext ctx;
  const char* query =
      "SELECT ?y ?z WHERE (((?x, recorded_by, ?y) AND "
      "(?x, published, after_2010)) OPT (?x, NME_rating, ?z))";
  Result<PatternTree> tree = ParseQuery(query, &ctx);
  ASSERT_TRUE(tree.ok());
  std::string printed =
      sparql::ToAlgebraString(*tree, ctx.schema(), ctx.vocab());
  Result<PatternTree> reparsed = ParseQuery(printed, &ctx);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(reparsed->num_nodes(), tree->num_nodes());
  EXPECT_EQ(reparsed->free_vars(), tree->free_vars());
}

TEST(DataLoaderTest, LoadTriplesAndEvaluate) {
  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  Status status = sparql::LoadTriples(
      "# music data\n"
      "Our_love recorded_by Caribou\n"
      "Our_love published after_2010\n",
      &ctx, &db);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(db.TotalFacts(), 2u);
  Result<PatternTree> tree =
      ParseQuery("(?x, recorded_by, ?y)", &ctx);
  ASSERT_TRUE(tree.ok());
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(*tree, db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

TEST(DataLoaderTest, LoadTriplesRejectsBadLines) {
  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  EXPECT_FALSE(sparql::LoadTriples("only two", &ctx, &db).ok());
}

TEST(DataLoaderTest, LoadRelationalFacts) {
  Schema schema;
  Vocabulary vocab;
  Database db(&schema);
  Status status = sparql::LoadFacts(
      "# graph\n"
      "E(a, b)\n"
      "E(b, c)\n"
      "Label(a, \"start node\")\n",
      &schema, &vocab, &db);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(db.TotalFacts(), 3u);
  EXPECT_NE(schema.Find("E"), Schema::kNotFound);
  EXPECT_EQ(schema.Arity(schema.Find("Label")), 2u);
}

TEST(DataLoaderTest, LoadFactsRejectsArityConflicts) {
  Schema schema;
  Vocabulary vocab;
  Database db(&schema);
  EXPECT_FALSE(
      sparql::LoadFacts("E(a, b)\nE(a, b, c)\n", &schema, &vocab, &db).ok());
  EXPECT_FALSE(sparql::LoadFacts("E a b\n", &schema, &vocab, &db).ok());
}

}  // namespace
}  // namespace wdpt
