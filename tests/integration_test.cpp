// End-to-end pipeline tests and evaluation corner cases: parse ->
// classify -> evaluate -> optimize -> approximate on a fixed scenario,
// plus tricky CQ shapes (self-loops, repeated variables, disconnected
// components, constants) across every evaluation strategy.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/semantic.h"
#include "src/analysis/subsumption.h"
#include "src/cq/evaluation.h"
#include "src/gen/cq_gen.h"
#include "src/relational/rdf.h"
#include "src/sparql/data_loader.h"
#include "src/sparql/parser.h"
#include "src/sparql/printer.h"
#include "src/uwdpt/approx.h"
#include "src/uwdpt/semantic.h"
#include "src/wdpt/classify.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_tractable.h"

namespace wdpt {
namespace {

constexpr char kCatalog[] = R"(
rec1 recorded_by band1
rec1 published after_2010
rec1 NME_rating 7
rec2 recorded_by band1
rec2 published after_2010
rec3 recorded_by band2
rec3 published before_2010
rec4 recorded_by band2
rec4 published after_2010
band1 formed_in 1999
)";

TEST(PipelineTest, ParseClassifyEvaluateOptimize) {
  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  ASSERT_TRUE(sparql::LoadTriples(kCatalog, &ctx, &db).ok());

  Result<PatternTree> parsed = sparql::ParseQuery(
      "SELECT ?band ?rating ?year WHERE "
      "((((?rec, recorded_by, ?band) AND (?rec, published, after_2010))"
      "  OPT (?rec, NME_rating, ?rating))"
      " OPT (?band, formed_in, ?year))",
      &ctx);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  PatternTree tree = std::move(*parsed);

  // Classification: the query is in every tractable class.
  Result<WdptClassification> cls = ClassifyWdpt(tree, 1);
  ASSERT_TRUE(cls.ok());
  EXPECT_TRUE(cls->locally_tw_k);
  EXPECT_TRUE(cls->globally_tw_k);
  EXPECT_FALSE(cls->projection_free);

  // Evaluation: expected answers.
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  // rec1: band1 + rating 7 + year 1999; rec2: band1 + year (no rating);
  // rec4: band2 alone; rec3 filtered by published.
  EXPECT_EQ(answers->size(), 3u);
  size_t with_rating = 0;
  size_t with_year = 0;
  VariableId rating = ctx.vocab().Variable("rating").variable_id();
  VariableId year = ctx.vocab().Variable("year").variable_id();
  for (const Mapping& m : *answers) {
    with_rating += m.IsDefinedOn(rating);
    with_year += m.IsDefinedOn(year);
  }
  EXPECT_EQ(with_rating, 1u);
  EXPECT_EQ(with_year, 2u);

  // Every answer passes all applicable membership tests.
  for (const Mapping& m : *answers) {
    Result<bool> naive = EvalNaive(tree, db, m);
    Result<bool> tractable = EvalTractable(tree, db, m);
    Result<bool> partial = PartialEval(tree, db, m);
    ASSERT_TRUE(naive.ok() && tractable.ok() && partial.ok());
    EXPECT_TRUE(*naive);
    EXPECT_TRUE(*tractable);
    EXPECT_TRUE(*partial);
  }

  // Maximal-mapping semantics drops the subsumed band1 answer.
  Result<std::vector<Mapping>> maximal = EvaluateWdptMaximal(tree, db);
  ASSERT_TRUE(maximal.ok());
  EXPECT_EQ(maximal->size(), 2u);
  for (const Mapping& m : *maximal) {
    Result<bool> is_max = MaxEval(tree, db, m);
    ASSERT_TRUE(is_max.ok());
    EXPECT_TRUE(*is_max);
  }

  // The pruned tree is subsumption-equivalent and evaluation agrees.
  Result<PatternTree> pruned = Lemma1Prune(tree);
  ASSERT_TRUE(pruned.ok());
  Result<bool> eq = SubsumptionEquivalent(tree, *pruned, &ctx.schema(),
                                          &ctx.vocab());
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);

  // Printing and re-parsing are stable.
  std::string printed =
      sparql::ToAlgebraString(tree, ctx.schema(), ctx.vocab());
  Result<PatternTree> reparsed = sparql::ParseQuery(printed, &ctx);
  ASSERT_TRUE(reparsed.ok()) << printed;
  Result<std::vector<Mapping>> answers2 = EvaluateWdptProjected(*reparsed, db);
  ASSERT_TRUE(answers2.ok());
  std::sort(answers->begin(), answers->end());
  std::sort(answers2->begin(), answers2->end());
  EXPECT_EQ(*answers, *answers2);
}

TEST(PipelineTest, UnionPipelineOnRdfQuery) {
  RdfContext ctx;
  Result<PatternTree> parsed = sparql::ParseQuery(
      "SELECT ?band WHERE ((?rec, recorded_by, ?band)"
      " OPT (?rec, NME_rating, ?rating))",
      &ctx);
  ASSERT_TRUE(parsed.ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(*parsed));
  Result<bool> in_uwb = IsInSemanticUWB(phi, WidthMeasure::kTreewidth, 1,
                                        &ctx.schema(), &ctx.vocab());
  ASSERT_TRUE(in_uwb.ok());
  EXPECT_TRUE(*in_uwb);
  Result<UnionOfCqs> equivalent = ConstructUWBEquivalent(
      phi, WidthMeasure::kTreewidth, 1, &ctx.schema(), &ctx.vocab());
  ASSERT_TRUE(equivalent.ok());
  EXPECT_FALSE(equivalent->empty());
  Result<UnionOfCqs> approx = ComputeUwbApproximation(
      phi, WidthMeasure::kTreewidth, 1, &ctx.schema(), &ctx.vocab());
  ASSERT_TRUE(approx.ok());
  // phi is already in the class, so the approximation is equivalent.
  EXPECT_TRUE(*UcqSubsumptionEquivalent(*equivalent, *approx, &ctx.schema(),
                                        &ctx.vocab()));
}

// ---- Evaluation corner cases ----------------------------------------------

class CornerCases : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Term V(const std::string& name) { return vocab_.Variable(name); }
  Term C(const std::string& name) { return vocab_.Constant(name); }
  Atom Edge(Term a, Term b) {
    return Atom(gen::EdgeRelation(&schema_), {a, b});
  }

  Database TwoLoops() {
    Database db(&schema_);
    auto add = [&](const std::string& a, const std::string& b) {
      ConstantId t[2] = {vocab_.ConstantIdOf(a), vocab_.ConstantIdOf(b)};
      WDPT_CHECK(db.AddFact(gen::EdgeRelation(&schema_), t).ok());
    };
    add("p", "p");
    add("q", "q");
    add("p", "q");
    return db;
  }

  std::vector<Mapping> EvalBoth(const ConjunctiveQuery& q,
                                const Database& db) {
    CqEvalOptions naive;
    naive.strategy = CqEvalStrategy::kBacktracking;
    CqEvalOptions structured;
    structured.strategy = CqEvalStrategy::kDecomposition;
    std::vector<Mapping> a = EvaluateCq(q, db, naive);
    std::vector<Mapping> b = EvaluateCq(q, db, structured);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    return a;
  }
};

TEST_F(CornerCases, SelfLoopAtom) {
  Database db = TwoLoops();
  ConjunctiveQuery q;
  q.atoms = {Edge(V("x"), V("x"))};
  q.free_vars = {V("x").variable_id()};
  q.Normalize();
  EXPECT_EQ(EvalBoth(q, db).size(), 2u);
}

TEST_F(CornerCases, DisconnectedComponentsCrossProduct) {
  Database db = TwoLoops();
  ConjunctiveQuery q;
  q.atoms = {Edge(V("x"), V("x")), Edge(V("y"), V("y"))};
  q.free_vars = {V("x").variable_id(), V("y").variable_id()};
  q.Normalize();
  EXPECT_EQ(EvalBoth(q, db).size(), 4u);  // {p,q} x {p,q}.
}

TEST_F(CornerCases, DisconnectedBooleanConjunct) {
  Database db = TwoLoops();
  ConjunctiveQuery q;
  q.atoms = {Edge(V("x"), V("x")), Edge(V("u"), V("v"))};
  q.free_vars = {V("u").variable_id(), V("v").variable_id()};
  q.Normalize();
  EXPECT_EQ(EvalBoth(q, db).size(), 3u);
}

TEST_F(CornerCases, ConstantsInAtoms) {
  Database db = TwoLoops();
  ConjunctiveQuery q;
  q.atoms = {Edge(C("p"), V("y"))};
  q.free_vars = {V("y").variable_id()};
  q.Normalize();
  EXPECT_EQ(EvalBoth(q, db).size(), 2u);  // p -> p, p -> q.
  ConjunctiveQuery ground;
  ground.atoms = {Edge(C("q"), C("p"))};
  ground.Normalize();
  EXPECT_TRUE(EvalBoth(ground, db).empty());
}

TEST_F(CornerCases, EmptyBodyQuery) {
  Database db = TwoLoops();
  ConjunctiveQuery q;  // Boolean, empty body: trivially true.
  EXPECT_EQ(EvaluateCq(q, db).size(), 1u);
}

TEST_F(CornerCases, WdptWithConstantOnlyChild) {
  Database db = TwoLoops();
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("x")));
  tree.AddChild(PatternTree::kRoot, {Edge(C("p"), C("q"))});
  tree.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  // The ground child matches, but binds nothing: answers unchanged.
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
  for (const Mapping& m : *answers) {
    Result<bool> naive = EvalNaive(tree, db, m);
    Result<bool> tractable = EvalTractable(tree, db, m);
    ASSERT_TRUE(naive.ok() && tractable.ok());
    EXPECT_TRUE(*naive);
    EXPECT_TRUE(*tractable);
  }
}

TEST_F(CornerCases, WdptWithEmptyRootLabel) {
  Database db = TwoLoops();
  PatternTree tree;  // Empty root label: always satisfied.
  tree.AddChild(PatternTree::kRoot, {Edge(V("x"), V("x"))});
  tree.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  // Two loop answers; the empty mapping is NOT an answer because the
  // child is enterable (maximality).
  EXPECT_EQ(answers->size(), 2u);
  Result<bool> empty_in = EvalNaive(tree, db, Mapping());
  ASSERT_TRUE(empty_in.ok());
  EXPECT_FALSE(*empty_in);
  // On a database where the child cannot match, the empty mapping is the
  // unique answer.
  Database empty_db(&schema_);
  Result<std::vector<Mapping>> no_match = EvaluateWdptProjected(tree, empty_db);
  ASSERT_TRUE(no_match.ok());
  ASSERT_EQ(no_match->size(), 1u);
  EXPECT_TRUE((*no_match)[0].empty());
}

}  // namespace
}  // namespace wdpt
