// Tests for WDPT evaluation: the paper's running examples (Examples 1-3
// and 7), agreement of all evaluators, partial/max evaluation, the
// projection-free algorithm, and the Proposition 3 hardness instances.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/gen/db_gen.h"
#include "src/gen/reductions.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/wdpt/classify.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_projection_free.h"
#include "src/wdpt/eval_tractable.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {
namespace {

// Figure 1 WDPT with configurable projection.
PatternTree MakeFigure1Tree(RdfContext* ctx,
                            const std::vector<std::string>& projection) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "recorded_by", "?y"));
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "published", "after_2010"));
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?x", "NME_rating", "?z")});
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?y", "formed_in", "?z2")});
  if (projection.empty()) {
    tree.SetFreeVariables(tree.AllVariables());
  } else {
    std::vector<VariableId> free_vars;
    for (const std::string& name : projection) {
      free_vars.push_back(ctx->vocab().Variable(name).variable_id());
    }
    tree.SetFreeVariables(std::move(free_vars));
  }
  WDPT_CHECK(tree.Validate().ok());
  return tree;
}

// The database of Example 2.
Database MakeExample2Db(RdfContext* ctx) {
  Database db = ctx->MakeDatabase();
  ctx->AddTriple(&db, "Our_love", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Our_love", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Swim", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "NME_rating", "2");
  return db;
}

Mapping M(RdfContext* ctx,
          const std::vector<std::pair<std::string, std::string>>& entries) {
  Mapping m;
  for (const auto& [var, value] : entries) {
    WDPT_CHECK(m.Bind(ctx->vocab().Variable(var).variable_id(),
                      ctx->vocab().Constant(value).constant_id()));
  }
  return m;
}

TEST(PaperExamples, Example2Evaluation) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {});
  Database db = MakeExample2Db(&ctx);
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  Mapping mu1 = M(&ctx, {{"x", "Our_love"}, {"y", "Caribou"}});
  Mapping mu2 = M(&ctx, {{"x", "Swim"}, {"y", "Caribou"}, {"z", "2"}});
  ASSERT_EQ(answers->size(), 2u);
  EXPECT_TRUE(std::count(answers->begin(), answers->end(), mu1) == 1);
  EXPECT_TRUE(std::count(answers->begin(), answers->end(), mu2) == 1);
}

TEST(PaperExamples, Example3Projection) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {"y", "z", "z2"});
  Database db = MakeExample2Db(&ctx);
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  Mapping mu1p = M(&ctx, {{"y", "Caribou"}});
  Mapping mu2p = M(&ctx, {{"y", "Caribou"}, {"z", "2"}});
  ASSERT_EQ(answers->size(), 2u);
  EXPECT_EQ(std::count(answers->begin(), answers->end(), mu1p), 1);
  EXPECT_EQ(std::count(answers->begin(), answers->end(), mu2p), 1);
}

TEST(PaperExamples, Example7MaximalMappings) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {"y", "z"});
  Database db = MakeExample2Db(&ctx);
  Result<std::vector<Mapping>> all = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  Result<std::vector<Mapping>> maximal = EvaluateWdptMaximal(tree, db);
  ASSERT_TRUE(maximal.ok());
  Mapping mu2 = M(&ctx, {{"y", "Caribou"}, {"z", "2"}});
  ASSERT_EQ(maximal->size(), 1u);
  EXPECT_EQ((*maximal)[0], mu2);
}

TEST(PaperExamples, EvalMembershipMatchesEnumeration) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {"y", "z"});
  Database db = MakeExample2Db(&ctx);
  Mapping mu1 = M(&ctx, {{"y", "Caribou"}});
  Mapping mu2 = M(&ctx, {{"y", "Caribou"}, {"z", "2"}});
  Mapping bogus = M(&ctx, {{"y", "Swim"}});
  for (const auto& [m, expected] :
       std::vector<std::pair<Mapping, bool>>{{mu1, true},
                                             {mu2, true},
                                             {bogus, false}}) {
    Result<bool> naive = EvalNaive(tree, db, m);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*naive, expected);
    Result<bool> tractable = EvalTractable(tree, db, m);
    ASSERT_TRUE(tractable.ok());
    EXPECT_EQ(*tractable, expected);
  }
}

TEST(PaperExamples, PartialAndMaxEval) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {"y", "z"});
  Database db = MakeExample2Db(&ctx);
  Mapping mu1 = M(&ctx, {{"y", "Caribou"}});
  Mapping mu2 = M(&ctx, {{"y", "Caribou"}, {"z", "2"}});
  Mapping empty;

  Result<bool> p1 = PartialEval(tree, db, mu1);
  ASSERT_TRUE(p1.ok());
  EXPECT_TRUE(*p1);
  Result<bool> p2 = PartialEval(tree, db, mu2);
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(*p2);
  Result<bool> p3 = PartialEval(tree, db, empty);
  ASSERT_TRUE(p3.ok());
  EXPECT_TRUE(*p3);
  Result<bool> p4 = PartialEval(tree, db, M(&ctx, {{"y", "Nobody"}}));
  ASSERT_TRUE(p4.ok());
  EXPECT_FALSE(*p4);

  Result<bool> m1 = MaxEval(tree, db, mu1);
  ASSERT_TRUE(m1.ok());
  EXPECT_FALSE(*m1);  // mu1 is strictly subsumed by mu2.
  Result<bool> m2 = MaxEval(tree, db, mu2);
  ASSERT_TRUE(m2.ok());
  EXPECT_TRUE(*m2);
}

TEST(ProjectionFreeEval, MatchesNaiveOnExample) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {});
  Database db = MakeExample2Db(&ctx);
  Mapping mu1 = M(&ctx, {{"x", "Our_love"}, {"y", "Caribou"}});
  Mapping mu2 = M(&ctx, {{"x", "Swim"}, {"y", "Caribou"}, {"z", "2"}});
  // Not maximal: Swim extends with z -> 2.
  Mapping sub = M(&ctx, {{"x", "Swim"}, {"y", "Caribou"}});
  for (const auto& [m, expected] :
       std::vector<std::pair<Mapping, bool>>{{mu1, true},
                                             {mu2, true},
                                             {sub, false}}) {
    Result<bool> pf = EvalProjectionFree(tree, db, m);
    ASSERT_TRUE(pf.ok());
    EXPECT_EQ(*pf, expected);
    Result<bool> naive = EvalNaive(tree, db, m);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*naive, expected);
  }
}

TEST(ProjectionFreeEval, RejectsProjectedTree) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx, {"y"});
  Database db = MakeExample2Db(&ctx);
  Result<bool> r = EvalProjectionFree(tree, db, Mapping());
  EXPECT_FALSE(r.ok());
}

// ---- Cross-validation on random instances ------------------------------

struct RandomCase {
  PatternTree tree;
  Database db;

  RandomCase(Schema* schema, Vocabulary* vocab, uint64_t seed)
      : db(schema) {
    gen::RandomWdptOptions topts;
    // Alternate between a 3-node chain and a 3-node star: deeper or
    // wider trees multiply the maximal-homomorphism count beyond what
    // exhaustive cross-validation can afford.
    topts.depth = seed % 2 == 0 ? 2 : 1;
    topts.branching = seed % 2 == 0 ? 1 : 2;
    topts.atoms_per_node = 2;
    topts.interface_size = 1;
    topts.free_fraction = 0.4;
    topts.seed = seed;
    tree = gen::MakeRandomChainWdpt(schema, vocab, topts);
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 6;
    gopts.num_edges = 14;
    gopts.seed = seed * 31 + 7;
    RelationId e;
    db = gen::MakeRandomGraphDb(schema, vocab, gopts, &e);
  }
};

class RandomEvalAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEvalAgreement, NaiveAndTractableAgree) {
  Schema schema;
  Vocabulary vocab;
  RandomCase c(&schema, &vocab, GetParam());

  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(c.tree, c.db);
  ASSERT_TRUE(answers.ok());

  // Every enumerated answer must pass both membership tests; mutated
  // mappings must agree between both algorithms as well.
  std::vector<Mapping> probes = *answers;
  for (const Mapping& a : *answers) {
    // Drop one binding (a strict restriction, usually not an answer).
    if (!a.empty()) {
      std::vector<Mapping::Entry> entries = a.entries();
      entries.pop_back();
      probes.push_back(Mapping(entries));
    }
  }
  probes.push_back(Mapping());

  for (const Mapping& probe : probes) {
    Result<bool> naive = EvalNaive(c.tree, c.db, probe);
    ASSERT_TRUE(naive.ok());
    Result<bool> tractable = EvalTractable(c.tree, c.db, probe);
    ASSERT_TRUE(tractable.ok());
    EXPECT_EQ(*naive, *tractable)
        << "seed " << GetParam();
  }
  for (const Mapping& a : *answers) {
    Result<bool> naive = EvalNaive(c.tree, c.db, a);
    ASSERT_TRUE(naive.ok());
    EXPECT_TRUE(*naive) << "enumerated answer rejected, seed " << GetParam();
  }
}

TEST_P(RandomEvalAgreement, PartialEvalMatchesBruteForce) {
  Schema schema;
  Vocabulary vocab;
  RandomCase c(&schema, &vocab, GetParam());
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(c.tree, c.db);
  ASSERT_TRUE(answers.ok());

  std::vector<Mapping> probes = *answers;
  for (const Mapping& a : *answers) {
    if (!a.empty()) {
      std::vector<Mapping::Entry> entries = a.entries();
      entries.erase(entries.begin());
      probes.push_back(Mapping(entries));
    }
  }
  probes.push_back(Mapping());
  for (const Mapping& probe : probes) {
    bool brute = false;
    for (const Mapping& a : *answers) {
      if (probe.IsSubsumedBy(a)) {
        brute = true;
        break;
      }
    }
    Result<bool> partial = PartialEval(c.tree, c.db, probe);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial, brute) << "seed " << GetParam();
  }
}

TEST_P(RandomEvalAgreement, MaxEvalMatchesBruteForce) {
  Schema schema;
  Vocabulary vocab;
  RandomCase c(&schema, &vocab, GetParam());
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(c.tree, c.db);
  ASSERT_TRUE(answers.ok());
  std::vector<Mapping> maximal = MaximalMappings(*answers);
  for (const Mapping& a : *answers) {
    bool expected =
        std::count(maximal.begin(), maximal.end(), a) > 0;
    Result<bool> max_eval = MaxEval(c.tree, c.db, a);
    ASSERT_TRUE(max_eval.ok());
    EXPECT_EQ(*max_eval, expected) << "seed " << GetParam();
  }
}

TEST_P(RandomEvalAgreement, ProjectionFreeAgreesWhenApplicable) {
  Schema schema;
  Vocabulary vocab;
  gen::RandomWdptOptions topts;
  topts.depth = 1;
  topts.branching = 2;
  topts.atoms_per_node = 2;
  topts.interface_size = 1;
  topts.free_fraction = 1.1;  // All variables free.
  topts.seed = GetParam();
  PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, topts);
  ASSERT_TRUE(tree.IsProjectionFree());
  gen::RandomGraphOptions gopts;
  gopts.num_vertices = 6;
  gopts.num_edges = 14;
  gopts.seed = GetParam() * 13 + 3;
  RelationId e;
  Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);

  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  std::vector<Mapping> probes = *answers;
  for (const Mapping& a : *answers) {
    if (!a.empty()) {
      std::vector<Mapping::Entry> entries = a.entries();
      entries.pop_back();
      probes.push_back(Mapping(entries));
    }
  }
  for (const Mapping& probe : probes) {
    Result<bool> pf = EvalProjectionFree(tree, db, probe);
    ASSERT_TRUE(pf.ok());
    Result<bool> naive = EvalNaive(tree, db, probe);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*pf, *naive) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEvalAgreement,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---- Proposition 3 instances --------------------------------------------

TEST(ThreeColReduction, CycleIsColorable) {
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeCycleGraph(5), &schema, &vocab, /*tag=*/1);
  Result<bool> naive = EvalNaive(inst.tree, inst.db, inst.h);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(*naive);
  Result<bool> tractable = EvalTractable(inst.tree, inst.db, inst.h);
  ASSERT_TRUE(tractable.ok());
  EXPECT_TRUE(*tractable);
}

TEST(ThreeColReduction, K4IsNotColorable) {
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeCompleteGraph(4), &schema, &vocab, /*tag=*/2);
  Result<bool> naive = EvalNaive(inst.tree, inst.db, inst.h);
  ASSERT_TRUE(naive.ok());
  EXPECT_FALSE(*naive);
  Result<bool> tractable = EvalTractable(inst.tree, inst.db, inst.h);
  ASSERT_TRUE(tractable.ok());
  EXPECT_FALSE(*tractable);
}

TEST(ThreeColReduction, InstanceIsGloballyTractableButWide) {
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeCycleGraph(4), &schema, &vocab, /*tag=*/3);
  // Globally TW(1) (Proposition 3) yet the interface is unbounded.
  Result<bool> global =
      IsGloballyInWidth(inst.tree, WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(global.ok());
  EXPECT_TRUE(*global);
}

// ---- Enumeration properties ----------------------------------------------

TEST(EnumerationTest, MaximalHomsAreMaximal) {
  Schema schema;
  Vocabulary vocab;
  RandomCase c(&schema, &vocab, 42);
  std::vector<Mapping> homs;
  Status status = ForEachMaximalHomomorphism(
      c.tree, c.db, [&](const Mapping& m) {
        homs.push_back(m);
        return true;
      });
  ASSERT_TRUE(status.ok());
  for (const Mapping& a : homs) {
    for (const Mapping& b : homs) {
      EXPECT_FALSE(a.IsStrictlySubsumedBy(b));
    }
  }
}

TEST(EnumerationTest, UnsatisfiableRootYieldsNoAnswers) {
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "p", "?y"));
  tree.SetFreeVariables(tree.AllVariables());
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "a", "q", "b");  // Wrong predicate.
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  Result<bool> empty_answer = EvalNaive(tree, db, Mapping());
  ASSERT_TRUE(empty_answer.ok());
  EXPECT_FALSE(*empty_answer);
}

}  // namespace
}  // namespace wdpt
