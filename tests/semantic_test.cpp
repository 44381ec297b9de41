// Tests for semantic optimization (Section 5): Lemma 1 pruning, WDPT
// quotients, M(WB(k)) search, WB(k)-approximations, and the Figure 2
// blow-up family.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/fpt_eval.h"
#include "src/analysis/semantic.h"
#include "src/analysis/subsumption.h"
#include "src/analysis/wb.h"
#include "src/approx/blowup.h"
#include "src/approx/wdpt_approx.h"
#include "src/gen/cq_gen.h"
#include "src/wdpt/classify.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {
namespace {

class SemanticFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Term V(const std::string& name) { return vocab_.Variable(name); }
  Atom Edge(Term a, Term b) {
    return Atom(gen::EdgeRelation(&schema_), {a, b});
  }
};

TEST_F(SemanticFixture, Lemma1PruneDropsAnswerIrrelevantBranches) {
  // Root E(x,y) with two children: one introduces a free var, the other
  // only existential vars; the latter is pruned.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("f"))});
  tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("e"))});
  tree.SetFreeVariables({V("x").variable_id(), V("f").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Result<PatternTree> pruned = Lemma1Prune(tree);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->num_nodes(), 2u);
  Result<bool> eq = SubsumptionEquivalent(tree, *pruned, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SemanticFixture, Lemma1PruneMergesFreeVarLessChainNodes) {
  // Chain root -> m (no free vars) -> leaf (free var): m merges into the
  // leaf.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  NodeId m = tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("e"))});
  tree.AddChild(m, {Edge(V("e"), V("f"))});
  tree.SetFreeVariables({V("x").variable_id(), V("f").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Result<PatternTree> pruned = Lemma1Prune(tree);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->num_nodes(), 2u);
  EXPECT_EQ(pruned->label(1).size(), 2u);  // Merged label.
  Result<bool> eq = SubsumptionEquivalent(tree, *pruned, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SemanticFixture, WdptQuotientsPreserveStructure) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("z"))});
  tree.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  size_t count = 0;
  Result<bool> complete =
      ForEachWdptQuotient(tree, 1000, [&](const PatternTree& q) {
        EXPECT_EQ(q.num_nodes(), tree.num_nodes());
        EXPECT_EQ(q.free_vars(), tree.free_vars());
        EXPECT_TRUE(q.validated());
        ++count;
        return true;
      });
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(*complete);
  EXPECT_GT(count, 1u);
}

TEST_F(SemanticFixture, InWbFastPath) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("z"))});
  tree.SetFreeVariables(tree.AllVariables());
  ASSERT_TRUE(tree.Validate().ok());
  Result<bool> in_wb = IsInWB(tree, WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(in_wb.ok());
  EXPECT_TRUE(*in_wb);
  Result<std::optional<PatternTree>> witness = FindSubsumptionEquivalentInWB(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(witness.ok());
  EXPECT_TRUE(witness->has_value());
}

TEST_F(SemanticFixture, WbRejectsNonClosedMeasure) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.SetFreeVariables(tree.AllVariables());
  ASSERT_TRUE(tree.Validate().ok());
  Result<bool> bad =
      IsInWB(tree, WidthMeasure::kGeneralizedHypertreewidth, 1);
  EXPECT_FALSE(bad.ok());
}

TEST_F(SemanticFixture, SemanticMembershipFindsFoldableTriangle) {
  // Root: triangle on existential vars duplicated from an edge: the
  // triangle e(x,y),e(y,z),e(z,x) is NOT foldable; instead use a
  // "redundant square": E(x,y) plus a disjoint copy E(u,v) folds away.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("u"), V("v")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("v"), V("u")));
  tree.SetFreeVariables({V("x").variable_id(), V("y").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  // The 2-cycle on (u, v) forces treewidth... a 2-cycle has tw 1, so the
  // whole thing is already WB(1); use k = 1 fast path.
  Result<std::optional<PatternTree>> witness = FindSubsumptionEquivalentInWB(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->has_value());
}

TEST_F(SemanticFixture, SemanticMembershipViaQuotient) {
  // Root: E(x,y), E(y,z), E(z,w) plus a triangle on existentials that
  // folds onto a self-loop... instead: triangle made redundant by a
  // self-loop atom E(s,s) in the same node. core(triangle + loop) = loop
  // (tw 0), so the tree is ==_s-equivalent to a WB(1) tree via the
  // quotient mapping the triangle onto the loop.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("s"), V("s")));
  tree.SetFreeVariables({V("x").variable_id(), V("y").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Result<bool> syntactic = IsInWB(tree, WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(syntactic.ok());
  EXPECT_FALSE(*syntactic);  // The triangle has tw 2.

  Result<std::optional<PatternTree>> witness = FindSubsumptionEquivalentInWB(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->has_value());
  Result<bool> wb = IsInWB(**witness, WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(wb.ok());
  EXPECT_TRUE(*wb);
  Result<bool> eq =
      SubsumptionEquivalent(tree, **witness, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SemanticFixture, SemanticMembershipWithShrinkOption) {
  // Same foldable instance as above; enabling the Lemma 1 shrink pass
  // must not change the outcome (it may only find smaller witnesses).
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("s"), V("s")));
  tree.SetFreeVariables({V("x").variable_id(), V("y").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  SemanticSearchOptions options;
  options.use_lemma1_shrink = true;
  Result<std::optional<PatternTree>> witness = FindSubsumptionEquivalentInWB(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_, options);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->has_value());
  Result<bool> eq =
      SubsumptionEquivalent(tree, **witness, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SemanticFixture, SemanticMembershipNegative) {
  // A genuine triangle over free variables cannot lose width.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("y"), V("z")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("z"), V("x")));
  tree.SetFreeVariables(tree.AllVariables());
  ASSERT_TRUE(tree.Validate().ok());
  Result<std::optional<PatternTree>> witness = FindSubsumptionEquivalentInWB(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(witness.ok());
  EXPECT_FALSE(witness->has_value());
}

TEST_F(SemanticFixture, OptimizedEvaluatorMatchesDirectEvaluation) {
  // Corollary 2: the foldable query runs through its WB(1) witness;
  // partial and maximal answers agree with direct evaluation.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("s"), V("s")));
  tree.AddChild(PatternTree::kRoot, {Edge(V("y"), V("w"))});
  tree.SetFreeVariables({V("x").variable_id(), V("y").variable_id(),
                         V("w").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Result<OptimizedEvaluator> evaluator = OptimizedEvaluator::Create(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  Result<bool> wb = IsInWB(evaluator->optimized(),
                           WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(wb.ok());
  EXPECT_TRUE(*wb);

  // Database with a triangle + loop so the root is satisfiable.
  Database db(&schema_);
  auto add = [&](const std::string& a, const std::string& b) {
    ConstantId t[2] = {vocab_.ConstantIdOf(a), vocab_.ConstantIdOf(b)};
    WDPT_CHECK(db.AddFact(gen::EdgeRelation(&schema_), t).ok());
  };
  add("l", "l");
  add("a", "b");
  add("b", "c");

  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  std::vector<Mapping> maximal = MaximalMappings(*answers);
  for (const Mapping& m : *answers) {
    Result<bool> partial = evaluator->PartialEval(db, m);
    ASSERT_TRUE(partial.ok());
    EXPECT_TRUE(*partial);
    bool is_max = std::count(maximal.begin(), maximal.end(), m) > 0;
    Result<bool> max_eval = evaluator->MaxEval(db, m);
    ASSERT_TRUE(max_eval.ok());
    EXPECT_EQ(*max_eval, is_max);
  }
}

TEST_F(SemanticFixture, OptimizedEvaluatorRejectsOutOfClassQuery) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("y"), V("z")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("z"), V("x")));
  tree.SetFreeVariables(tree.AllVariables());
  ASSERT_TRUE(tree.Validate().ok());
  Result<OptimizedEvaluator> evaluator = OptimizedEvaluator::Create(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_FALSE(evaluator.ok());
  EXPECT_EQ(evaluator.status().code(), StatusCode::kNotFound);
}

TEST_F(SemanticFixture, WdptApproximationOfFreeTriangle) {
  // Triangle over existential vars with one free anchor: the WB(1)
  // quotient approximation collapses the triangle to a self-loop.
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, Edge(V("x"), V("t1")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  tree.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  tree.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Result<std::vector<PatternTree>> approx = ComputeWdptApproximations(
      tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(approx.ok());
  ASSERT_FALSE(approx->empty());
  for (const PatternTree& a : *approx) {
    Result<bool> wb = IsInWB(a, WidthMeasure::kTreewidth, 1);
    ASSERT_TRUE(wb.ok());
    EXPECT_TRUE(*wb);
    Result<bool> sound = IsSubsumedBy(a, tree, &schema_, &vocab_);
    ASSERT_TRUE(sound.ok());
    EXPECT_TRUE(*sound);
  }
  // The first approximation should be accepted by the decision variant.
  Result<bool> is_approx = IsWdptQuotientApproximation(
      (*approx)[0], tree, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(is_approx.ok());
  EXPECT_TRUE(*is_approx);
}

TEST_F(SemanticFixture, Lemma1ShrinkDropsUnusedAtoms) {
  // p: single node E(x,y); p': same plus a redundant atom E(x,e2) and an
  // answer-irrelevant branch. Shrinking against p keeps only what the
  // witness homomorphisms need.
  PatternTree p;
  p.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  p.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(p.Validate().ok());

  PatternTree p_prime;
  p_prime.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  p_prime.AddAtom(PatternTree::kRoot, Edge(V("x"), V("e2")));
  p_prime.AddChild(PatternTree::kRoot, {Edge(V("e2"), V("e3"))});
  p_prime.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(p_prime.Validate().ok());

  Result<PatternTree> shrunk =
      Lemma1Shrink(p_prime, p, &schema_, &vocab_);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  // The branch is pruned (no free variables) and at most the root label
  // remains; the sandwich was verified inside.
  EXPECT_EQ(shrunk->num_nodes(), 1u);
  EXPECT_LE(shrunk->Size(), p_prime.Size());
  Result<bool> lower = IsSubsumedBy(p_prime, *shrunk, &schema_, &vocab_);
  Result<bool> upper = IsSubsumedBy(*shrunk, p, &schema_, &vocab_);
  ASSERT_TRUE(lower.ok() && upper.ok());
  EXPECT_TRUE(*lower);
  EXPECT_TRUE(*upper);
}

TEST_F(SemanticFixture, Lemma1ShrinkRejectsNonSubsumedPair) {
  PatternTree p;
  p.AddAtom(PatternTree::kRoot, Edge(V("x"), V("x")));
  p.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(p.Validate().ok());
  PatternTree p_prime;
  p_prime.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  p_prime.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(p_prime.Validate().ok());
  // p_prime (an edge) is not subsumed by p (a self-loop).
  Result<PatternTree> shrunk =
      Lemma1Shrink(p_prime, p, &schema_, &vocab_);
  EXPECT_FALSE(shrunk.ok());
}

TEST(BlowupFamilyShrink, ShrinkCannotEliminateTheBlowup) {
  // Theorem 15's point: even the Lemma 1 witness of the Figure 2 pair
  // keeps an exponential number of e-atoms in p2's first leaf.
  for (int n = 2; n <= 4; ++n) {
    Schema schema;
    Vocabulary vocab;
    BlowupPair pair = MakeBlowupFamily(n, 2, &schema, &vocab);
    Result<PatternTree> shrunk =
        Lemma1Shrink(pair.p2, pair.p1, &schema, &vocab);
    ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
    // Count surviving e-atoms across the tree.
    RelationId e_rel = schema.Find("blow_e");
    ASSERT_NE(e_rel, Schema::kNotFound);
    size_t e_atoms = 0;
    for (NodeId node = 0; node < shrunk->num_nodes(); ++node) {
      for (const Atom& a : shrunk->label(node)) {
        if (a.relation == e_rel) ++e_atoms;
      }
    }
    EXPECT_EQ(e_atoms, uint64_t{1} << n) << "n=" << n;
  }
}

TEST(BlowupFamily, SizesAndRelations) {
  size_t previous_ratio_percent = 0;
  for (int n = 1; n <= 10; ++n) {
    Schema schema;
    Vocabulary vocab;
    BlowupPair pair = MakeBlowupFamily(n, 2, &schema, &vocab);
    // p2's first leaf holds 2^n e-atoms (plus a_0).
    EXPECT_EQ(pair.p2.label(1).size(), (uint64_t{1} << n) + 1);
    EXPECT_EQ(pair.p1.num_nodes(), static_cast<size_t>(n) + 2);
    EXPECT_EQ(pair.p2.num_nodes(), static_cast<size_t>(n) + 2);
    // |p1| is O(n^2) while |p2| is Omega(2^n): the ratio grows without
    // bound (it dips below 1 for small n where the clique dominates).
    size_t ratio_percent = 100 * pair.p2.Size() / pair.p1.Size();
    if (n >= 4) {
      EXPECT_GT(ratio_percent, previous_ratio_percent);
    }
    previous_ratio_percent = ratio_percent;
    if (n >= 8) {
      EXPECT_GT(pair.p2.Size(), pair.p1.Size());
    }
  }
}

TEST(BlowupFamily, P2SubsumedByP1) {
  Schema schema;
  Vocabulary vocab;
  BlowupPair pair = MakeBlowupFamily(2, 2, &schema, &vocab);
  Result<bool> subsumed =
      IsSubsumedBy(pair.p2, pair.p1, &schema, &vocab);
  ASSERT_TRUE(subsumed.ok());
  EXPECT_TRUE(*subsumed);
}

TEST(BlowupFamily, WidthClassification) {
  Schema schema;
  Vocabulary vocab;
  const int k = 2;
  BlowupPair pair = MakeBlowupFamily(3, k, &schema, &vocab);
  // p1 has the big (k+1+n)-clique: not in WB(k).
  Result<bool> p1_wb = IsInWB(pair.p1, WidthMeasure::kTreewidth, k);
  ASSERT_TRUE(p1_wb.ok());
  EXPECT_FALSE(*p1_wb);
  // p2's clique has k+1 vertices: exactly width k.
  Result<bool> p2_wb = IsInWB(pair.p2, WidthMeasure::kTreewidth, k);
  ASSERT_TRUE(p2_wb.ok());
  EXPECT_TRUE(*p2_wb);
}

}  // namespace
}  // namespace wdpt
