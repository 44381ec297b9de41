// Tests pinning the paper's numbered examples and smaller claims:
// Example 4 (treewidth of paths/cycles/cliques as CQs), Example 5 (the
// acyclic family theta_n with unbounded treewidth), Example 6 (covered
// in wdpt_test), Example 8 (phi_cq of the running example), and
// Proposition 5 (subsumption-equivalence coincides with
// max-equivalence).

#include <gtest/gtest.h>

#include "src/analysis/subsumption.h"
#include "src/cq/approximation.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/uwdpt/to_ucq.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

TEST(Example4, PathChordCliqueTreewidth) {
  Schema schema;
  Vocabulary vocab;
  // Path E(x1,x2), ..., E(x_{n-1},x_n): treewidth 1.
  ConjunctiveQuery path = gen::MakePathCq(&schema, &vocab, 5, "e4p");
  Result<bool> tw1 = WidthAtMost(path, WidthMeasure::kTreewidth, 1);
  ASSERT_TRUE(tw1.ok());
  EXPECT_TRUE(*tw1);
  // Adding the closing atom E(x1, xn) increases the treewidth to two.
  ConjunctiveQuery cycle = gen::MakeCycleCq(&schema, &vocab, 6, "e4c");
  Result<bool> ctw1 = WidthAtMost(cycle, WidthMeasure::kTreewidth, 1);
  Result<bool> ctw2 = WidthAtMost(cycle, WidthMeasure::kTreewidth, 2);
  ASSERT_TRUE(ctw1.ok() && ctw2.ok());
  EXPECT_FALSE(*ctw1);
  EXPECT_TRUE(*ctw2);
  // All pairs: a clique of size n has treewidth n - 1.
  ConjunctiveQuery clique = gen::MakeCliqueCq(&schema, &vocab, 5, "e4k");
  Result<bool> ktw3 = WidthAtMost(clique, WidthMeasure::kTreewidth, 3);
  Result<bool> ktw4 = WidthAtMost(clique, WidthMeasure::kTreewidth, 4);
  ASSERT_TRUE(ktw3.ok() && ktw4.ok());
  EXPECT_FALSE(*ktw3);
  EXPECT_TRUE(*ktw4);
}

// Example 5: theta_n = Ans() <- /\_{i<j} E(x_i, x_j), T_n(x_1,...,x_n)
// is acyclic (ghw 1) for every n, while its treewidth is n - 1.
TEST(Example5, AcyclicButUnboundedTreewidth) {
  for (uint32_t n = 3; n <= 6; ++n) {
    Schema schema;
    Vocabulary vocab;
    RelationId e = gen::EdgeRelation(&schema);
    Result<RelationId> tn =
        schema.AddRelation("T" + std::to_string(n), n);
    ASSERT_TRUE(tn.ok());
    ConjunctiveQuery theta;
    std::vector<Term> vars;
    for (uint32_t i = 0; i < n; ++i) {
      vars.push_back(vocab.Variable("e5x" + std::to_string(i)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        theta.atoms.emplace_back(e, std::vector<Term>{vars[i], vars[j]});
      }
    }
    theta.atoms.emplace_back(*tn, vars);
    theta.Normalize();

    Result<bool> acyclic =
        WidthAtMost(theta, WidthMeasure::kGeneralizedHypertreewidth, 1);
    ASSERT_TRUE(acyclic.ok());
    EXPECT_TRUE(*acyclic) << "theta_" << n;
    Result<bool> narrow = WidthAtMost(
        theta, WidthMeasure::kTreewidth, static_cast<int>(n) - 2);
    ASSERT_TRUE(narrow.ok());
    EXPECT_FALSE(*narrow) << "theta_" << n;
  }
}

// Example 8: phi_cq of the running example (projected to {y, z, z2})
// consists of exactly four CQs, one per root subtree.
TEST(Example8, PhiCqOfRunningExample) {
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot,
               ctx.TriplePattern("?x", "recorded_by", "?y"));
  tree.AddAtom(PatternTree::kRoot,
               ctx.TriplePattern("?x", "published", "after_2010"));
  tree.AddChild(PatternTree::kRoot,
                {ctx.TriplePattern("?x", "NME_rating", "?z")});
  tree.AddChild(PatternTree::kRoot,
                {ctx.TriplePattern("?y", "formed_in", "?z2")});
  tree.SetFreeVariables({ctx.vocab().Variable("y").variable_id(),
                         ctx.vocab().Variable("z").variable_id(),
                         ctx.vocab().Variable("z2").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  UnionWdpt phi;
  phi.members.push_back(std::move(tree));
  Result<UnionOfCqs> cqs = ToUnionOfCqs(phi);
  ASSERT_TRUE(cqs.ok());
  ASSERT_EQ(cqs->size(), 4u);
  // Head sizes: Ans(y), Ans(y,z), Ans(y,z2), Ans(y,z,z2).
  std::vector<size_t> head_sizes;
  for (const ConjunctiveQuery& q : *cqs) {
    head_sizes.push_back(q.free_vars.size());
  }
  std::sort(head_sizes.begin(), head_sizes.end());
  EXPECT_EQ(head_sizes, (std::vector<size_t>{1, 2, 2, 3}));
}

// Proposition 5: p ==_s p' iff p and p' have the same maximal answers
// over every database. We verify the "same maximal answers" consequence
// on sampled databases for pairs reported subsumption-equivalent.
TEST(Proposition5, EquivalentTreesShareMaximalAnswers) {
  Schema schema;
  Vocabulary vocab;
  RelationId e = gen::EdgeRelation(&schema);
  auto V = [&](const char* n) { return vocab.Variable(n); };
  // p ==_s its copy with a redundant optional branch folded in.
  PatternTree p1;
  p1.AddAtom(PatternTree::kRoot, Atom(e, {V("x"), V("y")}));
  p1.AddChild(PatternTree::kRoot, {Atom(e, {V("y"), V("z")})});
  p1.SetFreeVariables({V("x").variable_id(), V("z").variable_id()});
  ASSERT_TRUE(p1.Validate().ok());
  PatternTree p2 = p1;
  p2.AddChild(PatternTree::kRoot, {Atom(e, {V("x"), V("dup")})});
  ASSERT_TRUE(p2.Validate().ok());

  Result<bool> eq = SubsumptionEquivalent(p1, p2, &schema, &vocab);
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(*eq);

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 6;
    gopts.num_edges = 13;
    gopts.seed = seed;
    RelationId e2;
    Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e2);
    Result<std::vector<Mapping>> m1 = EvaluateWdptMaximal(p1, db);
    Result<std::vector<Mapping>> m2 = EvaluateWdptMaximal(p2, db);
    ASSERT_TRUE(m1.ok() && m2.ok());
    std::sort(m1->begin(), m1->end());
    std::sort(m2->begin(), m2->end());
    EXPECT_EQ(*m1, *m2) << "seed " << seed;
  }
}

// Theorem 1 context: projection-free WDPT answers coincide between the
// specialised algorithm and the general one across a family of shapes.
TEST(Theorem1Context, ProjectionFreeSemanticsSpotCheck) {
  Schema schema;
  Vocabulary vocab;
  gen::RandomWdptOptions opts;
  opts.depth = 1;
  opts.branching = 3;
  opts.atoms_per_node = 1;
  opts.free_fraction = 1.1;
  opts.seed = 77;
  PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, opts);
  ASSERT_TRUE(tree.IsProjectionFree());
  gen::RandomGraphOptions gopts;
  gopts.num_vertices = 5;
  gopts.num_edges = 11;
  gopts.seed = 78;
  RelationId e;
  Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(answers.ok());
  // In the projection-free case p(D) = p_m(D) (Section 3.4).
  Result<std::vector<Mapping>> maximal = EvaluateWdptMaximal(tree, db);
  ASSERT_TRUE(maximal.ok());
  EXPECT_EQ(answers->size(), maximal->size());
}

}  // namespace
}  // namespace wdpt
