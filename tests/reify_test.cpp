// Tests for the RDF reification transform: answers, partial answers and
// maximal answers of the reified instance coincide with the original's.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/sparql/reify.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"

namespace wdpt {
namespace {

TEST(ReifyTest, DatabaseTripleCounts) {
  Schema schema;
  Vocabulary vocab;
  RelationId r2 = *schema.AddRelation("R2", 2);
  RelationId r3 = *schema.AddRelation("R3", 3);
  Database db(&schema);
  ConstantId a = vocab.ConstantIdOf("a");
  ConstantId b = vocab.ConstantIdOf("b");
  ConstantId t2[2] = {a, b};
  ConstantId t3[3] = {a, b, a};
  ASSERT_TRUE(db.AddFact(r2, t2).ok());
  ASSERT_TRUE(db.AddFact(r3, t3).ok());

  Schema rdf_schema;
  sparql::Reifier reifier(&schema, &rdf_schema, &vocab);
  Database rdf = reifier.ReifyDatabase(db);
  // One rdf:rel triple plus arity triples per fact: (1+2) + (1+3).
  EXPECT_EQ(rdf.TotalFacts(), 7u);
}

TEST(ReifyTest, TreeStructurePreserved) {
  Schema schema;
  Vocabulary vocab;
  RelationId knows = *schema.AddRelation("knows", 2);
  PatternTree tree;
  Term a = vocab.Variable("ra");
  Term b = vocab.Variable("rb");
  Term c = vocab.Variable("rc");
  tree.AddAtom(PatternTree::kRoot, Atom(knows, {a, b}));
  tree.AddChild(PatternTree::kRoot, {Atom(knows, {b, c})});
  tree.SetFreeVariables({a.variable_id(), c.variable_id()});
  ASSERT_TRUE(tree.Validate().ok());

  Schema rdf_schema;
  sparql::Reifier reifier(&schema, &rdf_schema, &vocab);
  PatternTree rdf_tree = reifier.ReifyTree(tree);
  EXPECT_EQ(rdf_tree.num_nodes(), tree.num_nodes());
  EXPECT_EQ(rdf_tree.free_vars(), tree.free_vars());
  // Each binary atom becomes 3 triple patterns.
  EXPECT_EQ(rdf_tree.label(PatternTree::kRoot).size(), 3u);
  EXPECT_EQ(rdf_tree.label(1).size(), 3u);
}

class ReifyEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReifyEquivalence, AnswersCoincideWithOriginal) {
  Schema schema;
  Vocabulary vocab;
  gen::RandomWdptOptions topts;
  topts.depth = 1;
  topts.branching = 2;
  topts.atoms_per_node = 2;
  topts.free_fraction = 0.5;
  topts.seed = GetParam();
  PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, topts);
  gen::RandomGraphOptions gopts;
  gopts.num_vertices = 5;
  gopts.num_edges = 11;
  gopts.seed = GetParam() * 17 + 5;
  RelationId e;
  Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);

  Schema rdf_schema;
  sparql::Reifier reifier(&schema, &rdf_schema, &vocab);
  Database rdf_db = reifier.ReifyDatabase(db);
  PatternTree rdf_tree = reifier.ReifyTree(tree);

  Result<std::vector<Mapping>> original = EvaluateWdptProjected(tree, db);
  Result<std::vector<Mapping>> reified =
      EvaluateWdptProjected(rdf_tree, rdf_db);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reified.ok());
  std::sort(original->begin(), original->end());
  std::sort(reified->begin(), reified->end());
  EXPECT_EQ(*original, *reified) << "seed " << GetParam();

  // Maximal-mapping semantics agrees as well.
  Result<std::vector<Mapping>> original_max = EvaluateWdptMaximal(tree, db);
  Result<std::vector<Mapping>> reified_max =
      EvaluateWdptMaximal(rdf_tree, rdf_db);
  ASSERT_TRUE(original_max.ok());
  ASSERT_TRUE(reified_max.ok());
  std::sort(original_max->begin(), original_max->end());
  std::sort(reified_max->begin(), reified_max->end());
  EXPECT_EQ(*original_max, *reified_max);

  // Membership and partial answers on sampled probes.
  for (const Mapping& m : *original) {
    Result<bool> in = EvalNaive(rdf_tree, rdf_db, m);
    ASSERT_TRUE(in.ok());
    EXPECT_TRUE(*in);
    Result<bool> partial = PartialEval(rdf_tree, rdf_db, m);
    ASSERT_TRUE(partial.ok());
    EXPECT_TRUE(*partial);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReifyEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace wdpt
