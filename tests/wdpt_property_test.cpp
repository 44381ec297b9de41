// Broad differential property tests for WDPT algorithms over a grid of
// generator shapes: the enumeration-based ground truth versus every
// membership algorithm, order laws of subsumption, and the
// partial/maximal semantics laws from Sections 3.3-3.4.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/analysis/subsumption.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_tractable.h"

namespace wdpt {
namespace {

// (shape_id, free_fraction_percent, seed). Shapes stay at <= 4 nodes so
// the enumeration-based ground truth stays affordable (deeper and wider
// trees multiply the number of maximal homomorphisms).
using ShapeParam = std::tuple<uint32_t, uint32_t, uint64_t>;
constexpr std::pair<uint32_t, uint32_t> kShapes[] = {
    {1, 1}, {1, 2}, {2, 1}, {1, 3}, {3, 1}};

class WdptShapeProperties : public ::testing::TestWithParam<ShapeParam> {
 protected:
  void Build() {
    auto [shape, free_pct, seed] = GetParam();
    auto [depth, branching] = kShapes[shape];
    gen::RandomWdptOptions topts;
    topts.depth = depth;
    topts.branching = branching;
    topts.atoms_per_node = 2;
    topts.interface_size = 1;
    topts.free_fraction = free_pct / 100.0;
    topts.seed = seed;
    tree_ = gen::MakeRandomChainWdpt(&schema_, &vocab_, topts);
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 4;
    gopts.num_edges = 8;
    gopts.seed = seed * 13 + depth * 7 + branching;
    RelationId e;
    db_.emplace(gen::MakeRandomGraphDb(&schema_, &vocab_, gopts, &e));
  }

  Schema schema_;
  Vocabulary vocab_;
  PatternTree tree_;
  std::optional<Database> db_;
};

TEST_P(WdptShapeProperties, GroundTruthAgreement) {
  Build();
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree_, *db_);
  ASSERT_TRUE(answers.ok());

  // Probe set: answers, their restrictions, and the empty mapping.
  std::vector<Mapping> probes = *answers;
  for (const Mapping& a : *answers) {
    if (a.size() >= 2) {
      std::vector<Mapping::Entry> entries = a.entries();
      entries.pop_back();
      probes.push_back(Mapping(entries));
    }
  }
  probes.push_back(Mapping());

  if (probes.size() > 60) probes.resize(60);
  std::vector<Mapping> maximal = MaximalMappings(*answers);
  for (const Mapping& probe : probes) {
    bool in_answers =
        std::count(answers->begin(), answers->end(), probe) > 0;
    bool is_partial = false;
    for (const Mapping& a : *answers) {
      if (probe.IsSubsumedBy(a)) {
        is_partial = true;
        break;
      }
    }
    bool is_maximal =
        std::count(maximal.begin(), maximal.end(), probe) > 0;

    Result<bool> naive = EvalNaive(tree_, *db_, probe);
    Result<bool> tractable = EvalTractable(tree_, *db_, probe);
    Result<bool> partial = PartialEval(tree_, *db_, probe);
    Result<bool> max_eval = MaxEval(tree_, *db_, probe);
    ASSERT_TRUE(naive.ok() && tractable.ok() && partial.ok() &&
                max_eval.ok());
    EXPECT_EQ(*naive, in_answers);
    EXPECT_EQ(*tractable, in_answers);
    EXPECT_EQ(*partial, is_partial);
    EXPECT_EQ(*max_eval, is_maximal);
  }
}

TEST_P(WdptShapeProperties, SemanticLaws) {
  Build();
  Result<std::vector<Mapping>> answers = EvaluateWdptProjected(tree_, *db_);
  ASSERT_TRUE(answers.ok());
  if (answers->size() > 400) answers->resize(400);  // Bound the n^2 laws.
  std::vector<Mapping> maximal = MaximalMappings(*answers);
  // p_m(D) is an antichain contained in p(D).
  for (const Mapping& m : maximal) {
    EXPECT_EQ(std::count(answers->begin(), answers->end(), m), 1);
    for (const Mapping& m2 : maximal) {
      EXPECT_FALSE(m.IsStrictlySubsumedBy(m2));
    }
  }
  // Every answer is subsumed by some maximal answer.
  for (const Mapping& m : *answers) {
    bool covered = false;
    for (const Mapping& m2 : maximal) {
      if (m.IsSubsumedBy(m2)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
  // Witness-returning partial evaluation agrees with PartialEval.
  size_t witness_checks = 0;
  for (const Mapping& m : *answers) {
    if (++witness_checks > 40) break;
    Result<std::optional<Mapping>> witness =
        PartialEvalWitness(tree_, *db_, m);
    ASSERT_TRUE(witness.ok());
    ASSERT_TRUE(witness->has_value());
    // The witness extends m.
    EXPECT_TRUE(m.IsSubsumedBy(**witness));
  }
}

TEST_P(WdptShapeProperties, ProjectedEnumerationMatchesFullEnumeration) {
  Build();
  Result<std::vector<Mapping>> projected = EvaluateWdptProjected(tree_, *db_);
  Result<std::vector<Mapping>> full =
      EvaluateWdptByFullEnumeration(tree_, *db_);
  ASSERT_TRUE(projected.ok());
  ASSERT_TRUE(full.ok());
  std::sort(projected->begin(), projected->end());
  std::sort(full->begin(), full->end());
  EXPECT_EQ(*projected, *full);
}

TEST_P(WdptShapeProperties, SubsumptionIsReflexiveAndMonotone) {
  Build();
  Result<bool> reflexive = IsSubsumedBy(tree_, tree_, &schema_, &vocab_);
  ASSERT_TRUE(reflexive.ok());
  EXPECT_TRUE(*reflexive);
  // Adding an optional all-fresh child keeps the original subsumed.
  PatternTree extended = tree_;
  RelationId e = gen::EdgeRelation(&schema_);
  VariableId anchor = extended.node_vars(PatternTree::kRoot).front();
  Term fresh = Term::Variable(vocab_.FreshVariable("prop"));
  extended.AddChild(PatternTree::kRoot,
                    {Atom(e, {Term::Variable(anchor), fresh})});
  std::vector<VariableId> free_vars = extended.free_vars();
  free_vars.push_back(fresh.variable_id());
  extended.SetFreeVariables(free_vars);
  ASSERT_TRUE(extended.Validate().ok());
  Result<bool> subsumed = IsSubsumedBy(tree_, extended, &schema_, &vocab_);
  ASSERT_TRUE(subsumed.ok());
  EXPECT_TRUE(*subsumed);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, WdptShapeProperties,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),  // shape
                       ::testing::Values(30u, 80u),            // free %
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

}  // namespace
}  // namespace wdpt
