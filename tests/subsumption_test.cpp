// Tests for subsumption and subsumption-equivalence (Section 4).

#include <gtest/gtest.h>

#include "src/analysis/subsumption.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {
namespace {

class SubsumptionFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Term V(const std::string& name) { return vocab_.Variable(name); }

  Atom Edge(Term a, Term b) {
    return Atom(gen::EdgeRelation(&schema_), {a, b});
  }

  // A single-node WDPT (a CQ).
  PatternTree Node(std::vector<Atom> atoms,
                   std::vector<VariableId> free_vars) {
    PatternTree tree;
    for (Atom& a : atoms) tree.AddAtom(PatternTree::kRoot, std::move(a));
    tree.SetFreeVariables(std::move(free_vars));
    WDPT_CHECK(tree.Validate().ok());
    return tree;
  }
};

TEST_F(SubsumptionFixture, CqSubsumptionMatchesContainment) {
  // Boolean path queries: longer path [= shorter path.
  PatternTree p2 = Node({Edge(V("a"), V("b")), Edge(V("b"), V("c"))}, {});
  PatternTree p1 = Node({Edge(V("u"), V("v"))}, {});
  Result<bool> forward = IsSubsumedBy(p2, p1, &schema_, &vocab_);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(*forward);
  Result<bool> backward = IsSubsumedBy(p1, p2, &schema_, &vocab_);
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(*backward);
}

TEST_F(SubsumptionFixture, OptionalBranchInducesSubsumption) {
  // p_opt: E(x,y) OPT E(y,z)  vs  p_base: E(x,y); free {x, y, z}.
  PatternTree base = Node({Edge(V("x"), V("y"))},
                          {V("x").variable_id(), V("y").variable_id()});
  PatternTree opt;
  opt.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  opt.AddChild(PatternTree::kRoot, {Edge(V("y"), V("z"))});
  opt.SetFreeVariables({V("x").variable_id(), V("y").variable_id(),
                        V("z").variable_id()});
  ASSERT_TRUE(opt.Validate().ok());

  // Every answer of base extends to an answer of opt: base [= opt.
  Result<bool> base_in_opt = IsSubsumedBy(base, opt, &schema_, &vocab_);
  ASSERT_TRUE(base_in_opt.ok());
  EXPECT_TRUE(*base_in_opt);
  // And conversely every answer of opt restricts... opt [= base fails:
  // opt's answers may bind z which base never does -- but subsumption
  // compares the other way: an opt-answer {x,y,z} must be subsumed by a
  // base-answer {x,y}, which cannot cover z.
  Result<bool> opt_in_base = IsSubsumedBy(opt, base, &schema_, &vocab_);
  ASSERT_TRUE(opt_in_base.ok());
  EXPECT_FALSE(*opt_in_base);
}

TEST_F(SubsumptionFixture, EquivalenceOfReorderedOptBranches) {
  // (E(x,y) OPT E(x,z1)) OPT E(y,z2) vs (E(x,y) OPT E(y,z2)) OPT E(x,z1):
  // sibling OPT branches commute.
  auto make = [&](bool swapped) {
    PatternTree t;
    t.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
    std::vector<Atom> c1 = {Edge(V("x"), V("z1"))};
    std::vector<Atom> c2 = {Edge(V("y"), V("z2"))};
    if (swapped) std::swap(c1, c2);
    t.AddChild(PatternTree::kRoot, c1);
    t.AddChild(PatternTree::kRoot, c2);
    t.SetFreeVariables(t.AllVariables());
    WDPT_CHECK(t.Validate().ok());
    return t;
  };
  PatternTree a = make(false);
  PatternTree b = make(true);
  Result<bool> eq = SubsumptionEquivalent(a, b, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SubsumptionFixture, RedundantOptionalBranchIsEquivalent) {
  // E(x,y) OPT E(x,y2) where the child folds into the root under
  // projection to {x}: p ==_s single-node E(x,y) with free {x}.
  PatternTree with_opt;
  with_opt.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  with_opt.AddChild(PatternTree::kRoot, {Edge(V("x"), V("y2"))});
  with_opt.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(with_opt.Validate().ok());
  PatternTree plain = Node({Edge(V("x"), V("y"))}, {V("x").variable_id()});
  Result<bool> eq =
      SubsumptionEquivalent(with_opt, plain, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(SubsumptionFixture, ChildWithFreeVariableBreaksEquivalence) {
  PatternTree with_opt;
  with_opt.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  with_opt.AddChild(PatternTree::kRoot, {Edge(V("x"), V("w"))});
  with_opt.SetFreeVariables({V("x").variable_id(), V("w").variable_id()});
  ASSERT_TRUE(with_opt.Validate().ok());
  PatternTree plain = Node({Edge(V("x"), V("y"))}, {V("x").variable_id()});
  Result<bool> plain_in_opt =
      IsSubsumedBy(plain, with_opt, &schema_, &vocab_);
  ASSERT_TRUE(plain_in_opt.ok());
  EXPECT_TRUE(*plain_in_opt);
  Result<bool> opt_in_plain =
      IsSubsumedBy(with_opt, plain, &schema_, &vocab_);
  ASSERT_TRUE(opt_in_plain.ok());
  EXPECT_FALSE(*opt_in_plain);
}

// Semantic soundness check on concrete databases: if p1 [= p2 is
// reported, then on sampled databases every answer of p1 is subsumed by
// an answer of p2.
class SubsumptionSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubsumptionSemantics, ReportedSubsumptionHoldsOnSamples) {
  Schema schema;
  Vocabulary vocab;
  gen::RandomWdptOptions opts;
  opts.depth = 1;
  opts.branching = 2;
  opts.atoms_per_node = 2;
  opts.free_fraction = 0.5;
  opts.seed = GetParam();
  PatternTree p1 = gen::MakeRandomChainWdpt(&schema, &vocab, opts);
  opts.seed = GetParam() + 1000;
  PatternTree p2 = gen::MakeRandomChainWdpt(&schema, &vocab, opts);

  Result<bool> subsumed = IsSubsumedBy(p1, p2, &schema, &vocab);
  ASSERT_TRUE(subsumed.ok());

  for (uint64_t db_seed = 1; db_seed <= 3; ++db_seed) {
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 5;
    gopts.num_edges = 12;
    gopts.seed = GetParam() * 97 + db_seed;
    RelationId e;
    Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);
    Result<std::vector<Mapping>> a1 = EvaluateWdptProjected(p1, db);
    Result<std::vector<Mapping>> a2 = EvaluateWdptProjected(p2, db);
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a2.ok());
    bool holds = true;
    for (const Mapping& h1 : *a1) {
      bool covered = false;
      for (const Mapping& h2 : *a2) {
        if (h1.IsSubsumedBy(h2)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        holds = false;
        break;
      }
    }
    if (*subsumed) {
      EXPECT_TRUE(holds) << "seed " << GetParam() << " db " << db_seed;
    }
    // If the test reports non-subsumption, some database must witness it;
    // random samples may miss the witness, so no assertion in that case.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsumptionSemantics,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace wdpt
