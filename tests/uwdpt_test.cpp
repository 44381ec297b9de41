// Tests for unions of WDPTs (Section 6): evaluation variants, the
// phi_cq translation, M(UWB(k)) membership, and UWB(k)-approximations.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/cq/containment.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/relational/rdf.h"
#include "src/uwdpt/approx.h"
#include "src/uwdpt/semantic.h"
#include "src/uwdpt/subsumption.h"
#include "src/uwdpt/to_ucq.h"
#include "src/uwdpt/uwdpt.h"

namespace wdpt {
namespace {

class UwdptFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Term V(const std::string& name) { return vocab_.Variable(name); }
  Atom Edge(Term a, Term b) {
    return Atom(gen::EdgeRelation(&schema_), {a, b});
  }

  PatternTree Node(std::vector<Atom> atoms,
                   std::vector<VariableId> free_vars) {
    PatternTree tree;
    for (Atom& a : atoms) tree.AddAtom(PatternTree::kRoot, std::move(a));
    tree.SetFreeVariables(std::move(free_vars));
    WDPT_CHECK(tree.Validate().ok());
    return tree;
  }

  Database SmallGraph() {
    Database db(&schema_);
    auto add = [&](const std::string& a, const std::string& b) {
      ConstantId t[2] = {vocab_.ConstantIdOf(a), vocab_.ConstantIdOf(b)};
      WDPT_CHECK(db.AddFact(gen::EdgeRelation(&schema_), t).ok());
    };
    add("a", "b");
    add("b", "c");
    add("c", "c");
    return db;
  }
};

TEST_F(UwdptFixture, UnionEvaluationMergesMembers) {
  UnionWdpt phi;
  phi.members.push_back(
      Node({Edge(V("x"), V("y"))}, {V("x").variable_id()}));
  phi.members.push_back(
      Node({Edge(V("u"), V("u"))}, {V("u").variable_id()}));
  ASSERT_TRUE(phi.Validate().ok());
  Database db = SmallGraph();
  Result<std::vector<Mapping>> answers = EvaluateUnion(phi, db);
  ASSERT_TRUE(answers.ok());
  // First member: x in {a, b, c}; second: u = c. Four distinct mappings
  // (different domains: {x} vs {u}).
  EXPECT_EQ(answers->size(), 4u);

  Mapping hx;
  hx.Bind(V("x").variable_id(), vocab_.ConstantIdOf("a"));
  Result<bool> in = UnionEval(phi, db, hx);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);
  Mapping hu;
  hu.Bind(V("u").variable_id(), vocab_.ConstantIdOf("a"));
  Result<bool> not_in = UnionEval(phi, db, hu);
  ASSERT_TRUE(not_in.ok());
  EXPECT_FALSE(*not_in);
}

TEST_F(UwdptFixture, UnionPartialAndMaxEval) {
  // Member 1: E(x,y) OPT E(y,z) projected to {x, z}.
  PatternTree m1;
  m1.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  m1.AddChild(PatternTree::kRoot, {Edge(V("y"), V("z"))});
  m1.SetFreeVariables({V("x").variable_id(), V("z").variable_id()});
  ASSERT_TRUE(m1.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m1));
  phi.members.push_back(
      Node({Edge(V("u"), V("u"))}, {V("u").variable_id()}));
  ASSERT_TRUE(phi.Validate().ok());

  Database db = SmallGraph();
  Mapping hx;
  hx.Bind(V("x").variable_id(), vocab_.ConstantIdOf("a"));
  Result<bool> partial = UnionPartialEval(phi, db, hx);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(*partial);
  // {x->a} extends to {x->a, z->c}: not maximal.
  Result<bool> max_small = UnionMaxEval(phi, db, hx);
  ASSERT_TRUE(max_small.ok());
  EXPECT_FALSE(*max_small);
  Mapping hxz = hx;
  hxz.Bind(V("z").variable_id(), vocab_.ConstantIdOf("c"));
  Result<bool> max_big = UnionMaxEval(phi, db, hxz);
  ASSERT_TRUE(max_big.ok());
  EXPECT_TRUE(*max_big);
  // Cross-check against enumeration.
  Result<std::vector<Mapping>> answers = EvaluateUnion(phi, db);
  ASSERT_TRUE(answers.ok());
  std::vector<Mapping> maximal = MaximalMappings(*answers);
  for (const Mapping& a : *answers) {
    bool expected = std::count(maximal.begin(), maximal.end(), a) > 0;
    Result<bool> got = UnionMaxEval(phi, db, a);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected);
  }
}

TEST_F(UwdptFixture, ToUnionOfCqsEnumeratesSubtrees) {
  PatternTree m1;
  m1.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  m1.AddChild(PatternTree::kRoot, {Edge(V("y"), V("z"))});
  m1.AddChild(PatternTree::kRoot, {Edge(V("x"), V("w"))});
  m1.SetFreeVariables(m1.AllVariables());
  ASSERT_TRUE(m1.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m1));
  Result<UnionOfCqs> cqs = ToUnionOfCqs(phi);
  ASSERT_TRUE(cqs.ok());
  EXPECT_EQ(cqs->size(), 4u);  // Four root subtrees, all distinct.
}

TEST_F(UwdptFixture, RemoveSubsumedKeepsMaximalOnly) {
  // q1() <- E(x,y) and q2() <- E(x,y), E(y,z): q2 [= q1 (Boolean).
  ConjunctiveQuery q1, q2;
  q1.atoms = {Edge(V("x"), V("y"))};
  q1.Normalize();
  q2.atoms = {Edge(V("x"), V("y")), Edge(V("y"), V("z"))};
  q2.Normalize();
  Result<UnionOfCqs> reduced = RemoveSubsumedCqs({q1, q2}, &schema_, &vocab_);
  ASSERT_TRUE(reduced.ok());
  ASSERT_EQ(reduced->size(), 1u);
  EXPECT_EQ((*reduced)[0].atoms.size(), 1u);
}

TEST_F(UwdptFixture, UcqSubsumptionMemberwise) {
  ConjunctiveQuery loop, edge;
  loop.atoms = {Edge(V("s"), V("s"))};
  loop.Normalize();
  edge.atoms = {Edge(V("x"), V("y"))};
  edge.Normalize();
  EXPECT_TRUE(*UcqSubsumedBy({loop}, {edge}, &schema_, &vocab_));
  EXPECT_FALSE(*UcqSubsumedBy({edge}, {loop}, &schema_, &vocab_));
  EXPECT_TRUE(*UcqSubsumedBy({loop, edge}, {edge}, &schema_, &vocab_));
}

TEST_F(UwdptFixture, SemanticUwbMembership) {
  // A member whose full-tree query contains a foldable triangle + loop:
  // each subtree CQ's core is tw <= 1, so phi is in M(UWB(1)) even
  // though the member is not syntactically in WB(1).
  PatternTree m;
  m.AddAtom(PatternTree::kRoot, Edge(V("x"), V("y")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  m.AddAtom(PatternTree::kRoot, Edge(V("s"), V("s")));
  m.SetFreeVariables({V("x").variable_id(), V("y").variable_id()});
  ASSERT_TRUE(m.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m));

  Result<bool> in = IsInSemanticUWB(phi, WidthMeasure::kTreewidth, 1,
                                    &schema_, &vocab_);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);
  Result<UnionOfCqs> equivalent = ConstructUWBEquivalent(
      phi, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(equivalent.ok());
  ASSERT_FALSE(equivalent->empty());
  for (const ConjunctiveQuery& q : *equivalent) {
    Result<bool> w = WidthAtMost(q, WidthMeasure::kTreewidth, 1);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(*w);
  }
}

TEST_F(UwdptFixture, SemanticUwbRejectsGenuineTriangle) {
  PatternTree m;
  m.AddAtom(PatternTree::kRoot, Edge(V("x"), V("t1")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  m.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(m.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m));
  Result<bool> in = IsInSemanticUWB(phi, WidthMeasure::kTreewidth, 1,
                                    &schema_, &vocab_);
  ASSERT_TRUE(in.ok());
  EXPECT_FALSE(*in);
}

TEST_F(UwdptFixture, UwbApproximationSoundAndAccepted) {
  // The triangle member approximates member-wise (Theorem 18).
  PatternTree m;
  m.AddAtom(PatternTree::kRoot, Edge(V("x"), V("t1")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t1"), V("t2")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t2"), V("t3")));
  m.AddAtom(PatternTree::kRoot, Edge(V("t3"), V("t1")));
  m.SetFreeVariables({V("x").variable_id()});
  ASSERT_TRUE(m.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m));

  Result<UnionOfCqs> approx = ComputeUwbApproximation(
      phi, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(approx.ok());
  ASSERT_FALSE(approx->empty());
  // Soundness: approx [= phi_cq.
  Result<UnionOfCqs> cqs = ToUnionOfCqs(phi);
  ASSERT_TRUE(cqs.ok());
  EXPECT_TRUE(*UcqSubsumedBy(*approx, *cqs, &schema_, &vocab_));
  // The decision procedure accepts its own construction.
  Result<bool> is_approx = IsUwbApproximation(
      *approx, phi, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(is_approx.ok());
  EXPECT_TRUE(*is_approx);
  // A too-weak candidate is rejected: the empty-ish loop query that is
  // not maximal... use a single sound but dominated member.
  ConjunctiveQuery weak;
  weak.atoms = {Edge(V("a1"), V("a2")), Edge(V("a2"), V("a1")),
                Edge(V("x"), V("a1"))};
  weak.free_vars = {V("x").variable_id()};
  weak.Normalize();
  // weak maps homomorphically from the triangle query? The triangle has
  // no hom into a 2-cycle (odd cycle), so `weak` is NOT sound and must
  // be rejected.
  Result<bool> rejected = IsUwbApproximation(
      {weak}, phi, WidthMeasure::kTreewidth, 1, &schema_, &vocab_);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(*rejected);
}

TEST_F(UwdptFixture, UnionSubsumption) {
  // phi = {E(x,y)} (free x) is subsumed by phi' = {E(x,y) with free x,y;
  // loop query}: each answer {x->v} extends to an {x,y} answer.
  UnionWdpt phi;
  phi.members.push_back(
      Node({Edge(V("x"), V("y"))}, {V("x").variable_id()}));
  UnionWdpt phi2;
  phi2.members.push_back(
      Node({Edge(V("x"), V("y"))},
           {V("x").variable_id(), V("y").variable_id()}));
  phi2.members.push_back(
      Node({Edge(V("u"), V("u"))}, {V("u").variable_id()}));
  Result<bool> forward =
      UnionSubsumedBy(phi, phi2, &schema_, &vocab_);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(*forward);
  // The loop member's answers {u->v} are not covered by phi: domains
  // differ ({u} vs {x}), so the reverse direction fails.
  Result<bool> backward =
      UnionSubsumedBy(phi2, phi, &schema_, &vocab_);
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(*backward);
}

TEST_F(UwdptFixture, UnionSubsumptionEquivalenceWithRedundantMember) {
  // Adding a member subsumed by an existing one preserves ==_s.
  UnionWdpt phi;
  phi.members.push_back(
      Node({Edge(V("x"), V("y"))}, {V("x").variable_id()}));
  UnionWdpt phi2 = phi;
  phi2.members.push_back(
      Node({Edge(V("x"), V("s")), Edge(V("s"), V("s"))},
           {V("x").variable_id()}));
  ASSERT_TRUE(phi2.Validate().ok());
  Result<bool> eq =
      UnionSubsumptionEquivalent(phi, phi2, &schema_, &vocab_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(UwdptFixture, UnionSubsumptionHoldsOnSampledDatabases) {
  UnionWdpt phi;
  phi.members.push_back(
      Node({Edge(V("x"), V("y")), Edge(V("y"), V("z"))},
           {V("x").variable_id()}));
  UnionWdpt phi2;
  phi2.members.push_back(
      Node({Edge(V("x"), V("y"))},
           {V("x").variable_id(), V("y").variable_id()}));
  Result<bool> subsumed =
      UnionSubsumedBy(phi, phi2, &schema_, &vocab_);
  ASSERT_TRUE(subsumed.ok());
  ASSERT_TRUE(*subsumed);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 5;
    gopts.num_edges = 10;
    gopts.seed = seed;
    RelationId e;
    Database db = gen::MakeRandomGraphDb(&schema_, &vocab_, gopts, &e);
    Result<std::vector<Mapping>> a1 = EvaluateUnion(phi, db);
    Result<std::vector<Mapping>> a2 = EvaluateUnion(phi2, db);
    ASSERT_TRUE(a1.ok() && a2.ok());
    for (const Mapping& h1 : *a1) {
      bool covered = false;
      for (const Mapping& h2 : *a2) {
        if (h1.IsSubsumedBy(h2)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "seed " << seed;
    }
  }
}

TEST_F(UwdptFixture, UnionEvalAgreesWithMemberEval) {
  Schema schema;
  Vocabulary vocab;
  gen::RandomGraphOptions gopts;
  gopts.num_vertices = 5;
  gopts.num_edges = 10;
  gopts.seed = 3;
  RelationId e;
  Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);
  Term x = vocab.Variable("x");
  Term y = vocab.Variable("y");
  Term z = vocab.Variable("z");
  PatternTree m1;
  m1.AddAtom(PatternTree::kRoot, Atom(e, {x, y}));
  m1.AddChild(PatternTree::kRoot, {Atom(e, {y, z})});
  m1.SetFreeVariables(m1.AllVariables());
  ASSERT_TRUE(m1.Validate().ok());
  UnionWdpt phi;
  phi.members.push_back(std::move(m1));
  Result<std::vector<Mapping>> union_answers = EvaluateUnion(phi, db);
  Result<std::vector<Mapping>> member_answers =
      EvaluateWdptProjected(phi.members[0], db);
  ASSERT_TRUE(union_answers.ok());
  ASSERT_TRUE(member_answers.ok());
  std::sort(union_answers->begin(), union_answers->end());
  std::sort(member_answers->begin(), member_answers->end());
  EXPECT_EQ(*union_answers, *member_answers);
}

}  // namespace
}  // namespace wdpt
