// Unit tests for the relational substrate: terms, schemas, atoms,
// databases, and partial mappings.

#include <gtest/gtest.h>

#include "src/relational/atom.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"
#include "src/relational/rdf.h"
#include "src/relational/schema.h"
#include "src/relational/term.h"

namespace wdpt {
namespace {

TEST(TermTest, ConstantVariableDistinct) {
  Term c = Term::Constant(0);
  Term v = Term::Variable(0);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_variable());
  EXPECT_TRUE(v.is_variable());
  EXPECT_NE(c, v);
  EXPECT_EQ(c.constant_id(), 0u);
  EXPECT_EQ(v.variable_id(), 0u);
}

TEST(VocabularyTest, InterningIsIdempotent) {
  Vocabulary vocab;
  Term a1 = vocab.Constant("a");
  Term a2 = vocab.Constant("a");
  EXPECT_EQ(a1, a2);
  Term x1 = vocab.Variable("x");
  Term x2 = vocab.Variable("x");
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(vocab.ConstantName(a1.constant_id()), "a");
  EXPECT_EQ(vocab.VariableName(x1.variable_id()), "x");
  EXPECT_EQ(vocab.TermName(a1), "a");
  EXPECT_EQ(vocab.TermName(x1), "?x");
}

TEST(VocabularyTest, FreshVariablesAreFresh) {
  Vocabulary vocab;
  VariableId a = vocab.FreshVariable();
  VariableId b = vocab.FreshVariable();
  EXPECT_NE(a, b);
}

TEST(InternerTest, LayeredInternerFallsThroughToItsBase) {
  Interner base;
  ASSERT_EQ(base.Intern("a"), 0u);
  ASSERT_EQ(base.Intern("b"), 1u);
  Interner layer(&base);
  EXPECT_EQ(layer.size(), 2u);
  EXPECT_EQ(layer.Intern("b"), 1u);
  EXPECT_EQ(layer.Intern("c"), 2u);
  EXPECT_EQ(layer.Intern("d"), 3u);
  EXPECT_EQ(layer.Intern("c"), 2u);
  EXPECT_EQ(layer.Find("a"), 0u);
  EXPECT_EQ(layer.Find("d"), 3u);
  EXPECT_EQ(layer.Find("e"), Interner::kNotInterned);
  EXPECT_EQ(layer.NameOf(1), "b");
  EXPECT_EQ(layer.NameOf(3), "d");
  EXPECT_EQ(layer.size(), 4u);
  // The base is only read.
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.Find("c"), Interner::kNotInterned);
}

TEST(VocabularyTest, LayeredVocabularyGivesTheIdsOfAFullCopy) {
  Vocabulary base;
  for (const char* name : {"a", "b", "c"}) base.Constant(name);
  base.Variable("x");
  Vocabulary copy = base;
  Vocabulary layer(&base);

  // Base names keep their ids; new names continue after the base's
  // size, in first-appearance order, exactly as in a copy.
  for (Vocabulary* v : {&copy, &layer}) {
    EXPECT_EQ(v->ConstantIdOf("b"), 1u);
    EXPECT_EQ(v->ConstantIdOf("new1"), 3u);
    EXPECT_EQ(v->ConstantIdOf("new2"), 4u);
    EXPECT_EQ(v->ConstantIdOf("new1"), 3u);
    EXPECT_EQ(v->Variable("x"), Term::Variable(0));
    EXPECT_EQ(v->VariableIdOf("y"), 1u);
  }
  EXPECT_EQ(layer.FindConstant("a"), 0u);
  EXPECT_EQ(layer.FindConstant("new2"), 4u);
  EXPECT_EQ(layer.FindConstant("absent"), Interner::kNotInterned);
  EXPECT_EQ(layer.ConstantName(2), "c");
  EXPECT_EQ(layer.ConstantName(4), "new2");
  EXPECT_EQ(layer.VariableName(0), "x");
  EXPECT_EQ(layer.VariableName(1), "y");
  EXPECT_EQ(layer.num_constants(), 5u);
  EXPECT_EQ(layer.num_variables(), 2u);

  // The base is unchanged.
  EXPECT_EQ(base.num_constants(), 3u);
  EXPECT_EQ(base.num_variables(), 1u);
  EXPECT_EQ(base.FindConstant("new1"), Interner::kNotInterned);
  EXPECT_EQ(base.ConstantName(0), "a");
  EXPECT_EQ(base.ConstantName(2), "c");
}

TEST(VocabularyTest, FreshVariableOnALayerNeverReturnsABaseName) {
  Vocabulary base;
  VariableId minted = base.FreshVariable();  // "_v#0".
  for (const char* name : {"_v#1", "_v#2", "_v#3"}) base.Variable(name);
  Vocabulary layer(&base);
  VariableId fresh = layer.FreshVariable();
  EXPECT_EQ(fresh, base.num_variables());
  EXPECT_NE(fresh, minted);
  EXPECT_EQ(layer.VariableName(fresh), "_v#4");
  EXPECT_EQ(base.num_variables(), 4u);
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  Result<RelationId> r = schema.AddRelation("R", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(schema.Arity(*r), 2u);
  EXPECT_EQ(schema.Name(*r), "R");
  EXPECT_EQ(schema.Find("R"), *r);
  EXPECT_EQ(schema.Find("S"), Schema::kNotFound);
  // Re-adding with the same arity reuses the id.
  Result<RelationId> again = schema.AddRelation("R", 2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *r);
}

TEST(SchemaTest, ArityConflictRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 2).ok());
  Result<RelationId> bad = schema.AddRelation("R", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(schema.AddRelation("Z", 0).ok());
}

TEST(AtomTest, VariablesAndGroundness) {
  Schema schema;
  Vocabulary vocab;
  RelationId r = *schema.AddRelation("R", 3);
  Atom atom(r, {vocab.Variable("x"), vocab.Constant("a"),
                vocab.Variable("y")});
  EXPECT_FALSE(atom.IsGround());
  std::vector<VariableId> vars = atom.Variables();
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(atom.Mentions(vocab.Variable("x").variable_id()));
  EXPECT_FALSE(atom.Mentions(vocab.Variable("z").variable_id()));
  EXPECT_EQ(atom.ToString(schema, vocab), "R(?x, a, ?y)");

  Atom ground(r, {vocab.Constant("a"), vocab.Constant("b"),
                  vocab.Constant("c")});
  EXPECT_TRUE(ground.IsGround());
}

TEST(DatabaseTest, InsertDeduplicatesAndCounts) {
  Schema schema;
  Vocabulary vocab;
  RelationId r = *schema.AddRelation("R", 2);
  Database db(&schema);
  ConstantId a = vocab.ConstantIdOf("a");
  ConstantId b = vocab.ConstantIdOf("b");
  ConstantId t1[2] = {a, b};
  ASSERT_TRUE(db.AddFact(r, t1).ok());
  ASSERT_TRUE(db.AddFact(r, t1).ok());  // Duplicate.
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_TRUE(db.ContainsFact(r, t1));
  ConstantId t2[2] = {b, a};
  EXPECT_FALSE(db.ContainsFact(r, t2));
}

TEST(DatabaseTest, ColumnIndexFindsRows) {
  Schema schema;
  Vocabulary vocab;
  RelationId r = *schema.AddRelation("R", 2);
  Database db(&schema);
  ConstantId a = vocab.ConstantIdOf("a");
  ConstantId b = vocab.ConstantIdOf("b");
  ConstantId c = vocab.ConstantIdOf("c");
  ConstantId rows[3][2] = {{a, b}, {a, c}, {b, c}};
  for (auto& row : rows) ASSERT_TRUE(db.AddFact(r, row).ok());
  EXPECT_EQ(db.relation(r).RowsMatching(0, a).size(), 2u);
  EXPECT_EQ(db.relation(r).RowsMatching(1, c).size(), 2u);
  EXPECT_EQ(db.relation(r).RowsMatching(0, c).size(), 0u);
  // Index stays current across later inserts.
  ConstantId extra[2] = {a, a};
  ASSERT_TRUE(db.AddFact(r, extra).ok());
  EXPECT_EQ(db.relation(r).RowsMatching(0, a).size(), 3u);
}

TEST(DatabaseTest, ActiveDomainAndArityChecks) {
  Schema schema;
  Vocabulary vocab;
  RelationId r = *schema.AddRelation("R", 2);
  Database db(&schema);
  ConstantId a = vocab.ConstantIdOf("a");
  ConstantId b = vocab.ConstantIdOf("b");
  ConstantId t[2] = {a, b};
  ASSERT_TRUE(db.AddFact(r, t).ok());
  EXPECT_EQ(db.ActiveDomain().size(), 2u);
  ConstantId bad[3] = {a, b, a};
  EXPECT_FALSE(db.AddFact(r, bad).ok());
  EXPECT_FALSE(db.AddFact(999, t).ok());
}

TEST(MappingTest, BindGetAndDomain) {
  Mapping m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.Bind(3, 10));
  EXPECT_TRUE(m.Bind(1, 20));
  EXPECT_TRUE(m.Bind(3, 10));   // Same value ok.
  EXPECT_FALSE(m.Bind(3, 11));  // Conflict.
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Get(3), 10u);
  EXPECT_EQ(*m.Get(1), 20u);
  EXPECT_FALSE(m.Get(2).has_value());
  EXPECT_EQ(m.Domain(), (std::vector<VariableId>{1, 3}));
}

TEST(MappingTest, SubsumptionOrder) {
  Mapping small({{1, 10}});
  Mapping big({{1, 10}, {2, 20}});
  Mapping other({{1, 11}});
  EXPECT_TRUE(small.IsSubsumedBy(big));
  EXPECT_TRUE(small.IsStrictlySubsumedBy(big));
  EXPECT_FALSE(big.IsSubsumedBy(small));
  EXPECT_FALSE(small.IsSubsumedBy(other));
  EXPECT_TRUE(small.IsSubsumedBy(small));
  EXPECT_FALSE(small.IsStrictlySubsumedBy(small));
}

TEST(MappingTest, UnionAndCompatibility) {
  Mapping a({{1, 10}});
  Mapping b({{2, 20}});
  Mapping conflicting({{1, 11}});
  EXPECT_TRUE(a.CompatibleWith(b));
  EXPECT_FALSE(a.CompatibleWith(conflicting));
  std::optional<Mapping> u = Mapping::Union(a, b);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->size(), 2u);
  EXPECT_FALSE(Mapping::Union(a, conflicting).has_value());
}

TEST(MappingTest, RestrictAndHash) {
  Mapping m({{1, 10}, {2, 20}, {3, 30}});
  Mapping r = m.RestrictTo({1, 3});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.IsSubsumedBy(m));
  Mapping same({{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(m, same);
  EXPECT_EQ(m.Hash(), same.Hash());
}

TEST(RdfContextTest, TriplePatternsAndFacts) {
  RdfContext ctx;
  Atom pattern = ctx.TriplePattern("?x", "recorded_by", "?y");
  EXPECT_EQ(pattern.terms.size(), 3u);
  EXPECT_TRUE(pattern.terms[0].is_variable());
  EXPECT_TRUE(pattern.terms[1].is_constant());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "rec1", "recorded_by", "band1");
  EXPECT_EQ(db.TotalFacts(), 1u);
}

TEST(RdfContextTest, LayeredContextParsesLikeACopy) {
  RdfContext base;
  Database db = base.MakeDatabase();
  base.AddTriple(&db, "rec1", "recorded_by", "band1");
  RdfContext copy(base);
  RdfContext layer(&base);
  EXPECT_EQ(layer.triple_relation(), base.triple_relation());
  EXPECT_EQ(layer.schema().Arity(layer.triple_relation()), 3u);
  Atom pattern = layer.TriplePattern("?x", "recorded_by", "band9");
  EXPECT_EQ(pattern.terms,
            copy.TriplePattern("?x", "recorded_by", "band9").terms);
  EXPECT_EQ(pattern.terms[1], Term::Constant(1));
  EXPECT_EQ(layer.vocab().TermName(pattern.terms[2]), "band9");
  EXPECT_EQ(base.vocab().num_constants(), 3u);
  EXPECT_EQ(base.vocab().num_variables(), 0u);
}

}  // namespace
}  // namespace wdpt
