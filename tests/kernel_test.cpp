// Tests for the columnar join kernel: the flat hash tables and arena,
// CSR column indexes (against naive scans), galloping intersection, the
// stale-flag / Freeze index lifecycle, and randomized differentials
// pinning the decomposition (bag) kernel to the backtracking
// homomorphism search, two evaluators that share no join code, and the
// projection-aware WDPT enumerator to full enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/algo.h"
#include "src/common/arena.h"
#include "src/common/flat_table.h"
#include "src/common/metrics.h"
#include "src/cq/cq.h"
#include "src/cq/evaluation.h"
#include "src/cq/homomorphism.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/relational/database.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

// ---------------------------------------------------------------------
// Flat hash tables
// ---------------------------------------------------------------------

TEST(FlatTupleSetTest, InsertFindDedup) {
  FlatTupleSet set;
  set.Init(2, nullptr);
  ConstantId a[2] = {1, 2};
  ConstantId b[2] = {2, 1};
  bool inserted = false;
  uint32_t id_a = set.InsertOrFind(a, &inserted);
  EXPECT_TRUE(inserted);
  uint32_t id_b = set.InsertOrFind(b, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(set.InsertOrFind(a, &inserted), id_a);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find(a), id_a);
  EXPECT_EQ(set.Find(b), id_b);
  ConstantId c[2] = {1, 3};
  EXPECT_EQ(set.Find(c), FlatTupleSet::kNoId);
}

TEST(FlatTupleSetTest, GrowthKeepsEveryKey) {
  // Far past the minimum capacity: every rehash must preserve all keys
  // and their dense ids.
  FlatTupleSet set;
  set.Init(2, nullptr);
  std::mt19937_64 rng(7);
  std::vector<std::array<ConstantId, 2>> keys;
  std::set<uint64_t> seen;
  while (keys.size() < 20000) {
    std::array<ConstantId, 2> k = {static_cast<ConstantId>(rng() % 100000),
                                   static_cast<ConstantId>(rng() % 100000)};
    if (!seen.insert((uint64_t{k[0]} << 32) | k[1]).second) continue;
    keys.push_back(k);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(set.InsertOrFind(keys[i].data()), i);
  }
  EXPECT_EQ(set.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(set.Find(keys[i].data()), i);
  }
}

TEST(FlatTupleSetTest, CollidingKeysStayDistinct) {
  // Keys equal modulo any power-of-two table size collide into the same
  // bucket chain unless the hash mixes the high bits; either way the
  // table must keep them distinct.
  FlatTupleSet set;
  set.Init(1, nullptr);
  std::vector<ConstantId> keys;
  for (uint32_t i = 0; i < 512; ++i) keys.push_back(i << 16);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(set.InsertOrFind(&keys[i]), i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(set.Find(&keys[i]), i);
  }
}

TEST(FlatTupleSetTest, TombstonesAndReinsert) {
  FlatTupleSet set;
  set.Init(1, nullptr);
  for (ConstantId k = 0; k < 1000; ++k) set.InsertOrFind(&k);
  for (ConstantId k = 0; k < 1000; k += 2) {
    EXPECT_TRUE(set.Erase(&k));
    EXPECT_FALSE(set.Erase(&k)) << "double erase must report absent";
  }
  EXPECT_EQ(set.size(), 500u);
  for (ConstantId k = 0; k < 1000; ++k) {
    if (k % 2 == 0) {
      ASSERT_EQ(set.Find(&k), FlatTupleSet::kNoId);
    } else {
      ASSERT_NE(set.Find(&k), FlatTupleSet::kNoId);
    }
  }
  // Reinserting erased keys mints fresh ids; lookups see them again.
  for (ConstantId k = 0; k < 1000; k += 2) {
    bool inserted = false;
    set.InsertOrFind(&k, &inserted);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(set.size(), 1000u);
  // Insert/erase churn on one key accumulates tombstones; the table must
  // stay correct through the cleanup rehashes this forces.
  for (int round = 0; round < 5000; ++round) {
    ConstantId k = 5000 + static_cast<ConstantId>(round % 7);
    set.InsertOrFind(&k);
    EXPECT_TRUE(set.Erase(&k));
  }
  EXPECT_EQ(set.size(), 1000u);
}

TEST(FlatTupleSetTest, WideTuplesSpillToArena) {
  Arena arena;
  FlatTupleSet set;
  set.Init(4, &arena);
  std::mt19937_64 rng(11);
  std::vector<std::array<ConstantId, 4>> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back({static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50)});
  }
  std::map<std::array<ConstantId, 4>, uint32_t> reference;
  for (const auto& k : keys) {
    uint32_t id = set.InsertOrFind(k.data());
    auto [it, inserted] = reference.emplace(k, id);
    EXPECT_EQ(it->second, id);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const auto& [k, id] : reference) {
    ASSERT_EQ(set.Find(k.data()), id);
  }
  // A tuple differing only in the last constant must miss (the wide
  // path compares full contents, not just the 64-bit hash).
  std::array<ConstantId, 4> near = keys[0];
  near[3] = static_cast<ConstantId>(near[3] + 1000);
  EXPECT_EQ(set.Find(near.data()), FlatTupleSet::kNoId);
}

TEST(FlatTupleMapTest, ValuesFollowDenseIds) {
  FlatTupleMap<int> map;
  map.Init(2, nullptr);
  ConstantId a[2] = {3, 4};
  ConstantId b[2] = {4, 3};
  map.InsertOrFind(a, 10) += 1;
  map.InsertOrFind(b, 20) += 2;
  map.InsertOrFind(a, 999) += 100;  // Existing: init value ignored.
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(a), nullptr);
  EXPECT_EQ(*map.Find(a), 111);
  ASSERT_NE(map.Find(b), nullptr);
  EXPECT_EQ(*map.Find(b), 22);
  ConstantId c[2] = {9, 9};
  EXPECT_EQ(map.Find(c), nullptr);
}

TEST(ArenaTest, ResetReusesMemoryAndInitClearsTables) {
  Arena arena;
  FlatTupleSet set;
  for (int round = 0; round < 3; ++round) {
    set.Init(3, &arena);
    EXPECT_EQ(set.size(), 0u);
    std::array<ConstantId, 3> t;
    for (ConstantId i = 0; i < 500; ++i) {
      t = {i, i, static_cast<ConstantId>(round)};
      set.InsertOrFind(t.data());
    }
    EXPECT_EQ(set.size(), 500u);
    t = {0, 0, static_cast<ConstantId>(round)};
    EXPECT_NE(set.Find(t.data()), FlatTupleSet::kNoId);
    arena.Reset();  // Invalidates spilled tuples; next Init re-arms.
  }
}

// ---------------------------------------------------------------------
// Galloping intersection
// ---------------------------------------------------------------------

std::vector<uint32_t> ReferenceIntersect(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(GallopIntersectTest, EdgeCases) {
  std::vector<uint32_t> out;
  auto run = [&](std::vector<uint32_t> a, std::vector<uint32_t> b) {
    out.clear();
    GallopIntersect(std::span<const uint32_t>(a),
                    std::span<const uint32_t>(b), &out);
    EXPECT_EQ(out, ReferenceIntersect(a, b));
  };
  run({}, {});
  run({}, {1, 2, 3});
  run({5}, {1, 2, 3});
  run({2}, {1, 2, 3});
  run({1, 2, 3}, {1, 2, 3});
  run({1, 3, 5, 7}, {2, 4, 6, 8});          // Disjoint, interleaved.
  run({100}, {1, 2, 3, 99, 100, 101});      // Singleton in long list.
  run({0, 1000000}, {0, 5, 1000000});       // Wide gaps.
}

TEST(GallopIntersectTest, RandomizedAgainstSetIntersection) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 200; ++round) {
    size_t small_n = rng() % 20;
    size_t large_n = rng() % 2000;
    std::set<uint32_t> sa, sb;
    while (sa.size() < small_n) sa.insert(static_cast<uint32_t>(rng() % 3000));
    while (sb.size() < large_n) sb.insert(static_cast<uint32_t>(rng() % 3000));
    std::vector<uint32_t> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    std::vector<uint32_t> out;
    GallopIntersect(std::span<const uint32_t>(a),
                    std::span<const uint32_t>(b), &out);
    ASSERT_EQ(out, ReferenceIntersect(a, b)) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// CSR column indexes
// ---------------------------------------------------------------------

class CsrFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  // A random ternary relation with small value domains (dense posting
  // lists) in a fresh database.
  Database MakeRandomDb(RelationId* rel_out, uint64_t seed,
                        size_t tuples = 2000) {
    Result<RelationId> rel = schema_.AddRelation("T" + std::to_string(seed), 3);
    WDPT_CHECK(rel.ok());
    *rel_out = *rel;
    Database db(&schema_);
    std::mt19937_64 rng(seed);
    for (size_t i = 0; i < tuples; ++i) {
      ConstantId t[3] = {static_cast<ConstantId>(rng() % 37),
                         static_cast<ConstantId>(rng() % 101),
                         static_cast<ConstantId>(rng() % 7)};
      db.AddFact(*rel_out, t).ok();
    }
    return db;
  }

  static std::vector<uint32_t> NaiveScan(const Relation& rel, uint32_t col,
                                         ConstantId value) {
    std::vector<uint32_t> rows;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      if (rel.Tuple(row)[col] == value) rows.push_back(row);
    }
    return rows;
  }
};

TEST_F(CsrFixture, RowsMatchingEqualsNaiveScan) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 3);
  const Relation& rel = db.relation(rel_id);
  for (uint32_t col = 0; col < 3; ++col) {
    for (ConstantId value = 0; value < 120; ++value) {
      std::span<const uint32_t> got = rel.RowsMatching(col, value);
      std::vector<uint32_t> expected = NaiveScan(rel, col, value);
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
          << "col " << col << " value " << value;
      // Row ids within a posting list are ascending (gallop relies on it).
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
  }
}

TEST_F(CsrFixture, ColumnStatsMatchTrueCounts) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 4);
  const Relation& rel = db.relation(rel_id);
  for (uint32_t col = 0; col < 3; ++col) {
    std::map<ConstantId, uint32_t> counts;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      ++counts[rel.Tuple(row)[col]];
    }
    uint32_t max_fanout = 0;
    for (const auto& [v, n] : counts) max_fanout = std::max(max_fanout, n);
    const auto& stats = rel.column_stats(col);
    EXPECT_EQ(stats.distinct_values, counts.size());
    EXPECT_EQ(stats.max_fanout, max_fanout);
  }
}

TEST_F(CsrFixture, MutationsBatchInvalidate) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 5, /*tuples=*/300);
  const Relation& rel = db.relation(rel_id);
  db.WarmColumnIndexes();
  EXPECT_TRUE(rel.warmed());

  // A burst of removes: each one just flips the stale flag — the
  // relation stays unwarmed with no rebuild until the next read.
  std::vector<std::vector<ConstantId>> victims;
  for (uint32_t row = 0; row < 50; ++row) {
    auto t = rel.Tuple(row * 3);
    victims.emplace_back(t.begin(), t.end());
  }
  for (const auto& t : victims) db.RemoveFact(rel_id, t);
  EXPECT_FALSE(rel.warmed());

  // First probe after the burst rebuilds once; results match a scan.
  for (uint32_t col = 0; col < 3; ++col) {
    for (ConstantId value = 0; value < 120; ++value) {
      std::span<const uint32_t> got = rel.RowsMatching(col, value);
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                NaiveScan(rel, col, value));
    }
  }
  EXPECT_TRUE(rel.warmed());

  // Inserts invalidate the same way.
  ConstantId fresh[3] = {1000, 1000, 1000};
  db.AddFact(rel_id, fresh).ok();
  EXPECT_FALSE(rel.warmed());
  std::span<const uint32_t> got = rel.RowsMatching(0, 1000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(rel.warmed());
}

TEST_F(CsrFixture, FreezePublishesAndCloneUnfreezes) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 6, /*tuples=*/100);
  db.Freeze();  // Warms then publishes.
  EXPECT_TRUE(db.warmed());
  EXPECT_TRUE(db.relation(rel_id).frozen());
  // Reads are served without any rebuild.
  EXPECT_EQ(db.relation(rel_id).RowsMatching(2, 3).size(),
            NaiveScan(db.relation(rel_id), 2, 3).size());
  // A clone is a private copy again: mutable, lazily re-indexed.
  Database clone = db.CloneWithSchema(&schema_);
  EXPECT_FALSE(clone.relation(rel_id).frozen());
  ConstantId fresh[3] = {2000, 2000, 2000};
  EXPECT_TRUE(clone.AddFact(rel_id, fresh).ok());
  EXPECT_EQ(clone.relation(rel_id).RowsMatching(0, 2000).size(), 1u);
  // The frozen original is untouched.
  EXPECT_EQ(db.relation(rel_id).RowsMatching(0, 2000).size(), 0u);
}

// ---------------------------------------------------------------------
// Differential: the bag kernel vs the backtracking search
// ---------------------------------------------------------------------

std::vector<Mapping> Sorted(std::vector<Mapping> ms) {
  std::sort(ms.begin(), ms.end());
  return ms;
}

CqEvalOptions WithStrategy(CqEvalStrategy strategy) {
  CqEvalOptions options;
  options.strategy = strategy;
  return options;
}

class DifferentialFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Database MakeGraph(uint32_t vertices, uint64_t edges, uint64_t seed,
                     RelationId* edge_rel) {
    gen::RandomGraphOptions options;
    options.num_vertices = vertices;
    options.num_edges = edges;
    options.seed = seed;
    return gen::MakeRandomGraphDb(&schema_, &vocab_, options, edge_rel);
  }

  // Path CQ with both endpoints free.
  ConjunctiveQuery PathQuery(uint32_t len, const std::string& prefix) {
    ConjunctiveQuery q = gen::MakePathCq(&schema_, &vocab_, len, prefix);
    q.free_vars = {q.atoms.front().terms[0].variable_id(),
                   q.atoms.back().terms[1].variable_id()};
    q.Normalize();
    return q;
  }
};

TEST_F(DifferentialFixture, AcyclicEvaluationIdenticalAnswerSets) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RelationId edge_rel;
    Database db = MakeGraph(60, 200, seed, &edge_rel);
    for (uint32_t len : {2u, 3u, 4u}) {
      ConjunctiveQuery q =
          PathQuery(len, "s" + std::to_string(seed) + "l" + std::to_string(len));
      std::optional<std::vector<Mapping>> bags = EvaluateAcyclic(q, db);
      std::vector<Mapping> reference =
          EvaluateCq(q, db, WithStrategy(CqEvalStrategy::kBacktracking));
      ASSERT_TRUE(bags.has_value());
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(Sorted(*bags), Sorted(reference))
          << "seed " << seed << " len " << len;
    }
  }
}

TEST_F(DifferentialFixture, DecompositionEvaluationIdenticalAnswerSets) {
  // Cycles are not acyclic: this exercises EvaluateWithDecomposition
  // (GHD of width 2).
  RelationId edge_rel;
  Database db = MakeGraph(40, 160, 9, &edge_rel);
  for (uint32_t len : {3u, 4u, 5u}) {
    ConjunctiveQuery q =
        gen::MakeCycleCq(&schema_, &vocab_, len, "c" + std::to_string(len));
    q.free_vars = {q.atoms.front().terms[0].variable_id()};
    q.Normalize();
    uint64_t passes = metrics::Load(metrics::SemijoinPasses());
    std::vector<Mapping> bags =
        EvaluateCq(q, db, WithStrategy(CqEvalStrategy::kDecomposition));
    EXPECT_GT(metrics::Load(metrics::SemijoinPasses()), passes)
        << "the bag kernel never ran on a cycle of length " << len;
    ASSERT_EQ(Sorted(bags),
              Sorted(EvaluateCq(q, db,
                                WithStrategy(CqEvalStrategy::kBacktracking))))
        << "cycle length " << len;
  }
}

TEST_F(DifferentialFixture, HomSearchOrdersEnumerateSameSet) {
  // Triangle query: once two variables are bound, the third atom has two
  // bound columns, so the search takes the galloping path. With every
  // variable free, the bag kernel's answers are the homomorphisms.
  RelationId edge_rel;
  Database db = MakeGraph(50, 300, 31, &edge_rel);
  ConjunctiveQuery q = gen::MakeCycleCq(&schema_, &vocab_, 3, "t");
  q.free_vars = q.AllVariables();
  q.Normalize();
  uint64_t gallops = metrics::Load(metrics::GallopIntersections());
  std::vector<Mapping> found;
  EXPECT_TRUE(ForEachHomomorphism(q.atoms, db, Mapping(),
                                  [&](const Mapping& m) {
                                    found.push_back(m);
                                    return true;
                                  }));
  EXPECT_GT(metrics::Load(metrics::GallopIntersections()), gallops)
      << "the search never galloped on a triangle";
  ASSERT_FALSE(found.empty());
  ASSERT_EQ(Sorted(std::move(found)),
            Sorted(EvaluateCq(q, db,
                              WithStrategy(CqEvalStrategy::kDecomposition))));
}

TEST_F(DifferentialFixture, RandomCqsAgreeUnderAutoStrategy) {
  RelationId edge_rel;
  Database db = MakeGraph(30, 120, 77, &edge_rel);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    ConjunctiveQuery q = gen::MakeRandomCq(&schema_, &vocab_, /*num_atoms=*/4,
                                           /*num_vars=*/4, seed,
                                           "r" + std::to_string(seed));
    q.free_vars = q.AllVariables();
    q.Normalize();
    ASSERT_EQ(Sorted(EvaluateCq(q, db, WithStrategy(CqEvalStrategy::kAuto))),
              Sorted(EvaluateCq(q, db,
                                WithStrategy(CqEvalStrategy::kBacktracking))))
        << "random CQ seed " << seed;
  }
}

TEST_F(DifferentialFixture, BooleanDecisionsAgreeOnBranchingJoinTree) {
  // E(x,y), E(x,z), E(z,u), E(y,w), E(w,v) with u and v seeded. Its only
  // join tree is rooted at E(x,y) with two arms, each two atoms deep.
  // Without the bottom-up semijoin pass every bag can stay non-empty
  // while no root tuple extends into both arms, so a Boolean verdict
  // read off the reduced bags would be wrong.
  Term x = vocab_.Variable("bx"), y = vocab_.Variable("by"),
       z = vocab_.Variable("bz"), u = vocab_.Variable("bu"),
       w = vocab_.Variable("bw"), v = vocab_.Variable("bv");
  int verdicts[2] = {0, 0};
  for (uint64_t seed : {41u, 42u, 43u}) {
    RelationId edge;
    Database db = MakeGraph(12, 20, seed, &edge);
    std::vector<Atom> atoms = {Atom(edge, {x, y}), Atom(edge, {x, z}),
                               Atom(edge, {z, u}), Atom(edge, {y, w}),
                               Atom(edge, {w, v})};
    for (uint32_t a = 0; a < 12; ++a) {
      for (uint32_t b = 0; b < 12; ++b) {
        Mapping seed_map;
        seed_map.Bind(u.variable_id(),
                      vocab_.Constant("n" + std::to_string(a)).constant_id());
        seed_map.Bind(v.variable_id(),
                      vocab_.Constant("n" + std::to_string(b)).constant_id());
        bool bags = DecideNonEmpty(
            atoms, db, seed_map, WithStrategy(CqEvalStrategy::kDecomposition));
        bool reference = DecideNonEmpty(
            atoms, db, seed_map, WithStrategy(CqEvalStrategy::kBacktracking));
        ASSERT_EQ(bags, reference)
            << "graph " << seed << " u=n" << a << " v=n" << b;
        ++verdicts[reference ? 1 : 0];
      }
    }
  }
  EXPECT_GT(verdicts[0], 0) << "no false verdict";
  EXPECT_GT(verdicts[1], 0) << "no true verdict";
}

TEST(WdptDifferentialTest, Fig1AnswersIdenticalAcrossKernels) {
  // End-to-end WDPT evaluation (Figure 1 catalog): the projection-aware
  // enumerator, which drives homomorphism search and CQ evaluation, must
  // produce the bit-identical canonical answer vector that full
  // enumeration of maximal homomorphisms does.
  bench::Fig1Instance instance(/*num_bands=*/60);
  Result<std::vector<Mapping>> projected =
      EvaluateWdptProjected(instance.tree, instance.db);
  Result<std::vector<Mapping>> reference =
      EvaluateWdptByFullEnumeration(instance.tree, instance.db);
  ASSERT_TRUE(projected.ok());
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(projected->empty());
  // Both functions return the canonical sorted order, so equality here
  // is bit-identity, not just same-set.
  ASSERT_EQ(*projected, *reference);
}

}  // namespace
}  // namespace wdpt
