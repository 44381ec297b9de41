// Tests for the wdpt::Engine: batched evaluation agrees bit-for-bit
// with sequential evaluation (Figure 1 and randomized instances),
// enumeration agrees with the full-enumeration reference on hostile
// query families, the maximality filter agrees with the pairwise-scan
// reference, the plan cache hits on repeated queries, and
// deadlines/cancellation produce kDeadlineExceeded/kCancelled — never a
// partial answer, the p_m(D) maximality filter included. A call capped
// at its first rows returns a prefix of the uncapped answer, on the
// root-block path and on the fallback alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/engine/engine.h"
#include "src/gen/db_gen.h"
#include "src/gen/reductions.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/uwdpt/uwdpt.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

// Figure 1 WDPT (x = record, y = band, z = rating, z2 = year) with
// the free variables `free`.
PatternTree MakeFigure1Tree(RdfContext* ctx,
                            const std::vector<std::string>& free) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "recorded_by", "?y"));
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "published", "after_2010"));
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?x", "NME_rating", "?z")});
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?y", "formed_in", "?z2")});
  std::vector<VariableId> free_ids;
  for (const std::string& name : free) {
    free_ids.push_back(ctx->vocab().Variable(name).variable_id());
  }
  tree.SetFreeVariables(free_ids);
  WDPT_CHECK(tree.Validate().ok());
  return tree;
}

// Figure 1 WDPT with full projection dropped to {x, y, z}.
PatternTree MakeFigure1Tree(RdfContext* ctx) {
  return MakeFigure1Tree(ctx, {"x", "y", "z"});
}

Database MakeExample2Db(RdfContext* ctx) {
  Database db = ctx->MakeDatabase();
  ctx->AddTriple(&db, "Our_love", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Our_love", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Swim", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "NME_rating", "2");
  return db;
}

// Candidates that exercise both answers and non-answers: up to eight
// distinct answers of p(D) (collected with an early stop — full
// enumeration can blow up combinatorially on the random instances),
// every prefix of the first answer (partial mappings), and a mutated
// mapping that binds a wrong constant.
std::vector<Mapping> MakeCandidates(const PatternTree& tree,
                                    const Database& db) {
  std::vector<Mapping> answers;
  Status status = ForEachMaximalHomomorphism(tree, db, [&](const Mapping& m) {
    Mapping projected = m.RestrictTo(tree.free_vars());
    if (std::find(answers.begin(), answers.end(), projected) ==
        answers.end()) {
      answers.push_back(projected);
    }
    return answers.size() < 8;
  });
  WDPT_CHECK(status.ok());
  std::vector<Mapping> hs = answers;
  if (!answers.empty()) {
    std::vector<Mapping::Entry> entries = answers[0].entries();
    for (size_t keep = 0; keep < entries.size(); ++keep) {
      std::vector<Mapping::Entry> prefix(entries.begin(),
                                         entries.begin() + keep);
      hs.push_back(Mapping(prefix));
    }
    if (!entries.empty()) {
      entries[0].second = entries[0].second + 12345;  // Unused constant id.
      hs.push_back(Mapping(entries));
    }
  }
  return hs;
}

// Runs EvalBatch on a >= 4-thread engine and checks the result vector
// positionally against sequential Eval with identical options.
void ExpectBatchMatchesSequential(const PatternTree& tree, const Database& db,
                                  const std::vector<Mapping>& hs,
                                  const CallOptions& options) {
  EngineOptions eopts;
  eopts.num_threads = 4;
  Engine engine(eopts);
  ASSERT_GE(engine.num_threads(), 4u);
  Result<std::vector<bool>> batch = engine.EvalBatch(tree, db, hs, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), hs.size());
  for (size_t i = 0; i < hs.size(); ++i) {
    Result<bool> sequential = engine.Eval(tree, db, hs[i], options);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    EXPECT_EQ(*sequential, (*batch)[i]) << "candidate " << i;
  }
}

TEST(EngineBatch, Figure1AllSemanticsAndAlgorithms) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  std::vector<Mapping> hs = MakeCandidates(tree, db);
  ASSERT_GE(hs.size(), 4u);

  for (EvalAlgorithm algorithm :
       {EvalAlgorithm::kAuto, EvalAlgorithm::kNaive,
        EvalAlgorithm::kTractableDP}) {
    CallOptions options;
    options.algorithm = algorithm;
    ExpectBatchMatchesSequential(tree, db, hs, options);
  }
  for (EvalSemantics semantics :
       {EvalSemantics::kPartial, EvalSemantics::kMaximal}) {
    CallOptions options;
    options.semantics = semantics;
    ExpectBatchMatchesSequential(tree, db, hs, options);
  }
}

TEST(EngineBatch, RandomizedInstancesMatchSequential) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    Schema schema;
    Vocabulary vocab;
    gen::RandomWdptOptions topts;
    topts.depth = 2;
    topts.branching = 2;
    topts.atoms_per_node = 2;
    topts.interface_size = 1;
    topts.free_fraction = 0.4;
    topts.seed = seed;
    PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, topts);
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 16;
    gopts.num_edges = 48;
    gopts.seed = seed * 7 + 1;
    RelationId e;
    Database db(&schema);
    db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);
    std::vector<Mapping> hs = MakeCandidates(tree, db);
    if (hs.empty()) continue;

    for (EvalSemantics semantics :
         {EvalSemantics::kStandard, EvalSemantics::kPartial,
          EvalSemantics::kMaximal}) {
      CallOptions options;
      options.semantics = semantics;
      ExpectBatchMatchesSequential(tree, db, hs, options);
    }
    CallOptions naive;
    naive.algorithm = EvalAlgorithm::kNaive;
    ExpectBatchMatchesSequential(tree, db, hs, naive);
  }
}

TEST(EnginePlanCache, SecondIdenticalQueryHits) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  Mapping empty;

  Engine engine;
  ASSERT_TRUE(engine.Eval(tree, db, empty).ok());
  EngineStats after_first = engine.stats();
  EXPECT_EQ(after_first.plans_built, 1u);
  EXPECT_EQ(after_first.plan_cache_misses, 1u);
  EXPECT_EQ(after_first.plan_cache_hits, 0u);

  ASSERT_TRUE(engine.Eval(tree, db, empty).ok());
  EngineStats after_second = engine.stats();
  EXPECT_EQ(after_second.plans_built, 1u);
  EXPECT_GE(after_second.plan_cache_hits, 1u);

  // A different width bound is a different canonical key: builds anew.
  CallOptions wider;
  wider.width_bound = 2;
  ASSERT_TRUE(engine.Eval(tree, db, empty, wider).ok());
  EXPECT_EQ(engine.stats().plans_built, 2u);
}

TEST(EnginePlanCache, StructurallyIdenticalTreesShareAPlan) {
  RdfContext ctx;
  PatternTree a = MakeFigure1Tree(&ctx);
  PatternTree b = MakeFigure1Tree(&ctx);  // Distinct object, same structure.
  Engine engine;
  PlanOptions popts;
  ASSERT_TRUE(engine.GetPlan(a, popts).ok());
  ASSERT_TRUE(engine.GetPlan(b, popts).ok());
  EXPECT_EQ(engine.stats().plans_built, 1u);
  EXPECT_GE(engine.stats().plan_cache_hits, 1u);
}

TEST(EngineDeadline, ExpiredDeadlineIsDeadlineExceededNotAPartialAnswer) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  CallOptions options;
  options.deadline = std::chrono::nanoseconds(0);
  Result<bool> r = engine.Eval(tree, db, Mapping());
  ASSERT_TRUE(r.ok());  // Sanity: the query itself succeeds without one.
  Result<bool> expired = engine.Eval(tree, db, Mapping(), options);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  CallOptions eopts;
  eopts.deadline = std::chrono::nanoseconds(0);
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, eopts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_GE(engine.stats().deadline_exceeded, 2u);
}

// `n` mappings over variables 0..num_vars-1 and constants
// 0..num_constants-1, in random order: each binds a random subset of
// the variables (the empty one included), and about one in four
// repeats an earlier row.
std::vector<Mapping> RandomMappings(size_t n, uint32_t num_vars,
                                    uint32_t num_constants, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Mapping> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!rows.empty() && rng() % 4 == 0) {
      rows.push_back(rows[rng() % rows.size()]);
      continue;
    }
    Mapping row;
    for (VariableId v = 0; v < num_vars; ++v) {
      if (rng() % 2 == 0) {
        row.Bind(v, static_cast<ConstantId>(rng() % num_constants));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(EngineDeadline, MaximalityFilterStopsNearItsDeadline) {
  // The filter alone, on mappings with random domains over eight
  // variables, grown until an unbounded call takes F >= 20 ms. A
  // deadline at F/4 must stop it before F/2 with a strict subset of
  // the result; an already-fired token must stop it at once. The bounds
  // are relative, so they hold under sanitizers too.
  using Clock = std::chrono::steady_clock;
  auto timed = [](const std::vector<Mapping>& rows, const CancelToken& token,
                  std::vector<Mapping>* result) {
    Clock::time_point start = Clock::now();
    *result = MaximalMappings(rows, token);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  };
  std::vector<Mapping> rows;
  std::vector<Mapping> full;
  std::chrono::nanoseconds f{0};
  for (size_t n = 4096; f < std::chrono::milliseconds(20); n *= 2) {
    ASSERT_LE(n, size_t{1} << 20);
    rows = RandomMappings(n, /*num_vars=*/8, /*num_constants=*/1000,
                          /*seed=*/n);
    f = timed(rows, CancelToken(), &full);
  }

  std::vector<Mapping> partial;
  std::chrono::nanoseconds elapsed =
      timed(rows, CancelToken::WithDeadline(Clock::now() + f / 4), &partial);
  EXPECT_LT(elapsed, f / 2) << "F=" << f.count() << "ns";
  // The rows it kept are maximal: a strict subsequence of the result.
  EXPECT_LT(partial.size(), full.size());
  auto next = full.begin();
  for (const Mapping& row : partial) {
    next = std::find(next, full.end(), row);
    ASSERT_NE(next, full.end());
    ++next;
  }

  CancelToken fired = CancelToken::Create();
  fired.RequestCancel();
  elapsed = timed(rows, fired, &partial);
  EXPECT_LT(elapsed, f / 10) << "F=" << f.count() << "ns";
  EXPECT_TRUE(partial.empty());
}

TEST(EngineDeadline, MaximalEnumerationStopsNearItsDeadline) {
  // p_m(D) through the engine: measure unbounded p(D) time P, then give
  // p_m(D) a deadline at P/4. The call must fail before P/2. The bounds
  // are relative, so they hold under sanitizers too.
  RdfContext ctx;
  gen::MusicCatalogOptions catalog;
  catalog.num_bands = 2000;
  Database db = gen::MakeMusicCatalog(&ctx, catalog);
  db.Freeze();
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;
  CallOptions maximal;
  maximal.semantics = EvalSemantics::kMaximal;

  using Clock = std::chrono::steady_clock;
  auto timed = [&](const CallOptions& options,
                   Result<std::vector<Mapping>>* result) {
    Clock::time_point start = Clock::now();
    *result = engine.Enumerate(tree, db, options);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  };
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db);
  ASSERT_TRUE(answers.ok());  // Warm-up.
  std::chrono::nanoseconds p = timed(CallOptions(), &answers);
  ASSERT_TRUE(answers.ok());

  maximal.deadline = p / 4;
  std::chrono::nanoseconds elapsed = timed(maximal, &answers);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, p / 2) << "P=" << p.count() << "ns";
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST(EngineDeadline, TractableDpStopsNearItsDeadline) {
  // EVAL on the Proposition 3 (3-colourability) family, grown from 8
  // graph vertices until an unbounded call takes P >= 100 ms. A deadline
  // at P/4 must return kDeadlineExceeded before P/2, under the Theorem 6
  // DP and under kAuto. The bounds are relative, so they hold under
  // sanitizers too.
  using Clock = std::chrono::steady_clock;
  for (EvalAlgorithm algorithm :
       {EvalAlgorithm::kTractableDP, EvalAlgorithm::kAuto}) {
    for (uint32_t n = 8;; ++n) {
      ASSERT_LE(n, 16u) << "the family never took 100 ms";
      Schema schema;
      Vocabulary vocab;
      gen::ThreeColInstance inst = gen::MakeThreeColInstance(
          gen::MakeRandomUndirectedGraph(n, 2 * n, /*seed=*/n), &schema,
          &vocab, /*tag=*/n);
      Engine engine;
      CallOptions options;
      options.algorithm = algorithm;
      auto timed = [&](Result<bool>* result) {
        Clock::time_point start = Clock::now();
        *result = engine.Eval(inst.tree, inst.db, inst.h, options);
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start);
      };
      Result<bool> verdict = false;
      std::chrono::nanoseconds p = timed(&verdict);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (p < std::chrono::milliseconds(100)) continue;

      options.deadline = p / 4;
      std::chrono::nanoseconds elapsed = timed(&verdict);
      ASSERT_FALSE(verdict.ok()) << "n=" << n;
      EXPECT_EQ(verdict.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_LT(elapsed, p / 2)
          << "n=" << n << " P=" << p.count() << "ns algorithm "
          << static_cast<int>(algorithm);
      break;
    }
  }
}

TEST(EngineDeadline, DeepOptChainEnumerationBuildsNoPlan) {
  // A right-nested OPT chain of depth 1,000 over three facts, the
  // deepest the parser accepts. Classifying it takes about a second;
  // enumerating it takes about a millisecond. A traced Enumerate, as the
  // server issues, builds no plan, so the whole call fits in a 100 ms
  // deadline (the server starts the clock before any plan build).
  RdfContext ctx;
  constexpr int kDepth = 1000;
  auto var = [](int i) { return "v" + std::to_string(i); };
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot,
               ctx.TriplePattern("?" + var(0), "next", "?" + var(1)));
  NodeId node = PatternTree::kRoot;
  for (int i = 1; i < kDepth; ++i) {
    node = tree.AddChild(
        node, {ctx.TriplePattern("?" + var(i), "next", "?" + var(i + 1))});
  }
  std::vector<VariableId> free;
  for (int i = 0; i <= kDepth; ++i) {
    free.push_back(ctx.vocab().Variable(var(i)).variable_id());
  }
  tree.SetFreeVariables(free);
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "a", "next", "b");
  ctx.AddTriple(&db, "b", "next", "c");
  ctx.AddTriple(&db, "c", "next", "d");

  Engine engine;
  Trace trace;
  CallOptions options;
  options.trace = &trace;
  options.deadline = std::chrono::milliseconds(100);
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, options);
  EXPECT_LT(std::chrono::steady_clock::now() - start, *options.deadline);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 3u);  // Paths from a, b and c.
  EXPECT_EQ(engine.stats().plans_built, 0u);
  EXPECT_EQ(trace.span_ns(TraceStage::kPlanBuild), 0u);
}

TEST(EngineDeadline, BatchReportsFirstFailureInIndexOrder) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  std::vector<Mapping> hs = MakeCandidates(tree, db);
  ASSERT_FALSE(hs.empty());

  EngineOptions eng_opts;
  eng_opts.num_threads = 4;
  Engine engine(eng_opts);
  CallOptions options;
  options.deadline = std::chrono::nanoseconds(0);
  Result<std::vector<bool>> batch = engine.EvalBatch(tree, db, hs, options);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineCancellation, PreCancelledTokenReturnsCancelled) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  CancelToken token = CancelToken::Create();
  token.RequestCancel();

  Engine engine;
  CallOptions options;
  options.cancel = token;
  Result<bool> r = engine.Eval(tree, db, Mapping(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  CallOptions eopts;
  eopts.cancel = token;
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, eopts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
  EXPECT_GE(engine.stats().cancelled, 2u);
}

TEST(EngineEnumerate, MatchesDirectEvaluators) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  Engine engine;

  Result<std::vector<Mapping>> via_engine = engine.Enumerate(tree, db);
  Result<std::vector<Mapping>> direct = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*via_engine, *direct);

  CallOptions maximal;
  maximal.semantics = EvalSemantics::kMaximal;
  Result<std::vector<Mapping>> via_engine_max =
      engine.Enumerate(tree, db, maximal);
  Result<std::vector<Mapping>> direct_max = EvaluateWdptMaximal(tree, db);
  ASSERT_TRUE(via_engine_max.ok());
  ASSERT_TRUE(direct_max.ok());
  EXPECT_EQ(*via_engine_max, *direct_max);
}

// The first min(k, |rows|) rows of `rows`; k = 0 keeps them all, as
// first_rows = 0 does.
std::vector<Mapping> FirstRows(const std::vector<Mapping>& rows, uint64_t k) {
  if (k == 0) return rows;
  size_t n = static_cast<size_t>(std::min<uint64_t>(k, rows.size()));
  return std::vector<Mapping>(rows.begin(), rows.begin() + n);
}

// Enumerate with first_rows = K, for K in {1, 2, |ref| - 1, |ref|,
// |ref| + 1}, returns the first min(K, |ref|) rows of `reference`. On
// an empty reference |ref| - 1 wraps to 2^64 - 1, a cap no answer
// reaches; on a one-row reference it is 0, which asks for all rows.
void ExpectFirstRowsArePrefixes(Engine* engine, const PatternTree& tree,
                                const Database& db, EvalSemantics semantics,
                                const std::vector<Mapping>& reference) {
  const uint64_t n = reference.size();
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, n - 1, n, n + 1}) {
    CallOptions options;
    options.semantics = semantics;
    options.first_rows = k;
    Result<std::vector<Mapping>> capped = engine->Enumerate(tree, db, options);
    ASSERT_TRUE(capped.ok()) << capped.status().ToString();
    EXPECT_EQ(*capped, FirstRows(reference, k))
        << "first_rows " << k << " of " << n;
  }
}

// Enumerate under both semantics against the reference evaluators:
// full maximal-homomorphism enumeration for p(D), and the pairwise-scan
// maximality filter over it for p_m(D). Capped calls must return
// prefixes of the same references.
void ExpectEnumerateMatchesReference(const PatternTree& tree,
                                     const Database& db) {
  Result<std::vector<Mapping>> reference =
      EvaluateWdptByFullEnumeration(tree, db);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<Mapping> maximal_reference =
      MaximalMappingsByPairwiseScan(*reference);
  Engine engine;
  CallOptions options;
  Result<std::vector<Mapping>> standard = engine.Enumerate(tree, db, options);
  ASSERT_TRUE(standard.ok()) << standard.status().ToString();
  EXPECT_EQ(*standard, *reference);
  options.semantics = EvalSemantics::kMaximal;
  Result<std::vector<Mapping>> maximal = engine.Enumerate(tree, db, options);
  ASSERT_TRUE(maximal.ok()) << maximal.status().ToString();
  EXPECT_EQ(*maximal, maximal_reference);
  ExpectFirstRowsArePrefixes(&engine, tree, db, EvalSemantics::kStandard,
                             *reference);
  ExpectFirstRowsArePrefixes(&engine, tree, db, EvalSemantics::kMaximal,
                             maximal_reference);
}

// Homomorphism searches made by one Enumerate call.
uint64_t HomCallsOf(Engine* engine, const PatternTree& tree,
                    const Database& db, const CallOptions& options) {
  uint64_t before = metrics::Load(metrics::HomomorphismCalls());
  Result<std::vector<Mapping>> answers = engine->Enumerate(tree, db, options);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  return metrics::Load(metrics::HomomorphismCalls()) - before;
}

// Hostile query families through Enumerate, each against the
// whole-database reference. The suite keeps the names of the
// scatter-gather differential tests these replaced, so each family's
// test history survives the deletion of sharded snapshots; "unsharded"
// now names the reference evaluation.

TEST(ShardedEnumerate, ThreeColReductionMatchesUnsharded) {
  // Proposition 3 three-colourability reduction: a 3-colourable 5-cycle
  // (answers exist) and K4 (not 3-colourable). Both instances share one
  // schema and vocabulary.
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance yes = gen::MakeThreeColInstance(
      gen::MakeCycleGraph(5), &schema, &vocab, /*tag=*/1);
  ExpectEnumerateMatchesReference(yes.tree, yes.db);
  gen::ThreeColInstance no = gen::MakeThreeColInstance(
      gen::MakeCompleteGraph(4), &schema, &vocab, /*tag=*/2);
  ExpectEnumerateMatchesReference(no.tree, no.db);
}

TEST(ShardedEnumerate, RandomChainWdptsMatchUnsharded) {
  // Random chain WDPTs over random graphs, kept small: full
  // enumeration grows combinatorially with graph size and tree width.
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Schema graph_schema;
    Vocabulary graph_vocab;
    gen::RandomGraphOptions graph;
    graph.num_vertices = 10;
    graph.num_edges = 18;
    graph.seed = seed;
    RelationId edge = 0;
    Database db =
        gen::MakeRandomGraphDb(&graph_schema, &graph_vocab, graph, &edge);
    gen::RandomWdptOptions shape;
    shape.depth = 2;
    shape.branching = 1;
    shape.atoms_per_node = 2;
    shape.seed = seed;
    ExpectEnumerateMatchesReference(
        gen::MakeRandomChainWdpt(&graph_schema, &graph_vocab, shape), db);
  }
}

TEST(ShardedEnumerate, Figure1ExampleMatchesUnsharded) {
  RdfContext ctx;
  ExpectEnumerateMatchesReference(MakeFigure1Tree(&ctx),
                                  MakeExample2Db(&ctx));
}

TEST(ShardedEnumerate, MusicCatalogMatchesUnsharded) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RdfContext ctx;
    gen::MusicCatalogOptions options;
    options.num_bands = 30;
    options.seed = seed;
    Database db = gen::MakeMusicCatalog(&ctx, options);
    ExpectEnumerateMatchesReference(MakeFigure1Tree(&ctx), db);
  }
}

TEST(EngineEnumerate, FirstRowsArePrefixesOnTheBlockPathAndTheFallback) {
  // Figure 1 over the catalog (x = record, y = band, z = rating, z2 =
  // year). With free {x, y, z} or {y, z} the root binds the smallest free
  // variable, so a capped call completes root blocks in order; with
  // {z, z2} it does not, and neither does the Boolean tree, so those
  // enumerate everything and cut. {y, z} is the catalog projected to
  // {band, rating}: a band with a rated and an unrated record gives a
  // {band} row that {band, rating} subsumes, so p_m(D) != p(D) and the
  // per-block maximality filter has rows to drop.
  struct Case {
    std::vector<std::string> free;
    bool blocks;
  };
  const std::vector<Case> cases = {
      {{"x", "y", "z"}, true}, {{"y", "z"}, true}, {{"z", "z2"}, false},
      {{}, false}};
  for (uint64_t seed : {1u, 2u}) {
    RdfContext ctx;
    gen::MusicCatalogOptions catalog;
    catalog.num_bands = 30;
    catalog.seed = seed;
    Database db = gen::MakeMusicCatalog(&ctx, catalog);
    for (const Case& c : cases) {
      std::string free;
      for (const std::string& v : c.free) free += " " + v;
      SCOPED_TRACE("seed " + std::to_string(seed) + ", free {" + free +
                   " }");
      PatternTree tree = MakeFigure1Tree(&ctx, c.free);
      ExpectEnumerateMatchesReference(tree, db);
      // The block path completes only the blocks it returns, so one row
      // costs fewer searches than all of them; the fallback pays for
      // every row.
      Engine engine;
      CallOptions all;
      CallOptions one;
      one.first_rows = 1;
      uint64_t capped_calls = HomCallsOf(&engine, tree, db, one);
      uint64_t all_calls = HomCallsOf(&engine, tree, db, all);
      if (c.blocks) {
        EXPECT_LT(capped_calls, all_calls);
      } else {
        EXPECT_EQ(capped_calls, all_calls);
      }
    }
    Result<std::vector<Mapping>> rows =
        EvaluateWdptProjected(MakeFigure1Tree(&ctx, {"y", "z"}), db);
    Result<std::vector<Mapping>> maximal =
        EvaluateWdptMaximal(MakeFigure1Tree(&ctx, {"y", "z"}), db);
    ASSERT_TRUE(rows.ok() && maximal.ok());
    EXPECT_LT(maximal->size(), rows->size());
  }
}

TEST(EngineEnumerate, FirstRowsKeepTheDeadlineCancelAndStepContracts) {
  RdfContext ctx;
  gen::MusicCatalogOptions catalog;
  catalog.num_bands = 200;
  Database db = gen::MakeMusicCatalog(&ctx, catalog);
  PatternTree tree = MakeFigure1Tree(&ctx);  // Free {x, y, z}: blocks.
  Engine engine;
  CancelToken cancelled = CancelToken::Create();
  cancelled.RequestCancel();
  CancelToken expired = CancelToken::WithDeadline(
      std::chrono::steady_clock::now() - std::chrono::seconds(1));

  for (EvalSemantics semantics :
       {EvalSemantics::kStandard, EvalSemantics::kMaximal}) {
    const bool is_maximal = semantics == EvalSemantics::kMaximal;
    SCOPED_TRACE(is_maximal ? "p_m(D)" : "p(D)");
    CallOptions options;
    options.semantics = semantics;
    options.first_rows = 3;
    auto evaluate = [&](const EnumerationLimits& limits) {
      return is_maximal ? EvaluateWdptMaximal(tree, db, limits, 3)
                        : EvaluateWdptProjected(tree, db, limits, 3);
    };

    // A fired token never yields rows, through the engine or straight
    // into the block path.
    CallOptions late = options;
    late.deadline = std::chrono::nanoseconds(0);
    Result<std::vector<Mapping>> r = engine.Enumerate(tree, db, late);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    CallOptions stopped = options;
    stopped.cancel = cancelled;
    r = engine.Enumerate(tree, db, stopped);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    EnumerationLimits limits;
    limits.cancel = expired;
    r = evaluate(limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    limits.cancel = cancelled;
    r = evaluate(limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

    // The root alone has hundreds of matches: a budget of 5 steps runs
    // out in the root pass.
    CallOptions tight = options;
    tight.limits.max_steps = 5;
    r = engine.Enumerate(tree, db, tight);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

    // A call fails exactly when its steps exceed max_steps, so the
    // smallest budget it succeeds under is its step count. The capped
    // call takes fewer steps than the uncapped one, so under its own
    // count it succeeds where the full enumeration runs out.
    auto steps_of = [&](CallOptions call) {
      uint64_t lo = 1;
      uint64_t hi = EnumerationLimits().max_steps;
      while (lo < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        call.limits.max_steps = mid;
        if (engine.Enumerate(tree, db, call).ok()) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    };
    CallOptions uncapped = options;
    uncapped.first_rows = 0;
    uint64_t capped_steps = steps_of(options);
    uint64_t full_steps = steps_of(uncapped);
    EXPECT_LT(capped_steps, full_steps);
    options.limits.max_steps = capped_steps;
    uncapped.limits.max_steps = capped_steps;
    r = engine.Enumerate(tree, db, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->size(), 3u);
    r = engine.Enumerate(tree, db, uncapped);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(ShardedEnumerate, EmptyDatabaseAndEmptyShards) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  ExpectEnumerateMatchesReference(tree, ctx.MakeDatabase());

  // Two facts: the root matches once and neither optional child
  // extends it.
  Database tiny = ctx.MakeDatabase();
  ctx.AddTriple(&tiny, "Swim", "recorded_by", "Caribou");
  ctx.AddTriple(&tiny, "Swim", "published", "after_2010");
  ExpectEnumerateMatchesReference(tree, tiny);
}

// The domain-grouped maximality filter against the pairwise scan, as
// whole vectors: same rows, same order, duplicates kept. A live token
// that never fires must not change the result.
void ExpectFilterMatchesPairwiseScan(const std::vector<Mapping>& rows) {
  std::vector<Mapping> expected = MaximalMappingsByPairwiseScan(rows);
  EXPECT_EQ(MaximalMappings(rows), expected);
  EXPECT_EQ(MaximalMappings(rows, CancelToken::Create()), expected);
}

TEST(MaximalityFilter, MatchesPairwiseScanOnRandomMappingSets) {
  // Five variables and three constants make strict subsumption,
  // duplicates and the empty mapping common; the rows are unsorted.
  uint64_t seed = 0;
  for (size_t n : {0, 1, 2, 3, 5, 8, 20, 50, 120, 300}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Mapping> rows =
          RandomMappings(n, /*num_vars=*/5, /*num_constants=*/3, ++seed);
      if (trial % 2 == 1 && n > 0) rows[seed % n] = Mapping();
      ExpectFilterMatchesPairwiseScan(rows);
    }
  }
}

TEST(MaximalityFilter, MatchesPairwiseScanOnUnionOutput) {
  // EvaluateUnion concatenates its members' answers, so the rows are
  // unsorted, and members with different free variables give rows that
  // strictly subsume each other across members.
  RdfContext ctx;
  gen::MusicCatalogOptions catalog;
  catalog.num_bands = 40;
  Database db = gen::MakeMusicCatalog(&ctx, catalog);
  UnionWdpt phi;
  phi.members.push_back(MakeFigure1Tree(&ctx, {"y", "z"}));
  phi.members.push_back(MakeFigure1Tree(&ctx, {"y"}));
  phi.members.push_back(MakeFigure1Tree(&ctx, {"x", "y", "z2"}));
  Result<std::vector<Mapping>> rows = EvaluateUnion(phi, db);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_FALSE(std::is_sorted(rows->begin(), rows->end()));
  std::vector<Mapping> maximal = MaximalMappings(*rows);
  EXPECT_LT(maximal.size(), rows->size());
  ExpectFilterMatchesPairwiseScan(*rows);
}

TEST(MaximalityFilter, MatchesPairwiseScanOnCatalogProjectedToBandAndRating) {
  // A band with a rated and an unrated record yields {band}, which
  // {band, rating} strictly subsumes, so the filter must drop rows.
  RdfContext ctx;
  gen::MusicCatalogOptions catalog;
  catalog.num_bands = 200;
  Database db = gen::MakeMusicCatalog(&ctx, catalog);
  Result<std::vector<Mapping>> rows =
      EvaluateWdptProjected(MakeFigure1Tree(&ctx, {"y", "z"}), db);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<Mapping> maximal = MaximalMappings(*rows);
  EXPECT_LT(maximal.size(), rows->size());
  ExpectFilterMatchesPairwiseScan(*rows);
}

TEST(EnginePlan, ForcedProjectionFreeOnProjectingTreeIsAnError) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);  // Projects z2 away.
  Engine engine;
  PlanOptions popts;
  popts.algorithm = EvalAlgorithm::kProjectionFree;
  Result<std::shared_ptr<const Plan>> plan = engine.GetPlan(tree, popts);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineStatsConsistency, SnapshotsNeverTearUnderConcurrentLookups) {
  // Two structurally different trees share a capacity-1 cache, so
  // concurrent GetPlan calls keep evicting each other: a steady mix of
  // hits, misses, and builds. Any snapshot taken meanwhile must satisfy
  // lookups == hits + misses and built <= misses — the invariants a
  // torn (field-by-field atomic) snapshot violates.
  RdfContext ctx;
  PatternTree a = MakeFigure1Tree(&ctx);
  PatternTree b;
  b.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "recorded_by", "?y"));
  b.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                      ctx.vocab().Variable("y").variable_id()});
  ASSERT_TRUE(b.Validate().ok());

  EngineOptions eopts;
  eopts.plan_cache_capacity = 1;
  Engine engine(eopts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      PlanOptions popts;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(engine.GetPlan(t % 2 == 0 ? a : b, popts).ok());
      }
    });
  }
  // Snapshot continuously until the workers have produced a healthy
  // mix — thread startup can lag the first snapshots, so a fixed
  // iteration count alone could finish before any lookup happens.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t snapshots = 0;; ++snapshots) {
    EngineStats s = engine.stats();
    ASSERT_EQ(s.plan_cache_lookups, s.plan_cache_hits + s.plan_cache_misses)
        << "torn snapshot at iteration " << snapshots;
    ASSERT_LE(s.plans_built, s.plan_cache_misses);
    if (snapshots >= 2000 && s.plan_cache_lookups >= 100) break;
    if (std::chrono::steady_clock::now() > deadline) break;
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  EngineStats last = engine.stats();
  EXPECT_EQ(last.plan_cache_lookups,
            last.plan_cache_hits + last.plan_cache_misses);
  EXPECT_GT(last.plan_cache_lookups, 0u);
}

TEST(EngineTrace, EvalRecordsSpansAndClassification) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  Trace trace(7);
  CallOptions options;
  options.trace = &trace;
  ASSERT_TRUE(engine.Eval(tree, db, Mapping(), options).ok());
  EXPECT_NE(trace.classification(), TractabilityClass::kUnknown);
  EXPECT_GT(trace.span_ns(TraceStage::kEval), 0u);
  // First evaluation builds the plan, so the build span is real time.
  EXPECT_GT(trace.span_ns(TraceStage::kPlanBuild), 0u);

  // A second traced call hits the cache: no further build time accrues.
  Trace second;
  options.trace = &second;
  ASSERT_TRUE(engine.Eval(tree, db, Mapping(), options).ok());
  EXPECT_EQ(second.span_ns(TraceStage::kPlanBuild), 0u);
  EXPECT_EQ(second.classification(), trace.classification());
}

TEST(EngineTrace, EnumerateBuildsNoPlan) {
  // Enumeration executes no plan, so a traced call looks none up and
  // leaves the class unknown.
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  Trace trace;
  CallOptions options;
  options.trace = &trace;
  Result<std::vector<Mapping>> untraced = engine.Enumerate(tree, db);
  Result<std::vector<Mapping>> traced = engine.Enumerate(tree, db, options);
  ASSERT_TRUE(untraced.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(*untraced, *traced);  // Tracing never alters rows.
  EXPECT_EQ(engine.stats().plan_cache_lookups, 0u);
  EXPECT_EQ(engine.stats().plans_built, 0u);
  EXPECT_EQ(trace.classification(), TractabilityClass::kUnknown);
  EXPECT_GT(trace.span_ns(TraceStage::kEval), 0u);
}

TEST(EngineTrace, EvalClassifiesUnderTheCallsWidthBound) {
  // A one-node triangle query has treewidth 2: intractable under the
  // default width bound 1, globally tractable under width bound 2.
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "knows", "?y"));
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?y", "knows", "?z"));
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?z", "knows", "?x"));
  tree.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                         ctx.vocab().Variable("y").variable_id(),
                         ctx.vocab().Variable("z").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "a", "knows", "b");
  ctx.AddTriple(&db, "b", "knows", "c");
  ctx.AddTriple(&db, "c", "knows", "a");

  Engine engine;
  for (int width : {1, 2}) {
    CallOptions options;
    options.width_bound = width;
    Trace trace;
    options.trace = &trace;
    ASSERT_TRUE(engine.Eval(tree, db, Mapping(), options).ok());
    EXPECT_EQ(trace.classification(),
              width == 1 ? TractabilityClass::kIntractable
                         : TractabilityClass::kGTractable)
        << "width " << width;
  }
}

}  // namespace
}  // namespace wdpt
