// Table 1 reproduction, rows EVAL / PARTIAL-EVAL / MAX-EVAL, driven
// through wdpt::Engine.
//
// The paper's Table 1 classifies complexity per class column:
//   EVAL:   Sigma2P (general) | NP (l-C(k)) | NP (g-C(k)) | LOGCFL (+BI).
//   P-EVAL: NP (l-C(k)) | LOGCFL (g-C(k)).
//   M-EVAL: DP (l-C(k)) | LOGCFL (g-C(k)).
// Empirically:
//  * the LOGCFL/PTIME cells scale polynomially in |D| for fixed queries
//    (the *_DbSweep benches: near-linear growth),
//  * the NP cells blow up in |query| on the Proposition 3
//    3-colorability family (the *_HardQuerySweep benches: exponential
//    growth even for g-TW(1) queries — global tractability does NOT give
//    tractable exact EVAL),
//  * tractable-class query-size scaling stays modest
//    (EvalTractable_QuerySweep).
//
// The BM_Engine_* benches cover the engine layer itself: plan-cache hit
// cost, and batched EVAL across the thread pool vs the same candidates
// evaluated sequentially. They double as bench-time regression checks:
// each asserts the engine's stats counters (>= 1 plan-cache hit on a
// repeated query, exactly one plan built) and that EvalBatch agrees
// bit-for-bit with sequential Eval.
//
// `bench_table1_eval --benchmark_filter=Engine --benchmark_out=...`
// backs the `bench_engine_json` target (emits BENCH_engine.json).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/engine/engine.h"
#include "src/gen/reductions.h"

namespace wdpt::bench {
namespace {

// Up to `want` candidate answers of the tree (projections of maximal
// homomorphisms), padded by repetition so every batch size is reached
// even on answer-poor instances.
std::vector<Mapping> Candidates(const PatternTree& tree, const Database& db,
                                size_t want) {
  std::vector<Mapping> out;
  Status status = ForEachMaximalHomomorphism(tree, db, [&](const Mapping& m) {
    out.push_back(m.RestrictTo(tree.free_vars()));
    return out.size() < want;
  });
  WDPT_CHECK(status.ok());
  WDPT_CHECK(!out.empty());
  size_t distinct = out.size();
  while (out.size() < want) out.push_back(out[out.size() % distinct]);
  return out;
}

// ---- Tractable column: data-complexity sweep ---------------------------

void BM_Eval_Tractable_DbSweep(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  TractableInstance inst(n, uint64_t{3} * n, /*depth=*/2, /*branching=*/2,
                         /*seed=*/11);
  Mapping h = FirstAnswer(inst.tree, inst.db);
  Engine engine;
  CallOptions opts;
  opts.algorithm = EvalAlgorithm::kTractableDP;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Eval_Tractable_DbSweep)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)->Arg(25600);

void BM_Eval_Naive_DbSweep(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  TractableInstance inst(n, uint64_t{3} * n, 2, 2, 11);
  Mapping h = FirstAnswer(inst.tree, inst.db);
  Engine engine;
  CallOptions opts;
  opts.algorithm = EvalAlgorithm::kNaive;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Eval_Naive_DbSweep)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)->Arg(25600);

void BM_PartialEval_DbSweep(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  TractableInstance inst(n, uint64_t{3} * n, 2, 2, 11);
  Mapping h = FirstAnswer(inst.tree, inst.db);
  if (!h.empty()) {
    std::vector<Mapping::Entry> entries = h.entries();
    entries.resize(entries.size() / 2 + 1);
    h = Mapping(entries);
  }
  Engine engine;
  CallOptions opts;
  opts.semantics = EvalSemantics::kPartial;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_PartialEval_DbSweep)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)->Arg(25600);

void BM_MaxEval_DbSweep(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  TractableInstance inst(n, uint64_t{3} * n, 2, 2, 11);
  Mapping h = FirstAnswer(inst.tree, inst.db);
  Engine engine;
  CallOptions opts;
  opts.semantics = EvalSemantics::kMaximal;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_MaxEval_DbSweep)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)->Arg(25600);

// ---- Query-size sweep in the tractable class ----------------------------

void BM_Eval_Tractable_QuerySweep(benchmark::State& state) {
  uint32_t branching = static_cast<uint32_t>(state.range(0));
  TractableInstance inst(200, 600, /*depth=*/2, branching, /*seed=*/13);
  Mapping h = FirstAnswer(inst.tree, inst.db);
  Engine engine;
  CallOptions opts;
  opts.algorithm = EvalAlgorithm::kTractableDP;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["tree_nodes"] = static_cast<double>(inst.tree.num_nodes());
}
BENCHMARK(BM_Eval_Tractable_QuerySweep)->DenseRange(1, 5);

// ---- NP cells: Proposition 3 hard family ---------------------------------
// EVAL on g-TW(1) WDPTs encodes 3-colorability; the runtime of both the
// naive and the DP algorithm grows exponentially with the number of
// graph vertices on near-critical random graphs (edges ~ 2.3 * vertices
// would be critical; we use odd cycles plus chords for guaranteed-yes
// instances of increasing size).

void BM_Eval_HardQuerySweep_Naive(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeRandomUndirectedGraph(n, 2 * n, /*seed=*/n), &schema,
      &vocab, /*tag=*/n);
  Engine engine;
  CallOptions opts;
  opts.algorithm = EvalAlgorithm::kNaive;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, inst.h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["graph_vertices"] = n;
}
BENCHMARK(BM_Eval_HardQuerySweep_Naive)->DenseRange(4, 12, 2);

void BM_Eval_HardQuerySweep_Tractable(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeRandomUndirectedGraph(n, 2 * n, /*seed=*/n), &schema,
      &vocab, /*tag=*/100 + n);
  Engine engine;
  CallOptions opts;
  opts.algorithm = EvalAlgorithm::kTractableDP;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, inst.h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["graph_vertices"] = n;
}
BENCHMARK(BM_Eval_HardQuerySweep_Tractable)->DenseRange(4, 12, 2);

// On the same hard family, PARTIAL-EVAL stays easy (Theorem 8: the
// minimal subtree is just the root, and the instantiated root CQ is
// acyclic): the contrast between these two benches is exactly the
// EVAL-vs-P-EVAL gap of Table 1 column g-C(k).
void BM_PartialEval_HardQuerySweep(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance inst = gen::MakeThreeColInstance(
      gen::MakeRandomUndirectedGraph(n, 2 * n, /*seed=*/n), &schema,
      &vocab, /*tag=*/200 + n);
  Engine engine;
  CallOptions opts;
  opts.semantics = EvalSemantics::kPartial;
  for (auto _ : state) {
    Result<bool> r = engine.Eval(inst.tree, inst.db, inst.h, opts);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["graph_vertices"] = n;
}
BENCHMARK(BM_PartialEval_HardQuerySweep)->DenseRange(4, 12, 2);

// ---- Engine layer: plan cache and batched evaluation ---------------------

// Cost of GetPlan when the plan is already cached: after the warm-up
// build, every iteration must be a cache hit and build no further plan.
void BM_Engine_PlanCacheHit(benchmark::State& state) {
  Fig1Instance inst(/*num_bands=*/64);
  Engine engine;
  PlanOptions popts;
  WDPT_CHECK(engine.GetPlan(inst.tree, popts).ok());
  for (auto _ : state) {
    Result<std::shared_ptr<const Plan>> plan = engine.GetPlan(inst.tree, popts);
    WDPT_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan);
  }
  EngineStats stats = engine.stats();
  WDPT_CHECK(stats.plans_built == 1);
  WDPT_CHECK(stats.plan_cache_hits >= 1);
}
BENCHMARK(BM_Engine_PlanCacheHit);

// Baseline for BM_Engine_EvalBatch: the same candidates through
// sequential Eval calls on one thread.
void BM_Engine_EvalSequential(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  TractableInstance inst(1600, 4800, /*depth=*/2, /*branching=*/2,
                         /*seed=*/11);
  std::vector<Mapping> hs = Candidates(inst.tree, inst.db, batch);
  Engine engine;
  CallOptions opts;
  for (auto _ : state) {
    for (const Mapping& h : hs) {
      Result<bool> r = engine.Eval(inst.tree, inst.db, h, opts);
      WDPT_CHECK(r.ok());
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["batch"] = static_cast<double>(hs.size());
}
BENCHMARK(BM_Engine_EvalSequential)->Arg(8)->Arg(32);

// Batched EVAL across the thread pool. Asserts at teardown that the
// batch results are bit-identical to sequential evaluation and that the
// repeated queries hit the plan cache (exactly one plan built).
void BM_Engine_EvalBatch(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  TractableInstance inst(1600, 4800, /*depth=*/2, /*branching=*/2,
                         /*seed=*/11);
  std::vector<Mapping> hs = Candidates(inst.tree, inst.db, batch);
  EngineOptions eopts;
  eopts.num_threads = 4;
  Engine engine(eopts);
  CallOptions opts;
  std::vector<bool> parallel_results;
  for (auto _ : state) {
    Result<std::vector<bool>> r = engine.EvalBatch(inst.tree, inst.db, hs,
                                                   opts);
    WDPT_CHECK(r.ok());
    parallel_results = *r;
    benchmark::DoNotOptimize(r);
  }
  for (size_t i = 0; i < hs.size(); ++i) {
    Result<bool> sequential = engine.Eval(inst.tree, inst.db, hs[i], opts);
    WDPT_CHECK(sequential.ok());
    WDPT_CHECK(*sequential == parallel_results[i]);
  }
  EngineStats stats = engine.stats();
  WDPT_CHECK(stats.plans_built == 1);
  WDPT_CHECK(stats.plan_cache_hits >= 1);
  state.counters["batch"] = static_cast<double>(hs.size());
  state.counters["threads"] = static_cast<double>(engine.num_threads());
}
BENCHMARK(BM_Engine_EvalBatch)->Arg(8)->Arg(32);

}  // namespace
}  // namespace wdpt::bench

BENCHMARK_MAIN();
