// Figure 1 reproduction: the paper's running example at scale.
//
// Series: database size sweep (number of bands). Measured:
//  * full evaluation p(D) (answer enumeration),
//  * the maximal answers p_m(D) (enumeration plus maximality filter),
//  * EVAL membership via the naive algorithm vs the Theorem 6 DP,
//  * PARTIAL-EVAL and MAX-EVAL (Theorems 8/9).
// Expected shape: all of these scale polynomially (near-linearly) in
// |D| — the query is locally TW(1) with interface width 2 and globally
// TW(1), so every cell of Table 1 row 1/2/3 for this query is tractable.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_tractable.h"

namespace wdpt::bench {
namespace {

Mapping SampleAnswer(Fig1Instance& inst) {
  // The first record of band0 always exists; build its expected answer
  // fragment {band -> band0}.
  Mapping m;
  m.Bind(inst.ctx.vocab().Variable("band").variable_id(),
         inst.ctx.vocab().Constant("band0").constant_id());
  return m;
}

void BM_Fig1_Enumerate(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    Result<std::vector<Mapping>> result =
        EvaluateWdptProjected(inst.tree, inst.db);
    WDPT_CHECK(result.ok());
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Fig1_Enumerate)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Fig1_EnumerateMaximal(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    Result<std::vector<Mapping>> result =
        EvaluateWdptMaximal(inst.tree, inst.db);
    WDPT_CHECK(result.ok());
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Fig1_EnumerateMaximal)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Fig1_EvalNaive(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  Result<std::vector<Mapping>> answers =
      EvaluateWdptProjected(inst.tree, inst.db);
  WDPT_CHECK(answers.ok() && !answers->empty());
  const Mapping& h = (*answers)[answers->size() / 2];
  for (auto _ : state) {
    Result<bool> r = EvalNaive(inst.tree, inst.db, h);
    WDPT_CHECK(r.ok() && *r);
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Fig1_EvalNaive)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Fig1_EvalTractable(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  Result<std::vector<Mapping>> answers =
      EvaluateWdptProjected(inst.tree, inst.db);
  WDPT_CHECK(answers.ok() && !answers->empty());
  const Mapping& h = (*answers)[answers->size() / 2];
  for (auto _ : state) {
    Result<bool> r = EvalTractable(inst.tree, inst.db, h);
    WDPT_CHECK(r.ok() && *r);
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Fig1_EvalTractable)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Fig1_PartialEval(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  Mapping h = SampleAnswer(inst);
  for (auto _ : state) {
    Result<bool> r = PartialEval(inst.tree, inst.db, h);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Fig1_PartialEval)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Fig1_MaxEval(benchmark::State& state) {
  Fig1Instance inst(static_cast<uint32_t>(state.range(0)));
  Result<std::vector<Mapping>> answers =
      EvaluateWdptProjected(inst.tree, inst.db);
  WDPT_CHECK(answers.ok() && !answers->empty());
  const Mapping& h = answers->front();
  for (auto _ : state) {
    Result<bool> r = MaxEval(inst.tree, inst.db, h);
    WDPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.TotalFacts());
}
BENCHMARK(BM_Fig1_MaxEval)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

}  // namespace
}  // namespace wdpt::bench

BENCHMARK_MAIN();
