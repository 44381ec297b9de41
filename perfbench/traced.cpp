// The traced run: replays a workload's operations in-process, one
// engine working at a time, and times each module's public entry points
// around the same requests the server answered.
//
// The store is replayed from the state the server started from (so
// catalog-ingest's reads see exactly the rounds' states), ingests go
// through StorageManager::Ingest with a Trace, and every read runs
// twice through server::ExecuteQuery, in alternating order: bare (the
// traced run's own end-to-end numbers) and traced, with a caller-owned
// Trace and Engine::stats() read before and after. The traced call's
// stage spans give the compile, engine and overhead split; the median
// per-request excess of the traced call over the bare one is the
// tracing overhead. Each read is then decomposed further into the
// wdpt-level evaluators the engine dispatches to. Kernel counters are
// deltas of Engine::stats() around the traced call; with one engine at
// work they belong to that call alone.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/percentile.h"
#include "src/engine/engine.h"
#include "src/server/exec.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"
#include "src/storage/storage_manager.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_tractable.h"

namespace perfbench {

namespace {

// Replayed reads per kind: enumerations are the slow kinds on
// catalog-read, and per-layer medians need only a few samples.
constexpr size_t kEnumCap = 12;
constexpr size_t kCheckCap = 60;
// Distinct query texts whose plans are built cold. catalog-ingest
// anchors each round's enumeration at another band, and a sample of
// those trees is enough for a median.
constexpr size_t kPlanBuildCap = 200;

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double P(std::vector<uint64_t> ns, double p) { return wdpt::PercentileMs(ns, p); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

uint64_t FlagValue(const std::vector<std::string>& flags, const std::string& name) {
  for (size_t i = 0; i + 1 < flags.size(); ++i) {
    if (flags[i] == name) return std::strtoull(flags[i + 1].c_str(), nullptr, 10);
  }
  return 0;
}

// Times `fn` in nanoseconds.
template <typename Fn>
uint64_t Time(Fn&& fn) {
  uint64_t t0 = NowNs();
  fn();
  return NowNs() - t0;
}

struct KernelDelta {
  std::vector<double> hom_calls, semijoin_passes, csr_probes, gallops;
  void Add(const wdpt::EngineStats& before, const wdpt::EngineStats& after) {
    hom_calls.push_back(static_cast<double>(after.homomorphism_calls -
                                            before.homomorphism_calls));
    semijoin_passes.push_back(
        static_cast<double>(after.semijoin_passes - before.semijoin_passes));
    csr_probes.push_back(static_cast<double>(after.csr_probes - before.csr_probes));
    gallops.push_back(static_cast<double>(after.gallop_intersections -
                                          before.gallop_intersections));
  }
};

// Operations in replay order: the connections' streams interleaved
// round-robin, which keeps each stream's own order.
std::vector<const Op*> ReplayOrder(const Workload& w) {
  std::vector<const Op*> order;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const std::vector<Op>& stream : w.streams) {
      if (i < stream.size()) {
        order.push_back(&stream[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return order;
}

}  // namespace

bool RunTraced(const TracedInputs& in, std::map<std::string, double>* m,
               std::string* error) {
  const Workload& w = *in.workload;
  std::map<std::string, double>& out = *m;

  // relational: the text load every text-seeded server start pays.
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    load_ms.push_back(Ms(Time([&] {
      auto snapshot = wdpt::server::LoadSnapshot(w.triples, /*version=*/1);
      if (!snapshot.ok()) *error = snapshot.status().ToString();
    })));
  }
  if (!error->empty()) return false;
  out["relational.load_ms"] = Median(load_ms);

  // storage: open the store as the server found it (a text-seeded store
  // is prepared here by the same import the server runs).
  std::string prepared = in.prepared_dir;
  if (w.wal_tail.empty()) {
    prepared = in.work_dir + "/traced_prepared";
    if (!PrepareStore(prepared, w.triples, {}, error)) return false;
  }
  wdpt::storage::StorageOptions options;
  options.dir = in.work_dir + "/traced_store";
  options.checkpoint_wal_bytes = FlagValue(w.server_flags, "--checkpoint-wal-bytes");
  std::unique_ptr<wdpt::storage::StorageManager> manager;
  std::vector<double> open_ms;
  for (int i = 0; i < 3; ++i) {
    manager.reset();
    if (!CopyDir(prepared, options.dir)) {
      *error = "cannot copy the prepared store";
      return false;
    }
    open_ms.push_back(Ms(Time([&] {
      auto opened = wdpt::storage::StorageManager::Open(options);
      if (opened.ok()) {
        manager = std::move(*opened);
      } else {
        *error = opened.status().ToString();
      }
    })));
    if (manager == nullptr) return false;
  }
  out["storage.open_ms"] = Median(open_ms);

  wdpt::EngineOptions engine_options{1, 128, FlagValue(w.server_flags, "--cache-bytes")};
  wdpt::Engine bare(engine_options);
  wdpt::Engine traced(engine_options);

  std::vector<uint64_t> ingest_ns, wal_ns, apply_ns, publish_ns;
  std::vector<uint64_t> bare_ns[kReadKindCount];
  std::vector<uint64_t> compile_ns, overhead_ns;
  std::vector<double> overhead_ratio;
  std::vector<uint64_t> engine_ns[kReadKindCount];
  std::vector<double> response_kb[3];
  std::vector<uint64_t> wdpt_enum_ns, maximality_ns, naive_ns, dp_ns, partial_ns,
      max_ns;
  std::vector<double> rows_per_returned;
  KernelDelta kernel[kReadKindCount];
  size_t replayed[kReadKindCount] = {};

  for (const Op* op : ReplayOrder(w)) {
    if (op->kind == Kind::kIngest) {
      wdpt::Trace trace;
      wdpt::Result<wdpt::storage::IngestResult> applied = wdpt::Status::Ok();
      uint64_t before = manager->stats().checkpoints;
      ingest_ns.push_back(Time([&] { applied = manager->Ingest(op->ingest, &trace); }));
      if (!applied.ok()) {
        *error = applied.status().ToString();
        return false;
      }
      wal_ns.push_back(trace.span_ns(wdpt::TraceStage::kWalAppend));
      apply_ns.push_back(trace.span_ns(wdpt::TraceStage::kApply));
      // A batch that crossed the threshold also checkpointed inside the
      // publish span; those are timed by explicit checkpoints below.
      if (manager->stats().checkpoints == before) {
        publish_ns.push_back(trace.span_ns(wdpt::TraceStage::kPublish));
      }
      continue;
    }
    int k = static_cast<int>(op->kind);
    if (replayed[k] >= (IsCheck(op->kind) ? kCheckCap : kEnumCap)) continue;
    ++replayed[k];
    std::shared_ptr<const wdpt::server::Snapshot> snap = manager->CurrentSnapshot();
    wdpt::sparql::QueryRequest request = op->call.ToRequest();

    // The bare call runs before the traced one on odd reads and after it
    // on even ones, so that cache warmth favours neither. Both responses
    // are released outside the timed region.
    bool bare_first = (replayed[k] % 2) == 1;
    auto run_bare = [&] {
      wdpt::server::Response response;
      bare_ns[k].push_back(Time(
          [&] { response = wdpt::server::ExecuteQuery(&bare, *snap, request); }));
    };
    if (bare_first) run_bare();
    wdpt::Trace trace;
    wdpt::server::Response response;
    wdpt::EngineStats before, after;
    uint64_t traced_ns = Time([&] {
      before = traced.stats();
      response = wdpt::server::ExecuteQuery(&traced, *snap, request,
                                            wdpt::CancelToken(), &trace);
      after = traced.stats();
    });
    if (!bare_first) run_bare();
    if (response.code != wdpt::StatusCode::kOk) {
      *error = response.message;
      return false;
    }
    kernel[k].Add(before, after);
    uint64_t wall_ns = 0;
    JsonUint(response.stats_json, "wall_ns", &wall_ns);
    uint64_t engine = trace.span_ns(wdpt::TraceStage::kPlanLookup) +
                      trace.span_ns(wdpt::TraceStage::kPlanBuild) +
                      trace.span_ns(wdpt::TraceStage::kCacheLookup) +
                      trace.span_ns(wdpt::TraceStage::kEval);
    engine_ns[k].push_back(engine);
    compile_ns.push_back(trace.span_ns(wdpt::TraceStage::kParse));
    overhead_ns.push_back(wall_ns > engine ? wall_ns - engine : 0);
    overhead_ratio.push_back(static_cast<double>(traced_ns) /
                                 static_cast<double>(bare_ns[k].back()) -
                             1.0);
    if (!IsCheck(op->kind)) {
      double bytes = 0;
      for (const std::string& row : response.rows) {
        bytes += static_cast<double>(row.size() + 1);
      }
      response_kb[k].push_back(bytes / 1024.0);
    }

    // The wdpt-level evaluators behind the engine call, on a fresh
    // (untimed) compilation.
    wdpt::RdfContext ctx = snap->ctx;
    auto recompiled = wdpt::sparql::CompileRequest(request, &ctx);
    if (!recompiled.ok()) {
      *error = recompiled.status().ToString();
      return false;
    }
    const wdpt::PatternTree& tree = recompiled->tree;
    const wdpt::Mapping& h = recompiled->candidate;
    switch (op->kind) {
      case Kind::kEnum:
      case Kind::kLimit:
      case Kind::kMaxEnum: {
        std::vector<wdpt::Mapping> all;
        wdpt_enum_ns.push_back(Time([&] {
          auto r = wdpt::EvaluateWdptProjected(tree, snap->db);
          if (r.ok()) all = std::move(*r);
        }));
        if (op->kind == Kind::kMaxEnum) {
          maximality_ns.push_back(Time([&] { wdpt::MaximalMappings(all); }));
        }
        if (op->kind == Kind::kLimit) {
          size_t returned = std::min<size_t>(all.size(), kLimitRows);
          rows_per_returned.push_back(
              returned ? static_cast<double>(all.size()) / returned : 0);
        }
        break;
      }
      case Kind::kEval:
        naive_ns.push_back(Time([&] { wdpt::EvalNaive(tree, snap->db, h); }));
        dp_ns.push_back(Time([&] { wdpt::EvalTractable(tree, snap->db, h); }));
        break;
      case Kind::kPartial:
        partial_ns.push_back(Time([&] { wdpt::PartialEval(tree, snap->db, h); }));
        break;
      case Kind::kMax:
        max_ns.push_back(Time([&] { wdpt::MaxEval(tree, snap->db, h); }));
        break;
      case Kind::kIngest:
        break;
    }
  }

  std::vector<double> checkpoint_ms;
  for (int i = 0; i < 3; ++i) {
    checkpoint_ms.push_back(Ms(Time([&] {
      auto done = manager->Checkpoint();
      if (!done.ok()) *error = done.status().ToString();
    })));
  }
  if (!error->empty()) return false;

  // Plan builds: every distinct tree once, on a fresh engine.
  std::vector<uint64_t> build_ns;
  {
    wdpt::Engine fresh(engine_options);
    std::set<std::string> seen;
    std::shared_ptr<const wdpt::server::Snapshot> snap = manager->CurrentSnapshot();
    for (const Op* op : ReplayOrder(w)) {
      if (op->kind == Kind::kIngest || !seen.insert(op->call.text).second) continue;
      if (seen.size() > kPlanBuildCap) break;
      wdpt::RdfContext ctx = snap->ctx;
      auto compiled = wdpt::sparql::CompileRequest(op->call.ToRequest(), &ctx);
      if (!compiled.ok()) continue;
      build_ns.push_back(Time([&] { fresh.GetPlan(compiled->tree, wdpt::PlanOptions()); }));
    }
  }

  const char* kinds[] = {"enum", "maxenum", "limit", "check_eval", "check_partial",
                         "check_max"};
  for (int k = 0; k < kReadKindCount; ++k) {
    out[std::string("traced.") + kinds[k] + "_p50_ms"] = P(bare_ns[k], 0.5);
    out[std::string("cq.hom_calls.") + kinds[k]] = Mean(kernel[k].hom_calls);
    out[std::string("cq.semijoin_passes.") + kinds[k]] = Mean(kernel[k].semijoin_passes);
    out[std::string("relational.csr_probes.") + kinds[k]] = Mean(kernel[k].csr_probes);
    out[std::string("relational.gallop_intersections.") + kinds[k]] =
        Mean(kernel[k].gallops);
  }
  for (int k = 0; k < 3; ++k) {
    out[std::string("server.") + kinds[k] + "_response_kb"] = Mean(response_kb[k]);
  }
  out["server.exec_overhead_ms"] = P(overhead_ns, 0.5);
  out["trace.overhead_pct"] = 100.0 * Median(overhead_ratio);
  out["sparql.compile_us"] = P(compile_ns, 0.5) * 1e3;
  out["engine.plan_build_us"] = P(build_ns, 0.5) * 1e3;
  out["engine.enumerate_ms"] = P(engine_ns[static_cast<int>(Kind::kEnum)], 0.5);
  out["engine.maxenumerate_ms"] = P(engine_ns[static_cast<int>(Kind::kMaxEnum)], 0.5);
  out["engine.eval_ms"] = P(engine_ns[static_cast<int>(Kind::kEval)], 0.5);
  out["engine.partial_ms"] = P(engine_ns[static_cast<int>(Kind::kPartial)], 0.5);
  out["engine.max_ms"] = P(engine_ns[static_cast<int>(Kind::kMax)], 0.5);
  out["wdpt.enumerate_ms"] = P(wdpt_enum_ns, 0.5);
  out["wdpt.maximality_ms"] = P(maximality_ns, 0.5);
  out["wdpt.limit_rows_per_returned"] = Mean(rows_per_returned);
  out["wdpt.eval_naive_us"] = P(naive_ns, 0.5) * 1e3;
  out["wdpt.eval_dp_ms"] = P(dp_ns, 0.5);
  out["wdpt.partial_eval_ms"] = P(partial_ns, 0.5);
  out["wdpt.max_eval_ms"] = P(max_ns, 0.5);
  uint64_t answers = 0, maximal = 0;
  for (size_t i = 0; i < w.sizes.answers.size(); ++i) {
    answers += w.sizes.answers[i];
    maximal += w.sizes.maximal_answers[i];
  }
  out["wdpt.answers"] = static_cast<double>(answers);
  out["wdpt.maximal_answers"] = static_cast<double>(maximal);
  out["common.arena_bytes_peak"] = static_cast<double>(traced.stats().arena_bytes_peak);
  out["storage.ingest_p50_ms"] = P(ingest_ns, 0.5);
  out["storage.ingest_p90_ms"] = P(ingest_ns, 0.9);
  out["storage.wal_append_ms"] = P(wal_ns, 0.5);
  out["storage.apply_ms"] = P(apply_ns, 0.5);
  out["storage.publish_ms"] = P(publish_ns, 0.5);
  out["storage.checkpoint_ms"] = Median(checkpoint_ms);
  manager.reset();
  RemoveDir(options.dir);
  return true;
}

}  // namespace perfbench
