// bench_kernel: join-kernel microbenchmarks and full-query timings on
// the Table 1 workloads.
//
// Usage:
//   bench_kernel [--db-vertices N] [--reps N] [--check] [--json FILE]
//
// Three groups of series:
//   * csr_probe: Relation::RowsMatching throughput on the warmed CSR
//     index of a random graph relation (million probes/second).
//   * semijoin: the semijoin inner loop in isolation — build a key set
//     from 1M binary tuples, then stream 4M membership probes through
//     it, once with a node-based std::unordered_set and once with the
//     arena-backed FlatTupleSet. Million probes/second each.
//   * eval_*: full-query wall time, median over --reps runs — the
//     Table 1 EVAL / MAX-EVAL tractable sweeps and an acyclic-CQ
//     evaluation.
//
// --check additionally compares the decomposition (bag) kernel with the
// backtracking homomorphism search, two evaluators that share no join
// code, and fails (exit 1) on any divergence: the acyclic CQ's answer
// set, and the Eval verdicts of sampled candidates under all three
// semantics. That makes the binary usable as a differential gate
// (tools/run_tier1.sh runs it this way in its perf-smoke step).
//
// --json writes BENCH_kernel.json (the bench_kernel_json target
// captures it); tools/bench_compare.py diffs two such files.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/arena.h"
#include "src/common/flat_table.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/cq/evaluation.h"
#include "src/engine/engine.h"
#include "src/gen/cq_gen.h"
#include "src/relational/mapping.h"
#include "src/wdpt/enumerate.h"

namespace {

using namespace wdpt;
using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - start)
                 .count()) /
         1e6;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Canonical form of an answer set: sorted textual renderings, so the
// two evaluators' outputs compare independent of enumeration order.
std::vector<std::string> Canonical(const std::vector<Mapping>& answers) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const Mapping& m : answers) {
    std::string row;
    for (const auto& [v, c] : m.entries()) {
      row += std::to_string(v) + "=" + std::to_string(c) + ";";
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// One timed series: the median wall time of `reps` runs of `work`.
struct Series {
  std::string name;
  double ms = 0;
};

template <typename Fn>
Series RunSeries(const std::string& name, int reps, Fn work) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Clock::time_point t0 = Clock::now();
    work();
    samples.push_back(ElapsedMs(t0));
  }
  Series s{name, Median(std::move(samples))};
  std::fprintf(stderr, "%-28s %9.3fms\n", s.name.c_str(), s.ms);
  return s;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--db-vertices N] [--reps N] [--check] "
               "[--json FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t db_vertices = 6400;
  int reps = 3;
  bool check = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--db-vertices" && i + 1 < argc) {
      db_vertices =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  // Shared instances (Table 1 workloads; see bench/bench_util.h).
  bench::TractableInstance tractable(db_vertices, uint64_t{3} * db_vertices,
                                     /*depth=*/2, /*branching=*/2,
                                     /*seed=*/11);
  Mapping answer = bench::FirstAnswer(tractable.tree, tractable.db);

  // An acyclic path CQ over the same random graph, with the endpoints
  // free: exercises the decomposition kernel (EvaluateOverBags) end to
  // end — bag joins, both semijoin sweeps, and answer enumeration.
  ConjunctiveQuery chain_cq =
      gen::MakePathCq(&tractable.schema, &tractable.vocab, /*len=*/4);
  chain_cq.free_vars = {chain_cq.atoms.front().terms[0].variable_id(),
                        chain_cq.atoms.back().terms[1].variable_id()};
  chain_cq.Normalize();

  // --- csr_probe: index probe throughput -------------------------------
  RelationId edge_id = tractable.schema.Find("E");
  WDPT_CHECK(edge_id != Schema::kNotFound);
  const Relation& edge_rel = tractable.db.relation(edge_id);
  tractable.db.WarmColumnIndexes();
  double probe_mops = 0;
  {
    // Sample constants that actually occur, so probes hit real posting
    // lists rather than binary-searching past the value range.
    std::vector<ConstantId> sample(4096);
    for (size_t i = 0; i < sample.size(); ++i) {
      sample[i] = edge_rel.Tuple((i * 97) % edge_rel.size())[i & 1];
    }
    uint64_t hits = 0;
    const uint64_t kProbes = 2'000'000;
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kProbes; ++i) {
      hits += edge_rel
                  .RowsMatching(static_cast<uint32_t>(i & 1),
                                sample[i % sample.size()])
                  .size();
    }
    double ms = ElapsedMs(t0);
    if (hits == 0) std::fprintf(stderr, "warning: no probe hits\n");
    probe_mops = ms > 0 ? static_cast<double>(kProbes) / ms / 1e3 : 0;
    std::fprintf(stderr, "%-28s %.2f Mprobes/s (%llu rows touched)\n",
                 "csr_probe", probe_mops,
                 static_cast<unsigned long long>(hits));
  }

  // --- semijoin: membership-probe rate in isolation --------------------
  // The semijoin inner loop is "pack the join-key columns, test set
  // membership". Time that loop over the same data with the legacy
  // structure (unordered_set of packed keys) and with FlatTupleSet.
  double semijoin_legacy_mps = 0, semijoin_flat_mps = 0;
  {
    const uint32_t kBuild = 1'000'000;
    const uint64_t kProbe = 4'000'000;
    std::vector<ConstantId> tuples(2 * kBuild);
    uint64_t state = 0x9E3779B97F4A7C15ull;
    for (ConstantId& c : tuples) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<ConstantId>((state >> 33) % (kBuild / 2));
    }
    auto pack = [](ConstantId a, ConstantId b) {
      return (static_cast<uint64_t>(a) << 32) | b;
    };
    uint64_t legacy_hits = 0, flat_hits = 0;
    {
      std::unordered_set<uint64_t> set;
      set.reserve(kBuild);
      for (uint32_t i = 0; i < kBuild; ++i) {
        set.insert(pack(tuples[2 * i], tuples[2 * i + 1]));
      }
      Clock::time_point t0 = Clock::now();
      for (uint64_t i = 0; i < kProbe; ++i) {
        uint32_t j = static_cast<uint32_t>((i * 2654435761u) % kBuild);
        legacy_hits += set.count(pack(tuples[2 * j] ^ (i & 1),
                                      tuples[2 * j + 1]));
      }
      double ms = ElapsedMs(t0);
      semijoin_legacy_mps = ms > 0 ? static_cast<double>(kProbe) / ms / 1e3 : 0;
    }
    {
      Arena arena;
      FlatTupleSet set;
      set.Init(/*arity=*/2, &arena);
      for (uint32_t i = 0; i < kBuild; ++i) {
        set.InsertOrFind(&tuples[2 * i]);
      }
      std::array<ConstantId, 2> probe;
      Clock::time_point t0 = Clock::now();
      for (uint64_t i = 0; i < kProbe; ++i) {
        uint32_t j = static_cast<uint32_t>((i * 2654435761u) % kBuild);
        probe[0] = tuples[2 * j] ^ static_cast<ConstantId>(i & 1);
        probe[1] = tuples[2 * j + 1];
        flat_hits += set.Find(probe.data()) != FlatTupleSet::kNoId ? 1 : 0;
      }
      double ms = ElapsedMs(t0);
      semijoin_flat_mps = ms > 0 ? static_cast<double>(kProbe) / ms / 1e3 : 0;
    }
    WDPT_CHECK(legacy_hits == flat_hits);
    std::fprintf(stderr, "%-28s legacy=%.1f flat=%.1f Mprobes/s\n",
                 "semijoin_probe", semijoin_legacy_mps, semijoin_flat_mps);
  }

  // --- full-query timings ---------------------------------------------
  std::vector<Series> series;

  {
    Engine engine;
    CallOptions opts;
    opts.algorithm = EvalAlgorithm::kTractableDP;
    series.push_back(RunSeries("eval_tractable_db", reps, [&] {
      Result<bool> r = engine.Eval(tractable.tree, tractable.db, answer, opts);
      WDPT_CHECK(r.ok());
    }));
  }
  {
    Engine engine;
    CallOptions opts;
    opts.semantics = EvalSemantics::kMaximal;
    series.push_back(RunSeries("maxeval_db", reps, [&] {
      Result<bool> r = engine.Eval(tractable.tree, tractable.db, answer, opts);
      WDPT_CHECK(r.ok());
    }));
  }
  series.push_back(RunSeries("acyclic_cq_eval", reps, [&] {
    std::optional<std::vector<Mapping>> r =
        EvaluateAcyclic(chain_cq, tractable.db);
    WDPT_CHECK(r.has_value());
  }));

  // --- differential check ----------------------------------------------
  // Runs on a small instance: the WDPT check enumerates *all* maximal
  // homomorphisms, which is combinatorial on the timing-sized database.
  int check_failures = 0;
  if (check) {
    bench::TractableInstance small(400, 1200, /*depth=*/2, /*branching=*/2,
                                   /*seed=*/11);
    ConjunctiveQuery small_cq =
        gen::MakePathCq(&small.schema, &small.vocab, /*len=*/4);
    small_cq.free_vars = {small_cq.atoms.front().terms[0].variable_id(),
                          small_cq.atoms.back().terms[1].variable_id()};
    small_cq.Normalize();
    CqEvalOptions backtracking;
    backtracking.strategy = CqEvalStrategy::kBacktracking;
    std::optional<std::vector<Mapping>> bags_cq =
        EvaluateAcyclic(small_cq, small.db);
    std::vector<Mapping> reference_cq =
        EvaluateCq(small_cq, small.db, backtracking);
    WDPT_CHECK(bags_cq.has_value());
    if (Canonical(*bags_cq) != Canonical(reference_cq)) {
      std::fprintf(stderr, "CHECK FAILED: acyclic CQ answer sets differ\n");
      ++check_failures;
    }

    // WDPT side: p(D) on these random instances is combinatorially huge,
    // so the differential is a bounded membership sweep — sample answers
    // from an early-stopped enumeration, add perturbed (likely-negative)
    // variants, and require identical Eval verdicts from both CQ
    // strategies under all three semantics.
    std::vector<Mapping> candidates;
    Status enum_status = ForEachMaximalHomomorphism(
        small.tree, small.db, [&](const Mapping& m) {
          candidates.push_back(m.RestrictTo(small.tree.free_vars()));
          return candidates.size() < 100;
        });
    (void)enum_status;  // An early stop reports ok; a cap abort is fine too.
    size_t num_positive = candidates.size();
    for (size_t i = 0; i + 1 < num_positive; i += 2) {
      // Cross two answers' bindings: usually not an answer any more.
      std::vector<Mapping::Entry> entries;
      const auto& a = candidates[i].entries();
      const auto& b = candidates[i + 1].entries();
      for (size_t k = 0; k < a.size(); ++k) {
        entries.emplace_back(a[k].first, (k & 1) ? b[k].second : a[k].second);
      }
      candidates.push_back(Mapping(std::move(entries)));
    }
    uint64_t verdict_mismatches = 0;
    for (EvalSemantics semantics :
         {EvalSemantics::kStandard, EvalSemantics::kPartial,
          EvalSemantics::kMaximal}) {
      Engine bags_engine, reference_engine;
      CallOptions bags_opts, reference_opts;
      bags_opts.semantics = reference_opts.semantics = semantics;
      bags_opts.cq.strategy = CqEvalStrategy::kDecomposition;
      reference_opts.cq.strategy = CqEvalStrategy::kBacktracking;
      for (const Mapping& h : candidates) {
        Result<bool> bv = bags_engine.Eval(small.tree, small.db, h, bags_opts);
        Result<bool> rv =
            reference_engine.Eval(small.tree, small.db, h, reference_opts);
        WDPT_CHECK(bv.ok() && rv.ok());
        if (*bv != *rv) ++verdict_mismatches;
      }
    }
    if (verdict_mismatches != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: %llu WDPT Eval verdicts differ between "
                   "CQ strategies\n",
                   static_cast<unsigned long long>(verdict_mismatches));
      ++check_failures;
    }
    if (check_failures == 0) {
      std::fprintf(stderr,
                   "check: evaluators agree (%zu CQ answers, %zu Eval "
                   "candidates x 3 semantics)\n",
                   reference_cq.size(), candidates.size());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"benchmark\":\"wdpt_kernel\",\"db_vertices\":" << db_vertices
        << ",\"reps\":" << reps
        << ",\"csr_probe_mops\":" << FormatDouble(probe_mops)
        << ",\"semijoin_legacy_mprobes_per_s\":"
        << FormatDouble(semijoin_legacy_mps)
        << ",\"semijoin_flat_mprobes_per_s\":"
        << FormatDouble(semijoin_flat_mps);
    for (const Series& s : series) {
      out << ",\"" << s.name << "_ms\":" << FormatDouble(s.ms);
    }
    out << "}\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return check_failures == 0 ? 0 : 1;
}
