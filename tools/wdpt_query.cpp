// wdpt_query: command-line evaluation of {AND, OPT} queries over triple
// data, driven by the wdpt::Engine.
//
// Usage:
//   wdpt_query --data FILE --query 'QUERY' [--mode eval|partial|max]
//              [--maximal] [--candidate '?x=a ?y=b'] [--classify]
//              [--limit N] [--deadline-ms N] [--stats]
//
// The data file holds whitespace-separated triples (one per line, '#'
// comments). The query uses the paper's algebraic notation, e.g.
//   'SELECT ?y WHERE ((?x, recorded_by, ?y) OPT (?x, NME_rating, ?r))'
//
// Prints one answer mapping per line; --mode max (or the --maximal
// alias) switches to the maximal-mapping semantics p_m(D); --candidate
// turns the request into a membership check of the given mapping under
// the selected semantics (mode partial = PARTIAL-EVAL); --classify
// prints the engine plan and tractability classification instead of
// evaluating; --deadline-ms bounds the evaluation wall time; --stats
// dumps the engine's counters and timers as JSON to stderr after the
// run.
//
// Request interpretation (flags -> tree + engine options) is shared
// with the query server via sparql::CompileRequest, so the CLI and the
// wire protocol cannot drift.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/engine/engine.h"
#include "src/relational/rdf.h"
#include "src/sparql/data_loader.h"
#include "src/sparql/request.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --data FILE --query 'QUERY' "
               "[--mode eval|partial|max] [--maximal] "
               "[--candidate '?x=a ?y=b'] [--classify] [--limit N] "
               "[--deadline-ms N] [--stats]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wdpt;
  std::string data_path;
  sparql::QueryRequest request;
  bool classify = false;
  bool show_stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--data" && i + 1 < argc) {
      data_path = argv[++i];
    } else if (arg == "--query" && i + 1 < argc) {
      request.query = argv[++i];
    } else if (arg == "--mode" && i + 1 < argc) {
      Result<sparql::RequestMode> mode = sparql::ParseRequestMode(argv[++i]);
      if (!mode.ok()) {
        std::fprintf(stderr, "error: %s\n", mode.status().ToString().c_str());
        return 2;
      }
      request.mode = *mode;
    } else if (arg == "--maximal") {
      request.mode = sparql::RequestMode::kMax;
    } else if (arg == "--candidate" && i + 1 < argc) {
      request.candidate = argv[++i];
    } else if (arg == "--classify") {
      classify = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--limit" && i + 1 < argc) {
      request.max_results = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      request.deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  if (data_path.empty() || request.query.empty()) return Usage(argv[0]);

  std::ifstream file(data_path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", data_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  Status loaded = sparql::LoadTriples(buffer.str(), &ctx, &db);
  if (!loaded.ok()) {
    std::fprintf(stderr, "data error: %s\n", loaded.ToString().c_str());
    return 1;
  }

  Result<sparql::CompiledRequest> compiled =
      sparql::CompileRequest(request, &ctx);
  if (!compiled.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }

  // One pool thread, as in the server: the pool only serves EvalBatch,
  // which a single request never calls.
  Engine engine(EngineOptions{1, 128});
  auto dump_stats = [&] {
    if (show_stats) {
      std::fprintf(stderr, "%s\n", engine.stats().ToJson().c_str());
    }
  };

  if (classify) {
    for (int k = 1; k <= 3; ++k) {
      Result<std::shared_ptr<const Plan>> plan = engine.GetPlan(
          compiled->tree, PlanOptions{k, EvalAlgorithm::kAuto});
      if (!plan.ok()) {
        std::fprintf(stderr, "classification error: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      const WdptClassification& cls = (*plan)->classification();
      std::printf(
          "k=%d: locally-TW(k)=%s globally-TW(k)=%s interface=%d "
          "projection-free=%s algorithm=%s\n",
          k, cls.locally_tw_k ? "yes" : "no",
          cls.globally_tw_k ? "yes" : "no", cls.interface_width,
          cls.projection_free ? "yes" : "no",
          EvalAlgorithmName((*plan)->algorithm()));
    }
    dump_stats();
    return 0;
  }

  if (compiled->check) {
    Result<bool> verdict =
        engine.Eval(compiled->tree, db, compiled->candidate, compiled->options);
    if (!verdict.ok()) {
      std::fprintf(stderr, "evaluation error: %s\n",
                   verdict.status().ToString().c_str());
      dump_stats();
      return 1;
    }
    std::printf("%s\n", *verdict ? "true" : "false");
    std::fprintf(stderr, "candidate %s under %s semantics\n",
                 *verdict ? "accepted" : "rejected",
                 sparql::RequestModeName(request.mode));
    dump_stats();
    return 0;
  }

  Result<std::vector<Mapping>> answers =
      engine.Enumerate(compiled->tree, db, compiled->options);
  if (!answers.ok()) {
    std::fprintf(stderr, "evaluation error: %s\n",
                 answers.status().ToString().c_str());
    dump_stats();
    return 1;
  }
  size_t shown = 0;
  for (const Mapping& m : *answers) {
    if (compiled->max_results != 0 && shown >= compiled->max_results) break;
    ++shown;
    std::printf("%s\n", m.ToString(ctx.vocab()).c_str());
  }
  std::fprintf(stderr, "%zu answer(s) under %s semantics\n", answers->size(),
               request.mode == sparql::RequestMode::kMax ? "maximal-mapping"
                                                         : "standard");
  dump_stats();
  return 0;
}
