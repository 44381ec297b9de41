#include "src/server/exec.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace wdpt::server {

namespace {

using Clock = std::chrono::steady_clock;

std::string PerRequestStatsJson(const Response& response,
                                const sparql::QueryRequest& request,
                                uint64_t wall_ns, uint64_t version,
                                const Trace& trace) {
  std::string json = "{\"status\":\"";
  json += StatusCodeName(response.code);
  json += "\",\"mode\":\"";
  json += sparql::RequestModeName(request.mode);
  json += "\",\"rows\":";
  json += std::to_string(response.rows.size());
  json += ",\"truncated\":";
  json += response.truncated ? "true" : "false";
  json += ",\"wall_ns\":";
  json += std::to_string(wall_ns);
  json += ",\"snapshot_version\":";
  json += std::to_string(version);
  json += ",\"request_id\":";
  json += std::to_string(trace.request_id());
  json += ",\"class\":\"";
  json += TractabilityClassName(trace.classification());
  json += "\",\"cache\":\"";
  json += CacheOutcomeName(trace.cache_outcome());
  json += "\",\"queue_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kQueueWait));
  json += ",\"parse_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kParse));
  json += ",\"plan_lookup_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kPlanLookup));
  json += ",\"plan_build_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kPlanBuild));
  json += ",\"cache_lookup_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kCacheLookup));
  json += ",\"eval_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kEval));
  json += ",\"serialize_ns\":";
  json += std::to_string(trace.span_ns(TraceStage::kSerialize));
  json += "}";
  return json;
}

}  // namespace

Response ExecuteQuery(Engine* engine, const Snapshot& snapshot,
                      const sparql::QueryRequest& request,
                      const CancelToken& cancel, Trace* trace) {
  Clock::time_point start = Clock::now();
  Response response;
  // Stats JSON always reports the staged breakdown, even for direct
  // callers (tests, loadgen's expected-bytes path) that pass no trace.
  Trace local_trace;
  if (trace == nullptr) trace = &local_trace;
  trace->set_mode(sparql::RequestModeName(request.mode));

  // Effective token: the caller's, with the request deadline stacked on
  // a child so the caller's token is never mutated.
  CancelToken token = cancel;
  if (request.deadline_ms != 0) {
    token = CancelToken::Child(cancel);
    token.SetDeadline(Clock::now() +
                      std::chrono::milliseconds(request.deadline_ms));
  }

  // Parsing interns symbols, so it runs against a layer over the
  // snapshot's vocabulary, which it only reads: symbols the snapshot
  // lacks get fresh ids in the layer and match no stored fact.
  RdfContext ctx(&snapshot.ctx);
  sparql::QueryRequest local = request;
  local.deadline_ms = 0;  // The token above already carries it.
  Result<sparql::CompiledRequest> compiled = [&] {
    Trace::Span span(trace, TraceStage::kParse);
    return sparql::CompileRequest(local, &ctx);
  }();
  if (!compiled.ok()) {
    response.code = compiled.status().code();
    response.message = compiled.status().ToString();
  } else if (compiled->check) {
    CallOptions options = compiled->options;
    options.cancel = token;
    options.trace = trace;
    // The snapshot version is the answer-cache generation: a RELOAD
    // bumps it, so entries from older snapshots can never be served.
    options.cache.generation = snapshot.version;
    Result<bool> verdict =
        engine->Eval(compiled->tree, snapshot.db, compiled->candidate,
                     options);
    if (verdict.ok()) {
      Trace::Span span(trace, TraceStage::kSerialize);
      response.rows.push_back(*verdict ? "true" : "false");
    } else {
      response.code = verdict.status().code();
      response.message = verdict.status().ToString();
    }
  } else {
    CallOptions options = compiled->options;
    options.cancel = token;
    options.trace = trace;
    options.cache.generation = snapshot.version;
    Result<std::vector<Mapping>> answers =
        engine->Enumerate(compiled->tree, snapshot.db, options);
    if (answers.ok()) {
      Trace::Span span(trace, TraceStage::kSerialize);
      // Under a cap the engine returns at most max_results + 1 rows, and
      // the extra one is what sets `truncated`.
      size_t keep = answers->size();
      if (compiled->max_results != 0 && keep > compiled->max_results) {
        keep = compiled->max_results;
        response.truncated = true;
      }
      response.rows.reserve(keep);
      for (size_t i = 0; i < keep; ++i) {
        response.rows.push_back((*answers)[i].ToString(ctx.vocab()));
      }
    } else {
      response.code = answers.status().code();
      response.message = answers.status().ToString();
    }
  }

  response.cached = trace->cache_outcome() == CacheOutcome::kHit;
  uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  response.stats_json = PerRequestStatsJson(response, request, wall_ns,
                                            snapshot.version, *trace);
  return response;
}

}  // namespace wdpt::server
