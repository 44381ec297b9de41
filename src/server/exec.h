// The single query-execution path behind the server.
//
// ExecuteQuery is everything a QUERY request does once it has been
// admitted: compile the request through sparql::CompileRequest against
// a context layered over the snapshot's (read in place, never copied),
// run it on the engine with the effective cancellation token, and
// render the answer rows. The Server calls it from its worker pool;
// tests and wdpt_loadgen call it directly to compute the expected bytes
// a server must produce — by construction the two cannot diverge.

#ifndef WDPT_SRC_SERVER_EXEC_H_
#define WDPT_SRC_SERVER_EXEC_H_

#include "src/common/cancellation.h"
#include "src/common/trace.h"
#include "src/engine/engine.h"
#include "src/server/protocol.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"

namespace wdpt::server {

/// Runs one QUERY request against `snapshot` on `engine`. `snapshot` is
/// only read, so concurrent calls may share it; the caller keeps it
/// alive for the call (the Server holds the shared_ptr it took at
/// admission). The effective cancellation is a child of `cancel` (pass
/// the server's shutdown token, or a null token) with the request's
/// deadline_ms applied on top, so queue wait already counts against the
/// deadline when the caller created the deadline child before
/// submitting. Never throws; every failure mode is encoded in the
/// returned Response's status code.
///
/// `trace` (optional) receives the staged breakdown — parse,
/// plan-lookup, plan-build, cache-lookup, eval, serialize — plus the
/// plan's tractability class and the answer-cache outcome; a local
/// trace is used when none is supplied, so the stats JSON always
/// carries the spans. The snapshot's version is stamped into the call's
/// cache policy as the generation, and `Response::cached` reports a
/// cache hit. The response's stats header is a single-line JSON object
/// {"status", "mode", "rows", "truncated", "wall_ns",
/// "snapshot_version", "request_id", "class", "cache", "queue_ns",
/// "parse_ns", "plan_lookup_ns", "plan_build_ns", "cache_lookup_ns",
/// "eval_ns", "serialize_ns"}.
Response ExecuteQuery(Engine* engine, const Snapshot& snapshot,
                      const sparql::QueryRequest& request,
                      const CancelToken& cancel = CancelToken(),
                      Trace* trace = nullptr);

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_EXEC_H_
