// Shared query-request compilation for the CLI and the query server.
//
// A QueryRequest is the transport-agnostic form of "run this query":
// the {AND, OPT} algebra text plus evaluation options, exactly as they
// arrive from `wdpt_query` flags or from a server protocol frame.
// CompileRequest turns it into a validated PatternTree plus ready-to-use
// Engine options. Both front ends go through this one function so their
// interpretation of a request cannot drift.

#ifndef WDPT_SRC_SPARQL_REQUEST_H_
#define WDPT_SRC_SPARQL_REQUEST_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/engine/engine.h"
#include "src/relational/mapping.h"
#include "src/relational/rdf.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt::sparql {

/// Which answer relation the request targets. Enumeration supports kEval
/// (p(D)) and kMax (p_m(D)); kPartial only makes sense for membership
/// checks of a candidate mapping and is rejected otherwise.
enum class RequestMode {
  kEval,     ///< Standard answers p(D).
  kPartial,  ///< Partial-answer membership (candidate required).
  kMax,      ///< Maximal-mapping answers p_m(D).
};

/// Parses "eval" / "partial" / "max" (the wire and CLI spelling).
Result<RequestMode> ParseRequestMode(std::string_view name);

/// Inverse of ParseRequestMode.
const char* RequestModeName(RequestMode mode);

/// A query request as it arrives from CLI flags or the wire.
struct QueryRequest {
  /// Query text in the {AND, OPT} algebra of src/sparql/parser.h.
  std::string query;
  RequestMode mode = RequestMode::kEval;
  /// Wall-clock budget for the whole request; 0 = none.
  uint64_t deadline_ms = 0;
  /// Cap on returned answer rows (0 = unlimited). Truncation is
  /// reported, never silent: an enumeration compiles to
  /// `first_rows = max_results + 1`, and the extra row says whether
  /// more exist.
  uint64_t max_results = 0;
  /// Optional membership candidate, "?x=a ?y=b". When set the request is
  /// a membership check of this mapping (EVAL / PARTIAL-EVAL / MAX-EVAL
  /// by `mode`) instead of answer enumeration.
  std::string candidate;
  /// Skip the server's answer cache for this request (wire header
  /// `cache-control: bypass`); the response is computed fresh and not
  /// inserted.
  bool cache_bypass = false;
};

/// A request compiled against a context: validated tree + engine options.
struct CompiledRequest {
  PatternTree tree;
  /// True: membership check of `candidate` via Engine::Eval.
  /// False: answer enumeration via Engine::Enumerate.
  bool check = false;
  Mapping candidate;
  /// Unified per-call options for either entry point (semantics,
  /// deadline, cache policy, and for an enumeration with a cap,
  /// `first_rows = max_results + 1`; the executor stamps
  /// `cache.generation` with the snapshot version).
  CallOptions options;
  /// Rows to show: the caller keeps the first max_results rows, and a
  /// further row means the answer was truncated.
  uint64_t max_results = 0;
};

/// Parses "?x=c1 ?y=c2" (whitespace-separated bindings) into a mapping
/// over `ctx`'s vocabulary.
Result<Mapping> ParseCandidate(std::string_view text, RdfContext* ctx);

/// Parses and validates the request against `ctx`. Rejects kPartial
/// without a candidate (enumerating the downward closure of p(D) is not
/// supported) with kInvalidArgument.
Result<CompiledRequest> CompileRequest(const QueryRequest& request,
                                       RdfContext* ctx);

}  // namespace wdpt::sparql

#endif  // WDPT_SRC_SPARQL_REQUEST_H_
