// Wire protocol: frame payload encoding for requests and responses.
//
// Payloads are text, structured like a minimal HTTP message so they are
// debuggable with a hex dump:
//
//   request  := "WDPT/1 " command "\n" headers "\n" body
//   response := "WDPT/1 " status-code-name "\n" headers "\n" body
//   headers  := (key ": " value "\n")*
//
// Commands: QUERY (body = {AND, OPT} algebra text; headers mode,
// deadline-ms, max-results, candidate, cache-control), STATS, PING,
// RELOAD (body = triples text replacing the live snapshot), METRICS
// (Prometheus text exposition, one line per response row), INGEST
// (body = `add s p o` / `remove s p o` lines, one atomic durable
// batch; requires a storage-backed server), CHECKPOINT (compacts the
// WAL into a fresh snapshot file, no body). Response
// bodies carry `rows` answer lines; headers carry the row count,
// truncation flag, retry-after-ms (with status "overloaded"), a human
// message, a `cached` flag (the answer came from the server's answer
// cache), and a single-line per-request `stats` JSON object. Unknown
// headers are ignored on both sides, so fields can be added without a
// version bump.
//
// Replication (docs/REPLICATION.md) adds three commands. SUBSCRIBE
// (headers epoch, offset) asks a primary to stream committed WAL
// batches from a position; the ack carries the position granted plus
// head-seq, and the primary then *pushes* WALSEG frames — encoded as
// request frames since they travel server→client — whose headers
// (epoch, offset, next-offset, seq, head-seq) locate the batch and
// whose body is ingest text (`add s p o` lines). SNAPSHOT-FETCH
// returns the primary's latest binary snapshot file verbatim in the
// response `body` (raw bytes after the rows, length declared by the
// `body-bytes` header — binary-safe because the parser slices by
// count, never by newline). Responses may also carry `epoch` (the
// snapshot's WAL epoch) and `primary` (host:port, with status
// "redirect" from a replica shedding a write).
//
// See docs/SERVER.md for the full schema and examples.

#ifndef WDPT_SRC_SERVER_PROTOCOL_H_
#define WDPT_SRC_SERVER_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sparql/request.h"

namespace wdpt::server {

enum class Command {
  kQuery,       ///< Evaluate a query against the live snapshot.
  kStats,       ///< Engine + server counters as JSON.
  kPing,        ///< Liveness / round-trip probe.
  kReload,      ///< Swap in a new snapshot parsed from the body.
  kMetrics,     ///< Prometheus text exposition (histograms included).
  kIngest,      ///< Durably apply a batch of add/remove triples.
  kCheckpoint,  ///< Compact the WAL into a fresh snapshot file.
  kSubscribe,     ///< Start streaming WAL batches from (epoch, offset).
  kWalSeg,        ///< One pushed WAL batch (primary→replica only).
  kSnapshotFetch, ///< Fetch the latest binary snapshot for bootstrap.
};

const char* CommandName(Command command);

/// One client request frame, decoded.
struct Request {
  Command command = Command::kPing;
  /// Query text and options; used by kQuery only.
  sparql::QueryRequest query;
  /// Raw body for kReload (triples text) / kIngest / kWalSeg (ingest
  /// text: the batch's ops).
  std::string body;
  /// Replication position fields (kSubscribe, kWalSeg). The epoch is
  /// the primary's snapshot sequence; offset/next_offset are byte
  /// offsets into that epoch's WAL. seq numbers the batch within the
  /// epoch and head_seq is the primary's newest batch at send time —
  /// the pair is what a replica derives its lag from. A WALSEG with an
  /// empty body is a heartbeat: same position, fresh head_seq.
  uint64_t epoch = 0;
  uint64_t offset = 0;
  uint64_t next_offset = 0;
  uint64_t seq = 0;
  uint64_t head_seq = 0;
};

/// One server response frame, decoded.
struct Response {
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// Rendered answer mappings (one per line on the wire); a membership
  /// check returns the single row "true" or "false".
  std::vector<std::string> rows;
  /// True when `rows` was capped by max-results.
  bool truncated = false;
  /// True when the answer was served from the server's answer cache
  /// (wire header `cached: 1`; cached answers are bit-identical to a
  /// fresh evaluation against the same snapshot).
  bool cached = false;
  /// Suggested client backoff; set with kOverloaded.
  uint64_t retry_after_ms = 0;
  /// Single-line JSON: per-request stats for QUERY, aggregate engine +
  /// server counters for STATS.
  std::string stats_json;
  /// Raw binary payload (SNAPSHOT-FETCH: the snapshot file bytes).
  /// Serialized after the rows with its length in the `body-bytes`
  /// header, so arbitrary bytes — newlines and NULs included — survive
  /// the text framing.
  std::string body;
  /// WAL epoch of the shipped state (SUBSCRIBE ack, SNAPSHOT-FETCH).
  uint64_t epoch = 0;
  /// Newest batch seq at the primary (SUBSCRIBE ack).
  uint64_t head_seq = 0;
  /// The primary's host:port; sent with status "redirect" when a
  /// replica sheds a write.
  std::string primary;

  bool ok() const { return code == StatusCode::kOk; }
};

std::string SerializeRequest(const Request& request);
/// Parses a request payload. The numeric headers (deadline-ms,
/// max-results, epoch, offset, next-offset, seq, head-seq) must be a
/// nonempty run of ASCII digits that fits in a uint64; any other value,
/// like an unknown mode, is kInvalidArgument naming the header.
Result<Request> ParseRequest(std::string_view payload);

std::string SerializeResponse(const Response& response);
Result<Response> ParseResponse(std::string_view payload);

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_PROTOCOL_H_
