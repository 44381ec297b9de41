// Server observability: request counters, per-stage latency histograms,
// and the Prometheus text exposition behind the METRICS command.
//
// RequestMetrics is the serving-side sink for per-request Traces
// (src/common/trace.h): every finished QUERY folds its stage spans
// into two histogram families — keyed by request mode (eval / partial /
// max) and by the plan's tractability class (l-tractable / g-tractable
// / intractable) — so tail latency can be attributed to a pipeline
// stage and to query structure without per-request logging. Recording
// is wait-free (relaxed atomics, see LatencyHistogram); rendering walks
// snapshots and never blocks a request.

#ifndef WDPT_SRC_SERVER_METRICS_H_
#define WDPT_SRC_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/engine/stats.h"
#include "src/replication/stats.h"
#include "src/sparql/request.h"
#include "src/storage/stats.h"

namespace wdpt::server {

/// Monotonic counters exposed via the STATS command.
struct ServerCounters {
  uint64_t connections = 0;
  uint64_t requests = 0;         ///< Frames successfully parsed.
  uint64_t protocol_errors = 0;  ///< Frames rejected before dispatch.
  uint64_t queries = 0;
  uint64_t admitted = 0;
  uint64_t rejected_overload = 0;
  uint64_t reloads = 0;
  uint64_t ingests = 0;      ///< INGEST batches durably applied.
  uint64_t checkpoints = 0;  ///< CHECKPOINT compactions completed.
  uint64_t idle_timeouts = 0;  ///< Sessions closed by the idle timeout.
  /// Work requests that finished (response fully written) during a
  /// drain window — the graceful-shutdown acceptance signal.
  uint64_t drained_requests = 0;
  /// New work arrivals answered kOverloaded + retry hint while draining.
  uint64_t drain_rejections = 0;

  std::string ToJson() const;
};

/// Cardinality of sparql::RequestMode (eval / partial / max).
inline constexpr size_t kRequestModeCount = 3;
/// Cardinality of StatusCode (kOk .. kRedirect).
inline constexpr size_t kStatusCodeCount = 11;

/// Aggregates per-request traces into label-keyed latency histograms.
/// Thread-safe; recording is wait-free.
class RequestMetrics {
 public:
  /// Folds one finished QUERY's trace into the histograms. Records all
  /// stages — zero-length spans land in the first bucket — so every
  /// stage histogram's count equals the number of queries served, which
  /// is the invariant the METRICS acceptance check rides on. The
  /// request's total traced wall time is also recorded into the
  /// `wdpt_answer_cache_request_duration_seconds` family keyed by the
  /// trace's cache outcome, so hit latency can be compared against miss
  /// and bypass latency directly.
  void RecordQuery(const Trace& trace, sparql::RequestMode mode,
                   StatusCode code);

  /// Folds one finished INGEST's trace into the storage histograms:
  /// total wall time into `wdpt_storage_ingest_duration_seconds` and the
  /// publish span into `wdpt_storage_publish_duration_seconds`. Ingests
  /// never enter the query stage histograms — those keep the invariant
  /// that every stage count equals the number of queries served.
  void RecordIngest(const Trace& trace, StatusCode code);

  /// Counts a query shed at admission. Shed requests never enter the
  /// staged pipeline, so they are deliberately absent from the stage
  /// histograms.
  void RecordRejected();

  /// Queries folded in via RecordQuery so far.
  uint64_t queries_recorded() const {
    return queries_recorded_.load(std::memory_order_relaxed);
  }

  /// The full Prometheus text exposition: server + engine counters,
  /// in-flight / snapshot-version gauges, response-status counters, and
  /// both histogram families (cumulative `le` buckets in seconds).
  /// Series with zero observations are omitted to bound the payload.
  /// When `storage` is non-null (storage-backed servers) the
  /// wdpt_storage_* counter/gauge families and the ingest/publish
  /// latency histograms are appended. When `primary` / `replica` is
  /// non-null the corresponding side's wdpt_replication_* families are
  /// appended (a primary renders ship counters; a replica renders
  /// apply/lag/resync counters) — docs/METRICS.md lists every family.
  std::string RenderPrometheus(
      const ServerCounters& counters, const EngineStats& engine,
      uint64_t in_flight, uint64_t snapshot_version,
      const storage::StorageStats* storage = nullptr,
      const replication::PrimaryReplicationStats* primary = nullptr,
      const replication::ReplicaReplicationStats* replica = nullptr) const;

 private:
  /// Query pipeline stages only (kQueueWait..kSerialize); the storage
  /// stages appended to TraceStage never occur in a QUERY trace.
  metrics::LatencyHistogram stage_mode_[kQueryStageCount][kRequestModeCount];
  metrics::LatencyHistogram
      stage_class_[kQueryStageCount][kTractabilityClassCount];
  /// Total request wall time keyed by answer-cache outcome
  /// (bypass / hit / miss).
  metrics::LatencyHistogram cache_wall_[kCacheOutcomeCount];
  /// Total INGEST wall time (wal_append + apply + publish).
  metrics::LatencyHistogram ingest_wall_;
  /// Snapshot-publication span (copy + freeze + hot swap) of ingests.
  metrics::LatencyHistogram publish_wall_;
  std::atomic<uint64_t> responses_by_status_[kStatusCodeCount] = {};
  std::atomic<uint64_t> queries_recorded_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_METRICS_H_
