// Per-request tracing: stage spans for one query's life cycle.
//
// A Trace rides along with a single request from the server session
// thread through the engine and back: each pipeline stage (queue wait,
// parse, plan-cache lookup, plan build, answer-cache lookup,
// evaluation, serialization) records its wall time into the trace, and the engine stamps the
// plan's tractability classification (l-TW(k) / g-TW(k) / intractable,
// Theorems 6-9 of the paper) so latency can be broken down by
// structural class. The server folds finished traces into per-stage
// LatencyHistograms (src/server/metrics.h) and prints outliers through
// the slow-query log. See docs/OBSERVABILITY.md.
//
// A Trace is owned by exactly one request. It is handed between the
// session thread and a worker thread with a happens-before edge (the
// pool submit / completion latch), so the fields are plain — no atomics.

#ifndef WDPT_SRC_COMMON_TRACE_H_
#define WDPT_SRC_COMMON_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wdpt {

/// The stages of one request, in pipeline order.
enum class TraceStage : uint8_t {
  kQueueWait = 0,  ///< Admission to worker pickup (server only).
  kParse,          ///< Query text -> validated PatternTree.
  kPlanLookup,     ///< Plan-cache key + lookup.
  kPlanBuild,      ///< Classification + algorithm choice on a cache miss.
  kCacheLookup,    ///< Answer-cache key + lookup (includes any
                   ///< single-flight wait for an in-flight owner).
  kEval,           ///< Evaluation / enumeration proper.
  kSerialize,      ///< Answer mappings -> response rows.
  // Storage/write-path stages (INGEST, CHECKPOINT, open-time replay);
  // zero for queries. Keep kQueryStageCount pointing past the last
  // query-pipeline stage above.
  kWalAppend,      ///< WAL entry encode + append + fsync (the ack point).
  kApply,          ///< Batch applied to the next snapshot's copy.
  kPublish,        ///< Snapshot copy + freeze + swap (or checkpoint write).
};

/// Stages of the read pipeline (kQueueWait..kSerialize): the ones every
/// query records and the server's per-stage histograms are keyed by.
inline constexpr size_t kQueryStageCount = 7;
inline constexpr size_t kTraceStageCount = 10;

/// Short stable label ("queue", "parse", "plan_lookup", ...), used as
/// the `stage` label in metrics and in slow-query log lines.
const char* TraceStageName(TraceStage stage);

/// Where a plan lands in the paper's tractability lattice, collapsed to
/// the three serving-relevant classes (g-TW(k) implies l-TW(k); the
/// stronger class wins). kUnknown: no plan was built for the request.
enum class TractabilityClass : uint8_t {
  kUnknown = 0,
  kGTractable,   ///< Globally tractable: g-TW(k).
  kLTractable,   ///< Locally tractable only: l-TW(k) \ g-TW(k).
  kIntractable,  ///< Outside l-TW(k) for the plan's width bound.
};

inline constexpr size_t kTractabilityClassCount = 4;

/// Stable label ("unknown", "g-tractable", "l-tractable", "intractable").
const char* TractabilityClassName(TractabilityClass c);

/// How the answer cache treated a request. kBypass is the default and
/// covers every request the cache did not serve or own: no cache
/// configured, a zero generation, or an explicit `cache-control:
/// bypass`. A single-flight waiter served by the in-flight owner's
/// publish counts as a hit.
enum class CacheOutcome : uint8_t {
  kBypass = 0,
  kHit,
  kMiss,
};

inline constexpr size_t kCacheOutcomeCount = 3;

/// Stable label ("bypass", "hit", "miss"): the `cache` label in metrics,
/// per-request stats JSON, and slow-query log lines.
const char* CacheOutcomeName(CacheOutcome outcome);

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Trace(uint64_t request_id = 0) : request_id_(request_id) {}

  uint64_t request_id() const { return request_id_; }

  /// Adds `ns` to the stage's span (stages hit more than once, e.g. two
  /// plan lookups for a batched request, accumulate).
  void Record(TraceStage stage, uint64_t ns) {
    spans_ns_[static_cast<size_t>(stage)] += ns;
  }

  uint64_t span_ns(TraceStage stage) const {
    return spans_ns_[static_cast<size_t>(stage)];
  }

  /// Sum over all stage spans: the traced wall time of the request.
  uint64_t TotalNs() const;

  void set_classification(TractabilityClass c) { classification_ = c; }
  TractabilityClass classification() const { return classification_; }

  /// Answer-cache outcome for the request; stamped by the engine on the
  /// cache-participating paths, left at kBypass everywhere else.
  void set_cache_outcome(CacheOutcome outcome) { cache_outcome_ = outcome; }
  CacheOutcome cache_outcome() const { return cache_outcome_; }

  /// Request mode label for metrics ("eval" / "partial" / "max"); the
  /// pointer must outlive the trace (callers pass string literals from
  /// RequestModeName).
  void set_mode(const char* mode) { mode_ = mode; }
  const char* mode() const { return mode_; }

  /// "queue=0.00ms parse=0.12ms ..." — the per-stage breakdown printed
  /// by the slow-query log.
  std::string BreakdownString() const;

  /// RAII span: records the elapsed time into `trace` (if non-null) at
  /// scope exit.
  class Span {
   public:
    Span(Trace* trace, TraceStage stage)
        : trace_(trace), stage_(stage), start_(Clock::now()) {}
    ~Span() {
      if (trace_ == nullptr) return;
      trace_->Record(stage_,
                     static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start_)
                             .count()));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* trace_;
    TraceStage stage_;
    Clock::time_point start_;
  };

 private:
  uint64_t request_id_ = 0;
  std::array<uint64_t, kTraceStageCount> spans_ns_{};
  TractabilityClass classification_ = TractabilityClass::kUnknown;
  CacheOutcome cache_outcome_ = CacheOutcome::kBypass;
  const char* mode_ = "unknown";
};

}  // namespace wdpt

#endif  // WDPT_SRC_COMMON_TRACE_H_
