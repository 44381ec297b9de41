#include "src/server/metrics.h"

#include <cstdio>

#include "src/server/fault.h"

namespace wdpt::server {

namespace {

// Prometheus numbers: seconds with enough digits that distinct
// nanosecond bucket bounds stay distinct.
std::string Seconds(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", ns / 1e9);
  return std::string(buf);
}

void AppendType(std::string* out, const char* family, const char* kind) {
  *out += "# TYPE ";
  *out += family;
  *out += ' ';
  *out += kind;
  *out += '\n';
}

void AppendCounter(std::string* out, const char* family, uint64_t value) {
  AppendType(out, family, "counter");
  *out += family;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

void AppendGauge(std::string* out, const char* family, uint64_t value) {
  AppendType(out, family, "gauge");
  *out += family;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

// One histogram series in exposition order: cumulative non-empty
// buckets, the +Inf bucket, then _sum and _count, with nanosecond
// values rendered as seconds. `labels` may be empty (an unlabelled
// family).
void AppendHistogramSeries(std::string* out, const char* family,
                           const std::string& labels,
                           const metrics::HistogramSnapshot& snap) {
  auto open_labels = [&labels](std::string* o, const char* trailing) {
    *o += '{';
    if (!labels.empty()) {
      *o += labels;
      if (*trailing != '\0') *o += ',';
    }
    *o += trailing;
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i + 1 < metrics::kHistogramBuckets; ++i) {
    if (snap.counts[i] == 0) continue;
    cumulative += snap.counts[i];
    *out += family;
    *out += "_bucket";
    open_labels(out, "le=\"");
    *out += Seconds(static_cast<double>(
        metrics::LatencyHistogram::BucketUpperBound(i)));
    *out += "\"} ";
    *out += std::to_string(cumulative);
    *out += '\n';
  }
  *out += family;
  *out += "_bucket";
  open_labels(out, "le=\"+Inf\"} ");
  *out += std::to_string(snap.count);
  *out += '\n';
  *out += family;
  *out += "_sum";
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += Seconds(static_cast<double>(snap.sum));
  *out += '\n';
  *out += family;
  *out += "_count";
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += std::to_string(snap.count);
  *out += '\n';
}

}  // namespace

std::string ServerCounters::ToJson() const {
  std::string json = "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    if (!first) json += ",";
    first = false;
    json += "\"";
    json += name;
    json += "\":";
    json += std::to_string(value);
  };
  field("connections", connections);
  field("requests", requests);
  field("protocol_errors", protocol_errors);
  field("queries", queries);
  field("admitted", admitted);
  field("rejected_overload", rejected_overload);
  field("reloads", reloads);
  field("ingests", ingests);
  field("checkpoints", checkpoints);
  field("idle_timeouts", idle_timeouts);
  field("drained_requests", drained_requests);
  field("drain_rejections", drain_rejections);
  json += "}";
  return json;
}

void RequestMetrics::RecordQuery(const Trace& trace, sparql::RequestMode mode,
                                 StatusCode code) {
  size_t m = static_cast<size_t>(mode);
  size_t c = static_cast<size_t>(trace.classification());
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    uint64_t ns = trace.span_ns(static_cast<TraceStage>(s));
    if (m < kRequestModeCount) stage_mode_[s][m].Record(ns);
    if (c < kTractabilityClassCount) stage_class_[s][c].Record(ns);
  }
  size_t outcome = static_cast<size_t>(trace.cache_outcome());
  if (outcome < kCacheOutcomeCount) cache_wall_[outcome].Record(trace.TotalNs());
  size_t status = static_cast<size_t>(code);
  if (status < kStatusCodeCount) {
    responses_by_status_[status].fetch_add(1, std::memory_order_relaxed);
  }
  queries_recorded_.fetch_add(1, std::memory_order_relaxed);
}

void RequestMetrics::RecordIngest(const Trace& trace, StatusCode code) {
  ingest_wall_.Record(trace.TotalNs());
  publish_wall_.Record(trace.span_ns(TraceStage::kPublish));
  size_t status = static_cast<size_t>(code);
  if (status < kStatusCodeCount) {
    responses_by_status_[status].fetch_add(1, std::memory_order_relaxed);
  }
}

void RequestMetrics::RecordRejected() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

std::string RequestMetrics::RenderPrometheus(
    const ServerCounters& counters, const EngineStats& engine,
    uint64_t in_flight, uint64_t snapshot_version,
    const storage::StorageStats* storage,
    const replication::PrimaryReplicationStats* primary,
    const replication::ReplicaReplicationStats* replica) const {
  std::string out;
  out.reserve(16 * 1024);

  AppendCounter(&out, "wdpt_server_connections_total", counters.connections);
  AppendCounter(&out, "wdpt_server_requests_total", counters.requests);
  AppendCounter(&out, "wdpt_server_protocol_errors_total",
                counters.protocol_errors);
  AppendCounter(&out, "wdpt_server_queries_total", counters.queries);
  AppendCounter(&out, "wdpt_server_admitted_total", counters.admitted);
  AppendCounter(&out, "wdpt_server_rejected_overload_total",
                counters.rejected_overload);
  AppendCounter(&out, "wdpt_server_reloads_total", counters.reloads);
  AppendCounter(&out, "wdpt_server_ingests_total", counters.ingests);
  AppendCounter(&out, "wdpt_server_checkpoints_total", counters.checkpoints);
  AppendCounter(&out, "wdpt_server_idle_timeouts_total",
                counters.idle_timeouts);
  // Exposed without a _total suffix: the acceptance gate greps for this
  // exact family name in the chaos run's final scrape.
  AppendGauge(&out, "wdpt_server_drained_requests",
              counters.drained_requests);
  AppendCounter(&out, "wdpt_server_drain_rejections_total",
                counters.drain_rejections);

  if (const fault::Injector* injector = fault::Get()) {
    fault::Counters faults = injector->counters();
    AppendType(&out, "wdpt_fault_injections_total", "counter");
    auto fault_series = [&out](const char* kind, uint64_t n) {
      out += "wdpt_fault_injections_total{kind=\"";
      out += kind;
      out += "\"} ";
      out += std::to_string(n);
      out += '\n';
    };
    fault_series("delay", faults.delays);
    fault_series("short_write", faults.short_ops);
    fault_series("reset", faults.resets);
    fault_series("connect_fail", faults.connect_failures);
    fault_series("wal", faults.wal_failures);
  }

  AppendCounter(&out, "wdpt_engine_plan_cache_lookups_total",
                engine.plan_cache_lookups);
  AppendCounter(&out, "wdpt_engine_plan_cache_hits_total",
                engine.plan_cache_hits);
  AppendCounter(&out, "wdpt_engine_plan_cache_misses_total",
                engine.plan_cache_misses);
  AppendCounter(&out, "wdpt_engine_plans_built_total", engine.plans_built);
  AppendCounter(&out, "wdpt_engine_eval_calls_total", engine.eval_calls);
  AppendCounter(&out, "wdpt_engine_enumerate_calls_total",
                engine.enumerate_calls);
  AppendCounter(&out, "wdpt_engine_deadline_exceeded_total",
                engine.deadline_exceeded);
  AppendCounter(&out, "wdpt_engine_cancelled_total", engine.cancelled);
  AppendCounter(&out, "wdpt_engine_homomorphism_calls_total",
                engine.homomorphism_calls);
  AppendCounter(&out, "wdpt_engine_semijoin_passes_total",
                engine.semijoin_passes);
  AppendCounter(&out, "wdpt_engine_csr_probes_total", engine.csr_probes);
  AppendCounter(&out, "wdpt_engine_gallop_intersections_total",
                engine.gallop_intersections);
  AppendGauge(&out, "wdpt_engine_arena_bytes_peak", engine.arena_bytes_peak);

  AppendCounter(&out, "wdpt_answer_cache_hits_total",
                engine.answer_cache_hits);
  AppendCounter(&out, "wdpt_answer_cache_misses_total",
                engine.answer_cache_misses);
  AppendCounter(&out, "wdpt_answer_cache_bypasses_total",
                engine.answer_cache_bypasses);
  AppendCounter(&out, "wdpt_answer_cache_inflight_waits_total",
                engine.answer_cache_inflight_waits);
  AppendCounter(&out, "wdpt_answer_cache_evictions_total",
                engine.answer_cache_evictions);
  AppendCounter(&out, "wdpt_answer_cache_inserts_total",
                engine.answer_cache_inserts);

  AppendGauge(&out, "wdpt_server_in_flight_requests", in_flight);
  AppendGauge(&out, "wdpt_server_snapshot_version", snapshot_version);
  AppendGauge(&out, "wdpt_answer_cache_bytes", engine.answer_cache_bytes);
  AppendGauge(&out, "wdpt_answer_cache_entries", engine.answer_cache_entries);

  AppendType(&out, "wdpt_server_responses_total", "counter");
  for (size_t i = 0; i < kStatusCodeCount; ++i) {
    uint64_t n = responses_by_status_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out += "wdpt_server_responses_total{status=\"";
    out += StatusCodeName(static_cast<StatusCode>(i));
    out += "\"} ";
    out += std::to_string(n);
    out += '\n';
  }

  AppendType(&out, "wdpt_stage_duration_seconds", "histogram");
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    for (size_t m = 0; m < kRequestModeCount; ++m) {
      if (stage_mode_[s][m].count() == 0) continue;
      std::string labels = "stage=\"";
      labels += TraceStageName(static_cast<TraceStage>(s));
      labels += "\",mode=\"";
      labels += sparql::RequestModeName(static_cast<sparql::RequestMode>(m));
      labels += "\"";
      AppendHistogramSeries(&out, "wdpt_stage_duration_seconds", labels,
                            stage_mode_[s][m].Snapshot());
    }
  }

  AppendType(&out, "wdpt_answer_cache_request_duration_seconds", "histogram");
  for (size_t o = 0; o < kCacheOutcomeCount; ++o) {
    if (cache_wall_[o].count() == 0) continue;
    std::string labels = "cache=\"";
    labels += CacheOutcomeName(static_cast<CacheOutcome>(o));
    labels += "\"";
    AppendHistogramSeries(&out, "wdpt_answer_cache_request_duration_seconds",
                          labels, cache_wall_[o].Snapshot());
  }

  AppendType(&out, "wdpt_class_stage_duration_seconds", "histogram");
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    for (size_t c = 0; c < kTractabilityClassCount; ++c) {
      if (stage_class_[s][c].count() == 0) continue;
      std::string labels = "stage=\"";
      labels += TraceStageName(static_cast<TraceStage>(s));
      labels += "\",class=\"";
      labels += TractabilityClassName(static_cast<TractabilityClass>(c));
      labels += "\"";
      AppendHistogramSeries(&out, "wdpt_class_stage_duration_seconds", labels,
                            stage_class_[s][c].Snapshot());
    }
  }

  if (storage != nullptr) {
    AppendCounter(&out, "wdpt_storage_wal_appends_total",
                  storage->wal_appends);
    AppendCounter(&out, "wdpt_storage_wal_bytes_total", storage->wal_bytes);
    AppendCounter(&out, "wdpt_storage_replays_total", storage->replays);
    AppendCounter(&out, "wdpt_storage_replayed_ops_total",
                  storage->replayed_ops);
    AppendCounter(&out, "wdpt_storage_truncated_bytes_total",
                  storage->truncated_bytes);
    AppendCounter(&out, "wdpt_storage_checkpoints_total",
                  storage->checkpoints);
    AppendCounter(&out, "wdpt_storage_publishes_total", storage->publishes);
    AppendGauge(&out, "wdpt_storage_wal_backlog_bytes",
                storage->wal_backlog_bytes);
    AppendGauge(&out, "wdpt_storage_snapshot_seq", storage->snapshot_seq);
    AppendType(&out, "wdpt_storage_ingest_duration_seconds", "histogram");
    if (ingest_wall_.count() != 0) {
      AppendHistogramSeries(&out, "wdpt_storage_ingest_duration_seconds", "",
                            ingest_wall_.Snapshot());
    }
    AppendType(&out, "wdpt_storage_publish_duration_seconds", "histogram");
    if (publish_wall_.count() != 0) {
      AppendHistogramSeries(&out, "wdpt_storage_publish_duration_seconds", "",
                            publish_wall_.Snapshot());
    }
  }

  if (primary != nullptr) {
    AppendGauge(&out, "wdpt_replication_subscribers", primary->subscribers);
    AppendCounter(&out, "wdpt_replication_batches_shipped_total",
                  primary->batches_shipped);
    AppendCounter(&out, "wdpt_replication_bytes_shipped_total",
                  primary->bytes_shipped);
    AppendCounter(&out, "wdpt_replication_snapshot_fetches_total",
                  primary->snapshot_fetches);
    AppendCounter(&out, "wdpt_replication_stale_subscribes_total",
                  primary->stale_subscribes);
    AppendGauge(&out, "wdpt_replication_head_seq", primary->head_seq);
  }

  if (replica != nullptr) {
    AppendGauge(&out, "wdpt_replication_lag_batches", replica->lag_batches);
    AppendCounter(&out, "wdpt_replication_batches_applied_total",
                  replica->batches_applied);
    AppendCounter(&out, "wdpt_replication_bytes_received_total",
                  replica->bytes_received);
    AppendCounter(&out, "wdpt_replication_resyncs_total", replica->resyncs);
    AppendCounter(&out, "wdpt_replication_snapshot_fetches_total",
                  replica->snapshot_fetches);
    AppendCounter(&out, "wdpt_replication_redirects_total",
                  replica->redirects);
    AppendCounter(&out, "wdpt_replication_lag_sheds_total",
                  replica->lag_sheds);
    AppendGauge(&out, "wdpt_replication_epoch", replica->epoch);
  }

  return out;
}

}  // namespace wdpt::server
