#include "src/common/trace.h"

#include <cstdio>

namespace wdpt {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kQueueWait:
      return "queue";
    case TraceStage::kParse:
      return "parse";
    case TraceStage::kPlanLookup:
      return "plan_lookup";
    case TraceStage::kPlanBuild:
      return "plan_build";
    case TraceStage::kCacheLookup:
      return "cache_lookup";
    case TraceStage::kEval:
      return "eval";
    case TraceStage::kSerialize:
      return "serialize";
    case TraceStage::kWalAppend:
      return "wal_append";
    case TraceStage::kApply:
      return "apply";
    case TraceStage::kPublish:
      return "publish";
  }
  return "unknown";
}

const char* TractabilityClassName(TractabilityClass c) {
  switch (c) {
    case TractabilityClass::kUnknown:
      return "unknown";
    case TractabilityClass::kGTractable:
      return "g-tractable";
    case TractabilityClass::kLTractable:
      return "l-tractable";
    case TractabilityClass::kIntractable:
      return "intractable";
  }
  return "unknown";
}

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
  }
  return "bypass";
}

uint64_t Trace::TotalNs() const {
  uint64_t total = 0;
  for (uint64_t ns : spans_ns_) total += ns;
  return total;
}

std::string Trace::BreakdownString() const {
  std::string out;
  // Query-pipeline stages always print (a zero is informative there);
  // the storage stages print only when touched, so query lines keep
  // their pre-storage shape and ingest lines show the write path.
  for (size_t i = 0; i < kTraceStageCount; ++i) {
    if (i >= kQueryStageCount && spans_ns_[i] == 0) continue;
    if (!out.empty()) out += ' ';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.2fms",
                  TraceStageName(static_cast<TraceStage>(i)),
                  static_cast<double>(spans_ns_[i]) / 1e6);
    out += buf;
  }
  out += " cache=";
  out += CacheOutcomeName(cache_outcome_);
  return out;
}

}  // namespace wdpt
