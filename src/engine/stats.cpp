#include "src/engine/stats.h"

namespace wdpt {

namespace {

std::string Millis(uint64_t ns) {
  // Render with two decimals without pulling in <iomanip>.
  uint64_t hundredths = ns / 10000;
  return std::to_string(hundredths / 100) + "." +
         (hundredths % 100 < 10 ? "0" : "") +
         std::to_string(hundredths % 100) + " ms";
}

}  // namespace

std::string EngineStats::ToString() const {
  std::string out;
  out += "plan cache lookups:  " + std::to_string(plan_cache_lookups) + "\n";
  out += "plans built:         " + std::to_string(plans_built) + "\n";
  out += "plan cache hits:     " + std::to_string(plan_cache_hits) + "\n";
  out += "plan cache misses:   " + std::to_string(plan_cache_misses) + "\n";
  out += "eval calls:          " + std::to_string(eval_calls) + "\n";
  out += "batch calls:         " + std::to_string(batch_calls) + " (" +
         std::to_string(batch_tasks) + " tasks)\n";
  out += "enumerate calls:     " + std::to_string(enumerate_calls) + "\n";
  out += "answer cache:        " + std::to_string(answer_cache_hits) +
         " hits, " + std::to_string(answer_cache_misses) + " misses, " +
         std::to_string(answer_cache_bypasses) + " bypasses\n";
  out += "answer cache size:   " + std::to_string(answer_cache_entries) +
         " entries, " + std::to_string(answer_cache_bytes) + " bytes (" +
         std::to_string(answer_cache_evictions) + " evictions, " +
         std::to_string(answer_cache_inflight_waits) +
         " in-flight waits)\n";
  out += "deadline exceeded:   " + std::to_string(deadline_exceeded) + "\n";
  out += "cancelled:           " + std::to_string(cancelled) + "\n";
  out += "homomorphism calls:  " + std::to_string(homomorphism_calls) + "\n";
  out += "semijoin passes:     " + std::to_string(semijoin_passes) + "\n";
  out += "csr probes:          " + std::to_string(csr_probes) + "\n";
  out += "gallop intersects:   " + std::to_string(gallop_intersections) + "\n";
  out += "arena bytes peak:    " + std::to_string(arena_bytes_peak) + "\n";
  out += "plan build time:     " + Millis(plan_build_ns) + "\n";
  out += "eval time:           " + Millis(eval_ns) + "\n";
  out += "enumerate time:      " + Millis(enumerate_ns) + "\n";
  return out;
}

std::string EngineStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(value);
  };
  field("plan_cache_lookups", plan_cache_lookups);
  field("plans_built", plans_built);
  field("plan_cache_hits", plan_cache_hits);
  field("plan_cache_misses", plan_cache_misses);
  field("eval_calls", eval_calls);
  field("batch_calls", batch_calls);
  field("batch_tasks", batch_tasks);
  field("enumerate_calls", enumerate_calls);
  field("answer_cache_hits", answer_cache_hits);
  field("answer_cache_misses", answer_cache_misses);
  field("answer_cache_bypasses", answer_cache_bypasses);
  field("answer_cache_inflight_waits", answer_cache_inflight_waits);
  field("answer_cache_evictions", answer_cache_evictions);
  field("answer_cache_inserts", answer_cache_inserts);
  field("answer_cache_bytes", answer_cache_bytes);
  field("answer_cache_entries", answer_cache_entries);
  field("deadline_exceeded", deadline_exceeded);
  field("cancelled", cancelled);
  field("homomorphism_calls", homomorphism_calls);
  field("semijoin_passes", semijoin_passes);
  field("csr_probes", csr_probes);
  field("gallop_intersections", gallop_intersections);
  field("arena_bytes_peak", arena_bytes_peak);
  field("plan_build_ns", plan_build_ns);
  field("eval_ns", eval_ns);
  field("enumerate_ns", enumerate_ns);
  out += "}";
  return out;
}

}  // namespace wdpt
