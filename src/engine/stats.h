// Engine observability: counters and phase timers.
//
// A StatsCollector lives inside the Engine and is bumped from any
// thread; stats() snapshots it into the plain EngineStats struct that
// the CLI prints and the benches assert on. Kernel-level counters
// (homomorphism calls, semijoin passes) come from src/common/metrics.h:
// the collector records the process-wide values at construction/reset
// and reports deltas since then.
//
// The plan-cache group (lookups, hits, misses, built, build time) obeys
// cross-counter invariants — lookups == hits + misses and
// plans_built <= misses — so its updates and its snapshot are guarded
// by a mutex: a snapshot taken under concurrent traffic can never be
// torn (e.g. report hits + misses != lookups). The remaining counters
// carry no cross-field invariant and stay relaxed atomics on the hot
// paths.

#ifndef WDPT_SRC_ENGINE_STATS_H_
#define WDPT_SRC_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/metrics.h"

namespace wdpt {

/// A point-in-time snapshot of an Engine's activity. Within one
/// snapshot, plan_cache_lookups == plan_cache_hits + plan_cache_misses
/// and plans_built <= plan_cache_misses always hold.
struct EngineStats {
  // Plan cache (consistent group).
  uint64_t plan_cache_lookups = 0;  ///< Hits + misses, by construction.
  uint64_t plans_built = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  // Work items.
  uint64_t eval_calls = 0;        ///< Single-mapping Eval calls.
  uint64_t batch_calls = 0;       ///< EvalBatch invocations.
  uint64_t batch_tasks = 0;       ///< Mappings fanned out across batches.
  uint64_t enumerate_calls = 0;   ///< Enumerate invocations.

  // Answer cache (src/engine/answer_cache.h); all zero when the engine
  // has no cache configured. Filled by Engine::stats() from the cache's
  // own counters, not accumulated in StatsCollector.
  uint64_t answer_cache_hits = 0;
  uint64_t answer_cache_misses = 0;
  uint64_t answer_cache_bypasses = 0;
  uint64_t answer_cache_inflight_waits = 0;
  uint64_t answer_cache_evictions = 0;
  uint64_t answer_cache_inserts = 0;
  uint64_t answer_cache_bytes = 0;    ///< Currently resident value bytes.
  uint64_t answer_cache_entries = 0;  ///< Currently resident entries.

  // Early terminations.
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;

  // Kernel work since construction / the last ResetStats.
  uint64_t homomorphism_calls = 0;
  uint64_t semijoin_passes = 0;
  uint64_t csr_probes = 0;            ///< CSR column-index probes.
  uint64_t gallop_intersections = 0;  ///< Galloped posting-list intersects.

  // High-water mark of the kernel scratch arenas (process-wide gauge,
  // not delta-based: the peak since process start).
  uint64_t arena_bytes_peak = 0;

  // Wall time per phase, nanoseconds.
  uint64_t plan_build_ns = 0;
  uint64_t eval_ns = 0;       ///< Includes batch task execution.
  uint64_t enumerate_ns = 0;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

  /// Single-line JSON object with every counter/timer as a numeric
  /// field (snake_case, times in nanoseconds). Shared by
  /// `wdpt_query --stats` and the server's STATS response so external
  /// tooling sees one schema.
  std::string ToJson() const;
};

/// Thread-safe accumulator behind EngineStats.
class StatsCollector {
 public:
  StatsCollector() { Reset(); }

  void Reset() {
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      plan_cache_lookups_ = 0;
      plans_built_ = 0;
      plan_cache_hits_ = 0;
      plan_cache_misses_ = 0;
      plan_build_ns_ = 0;
    }
    eval_calls.store(0, std::memory_order_relaxed);
    batch_calls.store(0, std::memory_order_relaxed);
    batch_tasks.store(0, std::memory_order_relaxed);
    enumerate_calls.store(0, std::memory_order_relaxed);
    deadline_exceeded.store(0, std::memory_order_relaxed);
    cancelled.store(0, std::memory_order_relaxed);
    eval_ns.store(0, std::memory_order_relaxed);
    enumerate_ns.store(0, std::memory_order_relaxed);
    hom_calls_base = metrics::Load(metrics::HomomorphismCalls());
    semijoin_base = metrics::Load(metrics::SemijoinPasses());
    csr_probes_base = metrics::Load(metrics::CsrProbes());
    gallop_base = metrics::Load(metrics::GallopIntersections());
  }

  /// One plan-cache lookup that found a cached plan.
  void RecordPlanCacheHit() {
    std::lock_guard<std::mutex> lock(plan_mu_);
    ++plan_cache_lookups_;
    ++plan_cache_hits_;
  }

  /// One plan-cache lookup that missed (a build attempt follows).
  void RecordPlanCacheMiss() {
    std::lock_guard<std::mutex> lock(plan_mu_);
    ++plan_cache_lookups_;
    ++plan_cache_misses_;
  }

  /// The build following a miss: wall time always, built count only on
  /// success.
  void RecordPlanBuild(uint64_t ns, bool ok) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_build_ns_ += ns;
    if (ok) ++plans_built_;
  }

  EngineStats Snapshot() const {
    EngineStats s;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      s.plan_cache_lookups = plan_cache_lookups_;
      s.plans_built = plans_built_;
      s.plan_cache_hits = plan_cache_hits_;
      s.plan_cache_misses = plan_cache_misses_;
      s.plan_build_ns = plan_build_ns_;
    }
    s.eval_calls = eval_calls.load(std::memory_order_relaxed);
    s.batch_calls = batch_calls.load(std::memory_order_relaxed);
    s.batch_tasks = batch_tasks.load(std::memory_order_relaxed);
    s.enumerate_calls = enumerate_calls.load(std::memory_order_relaxed);
    s.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
    s.cancelled = cancelled.load(std::memory_order_relaxed);
    s.homomorphism_calls =
        metrics::Load(metrics::HomomorphismCalls()) - hom_calls_base;
    s.semijoin_passes = metrics::Load(metrics::SemijoinPasses()) - semijoin_base;
    s.csr_probes = metrics::Load(metrics::CsrProbes()) - csr_probes_base;
    s.gallop_intersections =
        metrics::Load(metrics::GallopIntersections()) - gallop_base;
    s.arena_bytes_peak = metrics::Load(metrics::ArenaBytesPeak());
    s.eval_ns = eval_ns.load(std::memory_order_relaxed);
    s.enumerate_ns = enumerate_ns.load(std::memory_order_relaxed);
    return s;
  }

  static void Bump(std::atomic<uint64_t>& counter, uint64_t delta = 1) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> eval_calls{0};
  std::atomic<uint64_t> batch_calls{0};
  std::atomic<uint64_t> batch_tasks{0};
  std::atomic<uint64_t> enumerate_calls{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> cancelled{0};
  std::atomic<uint64_t> eval_ns{0};
  std::atomic<uint64_t> enumerate_ns{0};

 private:
  mutable std::mutex plan_mu_;
  uint64_t plan_cache_lookups_ = 0;
  uint64_t plans_built_ = 0;
  uint64_t plan_cache_hits_ = 0;
  uint64_t plan_cache_misses_ = 0;
  uint64_t plan_build_ns_ = 0;

  uint64_t hom_calls_base = 0;
  uint64_t semijoin_base = 0;
  uint64_t csr_probes_base = 0;
  uint64_t gallop_base = 0;
};

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_STATS_H_
