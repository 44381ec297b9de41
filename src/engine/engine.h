// The evaluation engine: single public entry point for WDPT evaluation.
//
// Engine unifies the five evaluation routines (EvalNaive, EvalTractable,
// EvalProjectionFree, PartialEval, MaxEval) behind one call,
//
//   engine.Eval(tree, db, h, {.semantics = EvalSemantics::kStandard});
//
// chooses the algorithm from the tree's cached classification (kAuto),
// fans batches of candidate mappings across a fixed thread pool
// (EvalBatch), runs answer enumeration (Enumerate), and enforces
// deadlines / cooperative cancellation end to end: when a deadline
// expires the engine returns kDeadlineExceeded — never a partial answer.
//
// Plans (tree + classification + resolved algorithm) are cached per
// canonical tree; see plan.h and docs/ENGINE.md for the lifecycle.

#ifndef WDPT_SRC_ENGINE_ENGINE_H_
#define WDPT_SRC_ENGINE_ENGINE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/cq/evaluation.h"
#include "src/engine/answer_cache.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/engine/thread_pool.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {

/// Which answer relation a query runs against.
enum class EvalSemantics {
  kStandard,  ///< h in p(D)         (EVAL, Section 3.1/3.2).
  kPartial,   ///< h partial answer  (PARTIAL-EVAL, Section 3.3).
  kMaximal,   ///< h in p_m(D)       (MAX-EVAL, Section 3.4).
};

/// The one per-call option surface, accepted by every Engine entry
/// point (Eval, EvalBatch, Enumerate).
/// Replaces the former EvalOptions / EnumerateOptions pair and the raw
/// EnumerationLimits plumbing; fields irrelevant to a given call are
/// simply ignored (e.g. `limits` by Eval, `algorithm` by Enumerate).
struct CallOptions {
  /// Which answer relation the call runs against. For Enumerate,
  /// kStandard enumerates p(D) and kMaximal enumerates p_m(D);
  /// kPartial is a membership-only semantics and is rejected there.
  EvalSemantics semantics = EvalSemantics::kStandard;
  /// kAuto resolves from the plan's classification. Partial/maximal
  /// semantics have a single algorithm each; this field only steers
  /// kStandard. Eval-only.
  EvalAlgorithm algorithm = EvalAlgorithm::kAuto;
  /// Treewidth bound for classification (plan-cache key part). Eval-only:
  /// Enumerate builds no plan, so its trace keeps the class unknown.
  int width_bound = 1;
  /// Options forwarded to the CQ evaluation substrate (strategy etc.).
  /// Its `cancel` field is overwritten by the engine's effective token.
  /// Eval-only.
  CqEvalOptions cq;
  /// Enumeration caps; its `cancel` field is overwritten by the
  /// engine's effective token. Enumerate-only.
  EnumerationLimits limits;
  /// Enumerate-only: return only the first min(first_rows, |answers|)
  /// rows of the canonical order, for p(D) and p_m(D) alike (0 = all).
  /// The server asks for max-results + 1 rows; the extra row decides
  /// `truncated`. A capped call never takes more steps than the
  /// uncapped one, so it may succeed where the full enumeration exceeds
  /// `limits.max_steps`. Part of the answer-cache key.
  uint64_t first_rows = 0;
  /// Per-call (per-task in EvalBatch) deadline, relative to call start.
  std::optional<std::chrono::nanoseconds> deadline;
  /// Caller-owned cancellation; combined with the deadline via a child
  /// token, so the caller's token is never mutated.
  CancelToken cancel;
  /// Optional per-request trace: the engine records plan-lookup /
  /// plan-build / cache-lookup / eval spans, the plan's tractability
  /// class, and the answer-cache outcome into it. Must outlive the
  /// call; never alters results. For EvalBatch the eval span is the
  /// batch wall time, not a per-task breakdown.
  Trace* trace = nullptr;
  /// Answer-cache participation (src/engine/answer_cache.h). The call
  /// consults the cache only when the engine has one configured, the
  /// mode is kDefault, and `cache.generation` is non-zero (the server
  /// stamps it with the snapshot version).
  CachePolicy cache;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads for EvalBatch; 0 = hardware concurrency.
  unsigned num_threads = 0;
  /// LRU capacity of the plan cache (plans retired least-recently-used).
  size_t plan_cache_capacity = 128;
  /// Byte budget for the answer cache; 0 (the default) disables it.
  size_t answer_cache_bytes = 0;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = EngineOptions());

  /// EVAL / PARTIAL-EVAL / MAX-EVAL of a single candidate mapping,
  /// through the cached plan. Returns kDeadlineExceeded / kCancelled when
  /// the effective token fires before a definite answer.
  Result<bool> Eval(const PatternTree& tree, const Database& db,
                    const Mapping& h,
                    const CallOptions& options = CallOptions());

  /// Evaluates every mapping of `hs` against the same (tree, db) on the
  /// thread pool. Results are positionally aligned with `hs` and
  /// bit-identical to sequential Eval calls. If any task fails (including
  /// by deadline), the first failure in index order is returned and the
  /// batch yields no partial answers.
  Result<std::vector<bool>> EvalBatch(
      const PatternTree& tree, const Database& db,
      const std::vector<Mapping>& hs,
      const CallOptions& options = CallOptions());

  /// p(D) (or p_m(D) with options.semantics == kMaximal) via the
  /// projection-aware enumerator, with engine-level deadline /
  /// cancellation handling: a token that fires at any point of the call,
  /// the maximality filter included, yields its status, never a partial
  /// answer. Answers come back in the canonical sorted order (Mapping's
  /// operator<); with `options.first_rows` set, only the first rows of
  /// that order (see EvaluateWdptProjected for when that stops early).
  Result<std::vector<Mapping>> Enumerate(
      const PatternTree& tree, const Database& db,
      const CallOptions& options = CallOptions());

  /// The cached (or freshly built) plan for a tree. Exposed for the CLI's
  /// --classify path and for tests; Eval/EvalBatch call this internally.
  /// With a trace, records the kPlanLookup / kPlanBuild spans and stamps
  /// the plan's tractability class.
  Result<std::shared_ptr<const Plan>> GetPlan(const PatternTree& tree,
                                              const PlanOptions& options,
                                              Trace* trace = nullptr);

  /// Snapshot of the engine's counters and timers, including the
  /// answer-cache group (all zero when no cache is configured).
  EngineStats stats() const;
  void ResetStats() { stats_.Reset(); }

  unsigned num_threads() const { return pool_.num_threads(); }

  /// The configured answer cache, or nullptr when disabled.
  const AnswerCache* answer_cache() const { return answer_cache_.get(); }

 private:
  /// Combines the caller token and the per-call deadline. Null when
  /// neither is set (polling stays free).
  static CancelToken EffectiveToken(const CancelToken& caller,
                                    std::optional<std::chrono::nanoseconds>
                                        deadline);

  /// True when this call participates in the answer cache: a cache is
  /// configured, the policy mode is kDefault, and a snapshot generation
  /// is set. Bumps the bypass counter when a configured cache is
  /// skipped by policy.
  bool CacheParticipates(const CallOptions& options) const;

  /// Dispatch on (semantics, plan->algorithm()) with `token` installed in
  /// the CQ options; converts a fired token into its status.
  Result<bool> EvalWithPlan(const Plan& plan, const Database& db,
                            const Mapping& h, const CallOptions& options,
                            const CancelToken& token);

  /// EvalWithPlan through the answer cache (single-flight); falls back
  /// to a direct call when the cache does not participate. `trace` is
  /// passed explicitly (nullptr from EvalBatch tasks, which must not
  /// touch the caller's single-owner trace).
  Result<bool> EvalThroughCache(const Plan& plan, const Database& db,
                                const Mapping& h, const CallOptions& options,
                                const CancelToken& token, Trace* trace);

  /// The uncached enumeration core: p(D) / p_m(D) with `token`
  /// installed in the limits; converts a fired token into its status.
  Result<std::vector<Mapping>> EnumerateCore(const PatternTree& tree,
                                             const Database& db,
                                             const CallOptions& options,
                                             const CancelToken& token);

  /// EnumerateCore through the answer cache with single-flight
  /// collapsing, or directly when the cache does not participate.
  Result<std::vector<Mapping>> EnumerateThroughCache(
      const PatternTree& tree, const Database& db,
      const CallOptions& options, const CancelToken& token);

  /// Records a terminal status in the early-termination counters.
  void NoteStatus(const Status& status);

  ThreadPool pool_;
  PlanCache plan_cache_;
  std::unique_ptr<AnswerCache> answer_cache_;
  StatsCollector stats_;
};

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_ENGINE_H_
