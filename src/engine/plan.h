// Evaluation plans: the cached, immutable result of analysing one WDPT.
//
// Classifying a pattern tree (per-node treewidth, global width, interface
// width, projection-freeness) is the expensive structural step of the
// paper's algorithms — and it depends only on the tree, not on the
// database or candidate mapping. A Plan runs it once, together with the
// algorithm choice it implies; the Engine caches plans in an LRU keyed by the
// canonical serialization of the tree plus the plan options, so repeated
// queries (the common case under load) skip straight to evaluation.
//
// Plans are immutable after Build and shared via shared_ptr<const Plan>;
// concurrent readers need no synchronization.

#ifndef WDPT_SRC_ENGINE_PLAN_H_
#define WDPT_SRC_ENGINE_PLAN_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/wdpt/classify.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {

/// Which evaluation algorithm a plan commits to for EVAL.
enum class EvalAlgorithm {
  kAuto,            ///< Resolve from the classification (plan-time).
  kNaive,           ///< Forced-entry recursion (EvalNaive); always correct.
  kTractableDP,     ///< Bounded-interface DP (EvalTractable); always
                    ///< correct, polynomial for l-TW(k) with bounded
                    ///< interface.
  kProjectionFree,  ///< Subtree reconstruction (EvalProjectionFree);
                    ///< requires a projection-free tree.
};

const char* EvalAlgorithmName(EvalAlgorithm a);

/// Inputs of plan construction (part of the cache key).
struct PlanOptions {
  /// Treewidth bound used by classification.
  int width_bound = 1;
  /// Algorithm request; kAuto lets the classification decide.
  EvalAlgorithm algorithm = EvalAlgorithm::kAuto;
};

class Plan {
 public:
  /// Analyses `tree` (which must be validated) and returns the immutable
  /// plan. The plan owns a copy of the tree: cached plans outlive the
  /// caller's instance.
  static Result<std::shared_ptr<const Plan>> Build(const PatternTree& tree,
                                                   const PlanOptions& options);

  const PatternTree& tree() const { return tree_; }
  const PlanOptions& options() const { return options_; }
  const WdptClassification& classification() const { return classification_; }

  /// The classification collapsed to the serving-relevant class label
  /// (g-TW(k) wins over l-TW(k)); used to key per-class latency metrics.
  TractabilityClass tractability() const {
    if (classification_.globally_tw_k) return TractabilityClass::kGTractable;
    if (classification_.locally_tw_k) return TractabilityClass::kLTractable;
    return TractabilityClass::kIntractable;
  }

  /// The committed EVAL algorithm; never kAuto. Resolution: projection-
  /// free trees use kProjectionFree, locally tractable trees (within the
  /// width bound) use the DP, everything else falls back to kNaive.
  EvalAlgorithm algorithm() const { return algorithm_; }

 private:
  Plan() = default;

  PatternTree tree_;
  PlanOptions options_;
  WdptClassification classification_;
  EvalAlgorithm algorithm_ = EvalAlgorithm::kNaive;
};

/// Appends the canonical byte-exact serialization of the tree's
/// structure (parents, labels as raw term ids, free variables) to
/// `out`. Two trees built by the same sequence of AddChild / AddAtom /
/// SetFreeVariables calls over the same vocabulary serialize
/// identically. Shared by the plan-cache key and the answer-cache key
/// (src/engine/answer_cache.h).
void AppendCanonicalTree(std::string* out, const PatternTree& tree);

/// Canonical plan-cache key: the plan options followed by the canonical
/// tree serialization.
std::string CanonicalPlanKey(const PatternTree& tree,
                             const PlanOptions& options);

/// Thread-safe LRU cache of built plans.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached plan for `key` (refreshing its recency), or
  /// nullptr on a miss.
  std::shared_ptr<const Plan> Find(const std::string& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least
  /// recently used entry when over capacity.
  void Insert(const std::string& key, std::shared_ptr<const Plan> plan);

  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  // Recency list, most recent first; map points into it.
  std::list<std::pair<std::string, std::shared_ptr<const Plan>>> entries_;
  std::unordered_map<std::string, decltype(entries_)::iterator> index_;
};

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_PLAN_H_
