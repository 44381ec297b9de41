#include "src/wdpt/enumerate.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/common/algo.h"
#include "src/cq/homomorphism.h"

namespace wdpt {

namespace {

class MaximalHomEnumerator {
 public:
  MaximalHomEnumerator(const PatternTree& tree, const Database& db,
                       const std::function<bool(const Mapping&)>& callback,
                       const EnumerationLimits& limits)
      : tree_(tree), db_(db), callback_(callback), limits_(limits) {}

  Status Run() {
    // The root is mandatory: if it is not enterable, p(D) is empty.
    Complete(Mapping(), {PatternTree::kRoot});
    // Token state is sticky, so consult it directly: the inner search may
    // have aborted on it before any callback-side poll noticed.
    Status token_status = StatusFromToken(limits_.cancel);
    if (!token_status.ok()) return token_status;
    if (overflow_) {
      return Status::ResourceExhausted(
          "maximal-homomorphism enumeration exceeded its limits");
    }
    return Status::Ok();
  }

 private:
  // Extends `e` over the labels of `pending` nodes (children of already-
  // matched nodes that turned out enterable, plus initially the root),
  // exploring every combination; emits complete maximal homomorphisms.
  //
  // Invariant: all nodes in `pending` are independent given e (their
  // subtrees share no unbound variables), so they are processed left to
  // right, each branching over its own extensions.
  void Complete(const Mapping& e, std::vector<NodeId> pending) {
    if (stopped_ || overflow_ || cancelled_) return;
    if (limits_.cancel.valid() && limits_.cancel.ShouldStop()) {
      cancelled_ = true;
      return;
    }
    if (pending.empty()) {
      Emit(e);
      return;
    }
    NodeId c = pending.back();
    pending.pop_back();
    HomSearchLimits hom_limits;
    hom_limits.cancel = limits_.cancel;
    // Enumerate extensions of e over lambda(c).
    bool enterable = false;
    ForEachHomomorphism(
        tree_.label(c), db_, e,
        [&](const Mapping& ext) {
          enterable = true;
          if (limits_.max_steps != 0 && ++steps_ > limits_.max_steps) {
            overflow_ = true;
            return false;
          }
          // Determine which children of c are enterable under ext; they
          // are mandatory (maximality), the rest are dropped.
          std::vector<NodeId> next = pending;
          for (NodeId d : tree_.children(c)) {
            if (HomomorphismExists(tree_.label(d), db_, ext, hom_limits)) {
              next.push_back(d);
            }
          }
          Complete(ext, std::move(next));
          return !(stopped_ || overflow_ || cancelled_);
        },
        hom_limits);
    // `c` unenterable can only happen for the root here: children are
    // only scheduled after an explicit enterability test, and
    // enterability depends on variables already bound in e.
    if (!enterable) {
      WDPT_DCHECK(c == PatternTree::kRoot);
    }
  }

  void Emit(const Mapping& hom) {
    if (!seen_.insert(hom).second) return;
    if (limits_.max_homomorphisms != 0 &&
        seen_.size() > limits_.max_homomorphisms) {
      overflow_ = true;
      return;
    }
    if (!callback_(hom)) stopped_ = true;
  }

  const PatternTree& tree_;
  const Database& db_;
  const std::function<bool(const Mapping&)>& callback_;
  EnumerationLimits limits_;
  std::unordered_set<Mapping, MappingHash> seen_;
  uint64_t steps_ = 0;
  bool stopped_ = false;
  bool overflow_ = false;
  bool cancelled_ = false;
};

}  // namespace

Status ForEachMaximalHomomorphism(
    const PatternTree& tree, const Database& db,
    const std::function<bool(const Mapping&)>& callback,
    const EnumerationLimits& limits) {
  if (!tree.validated()) {
    return Status::InvalidArgument("pattern tree must be validated");
  }
  MaximalHomEnumerator enumerator(tree, db, callback, limits);
  return enumerator.Run();
}

Result<std::vector<Mapping>> EvaluateWdptByFullEnumeration(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits) {
  std::unordered_set<Mapping, MappingHash> seen;
  std::vector<Mapping> answers;
  Status status = ForEachMaximalHomomorphism(
      tree, db,
      [&](const Mapping& hom) {
        Mapping projected = hom.RestrictTo(tree.free_vars());
        if (seen.insert(projected).second) {
          answers.push_back(std::move(projected));
        }
        return true;
      },
      limits);
  if (!status.ok()) return status;
  std::sort(answers.begin(), answers.end());
  return answers;
}

namespace {

// Projection-aware evaluator: per subtree, completions are represented
// only by their free-variable projections, deduplicated eagerly, and
// memoized on the node's parent-interface assignment.
class ProjectedEvaluator {
 public:
  ProjectedEvaluator(const PatternTree& tree, const Database& db,
                     const EnumerationLimits& limits)
      : tree_(tree), db_(db), limits_(limits), memo_(tree.num_nodes()) {}

  Result<std::vector<Mapping>> Run() {
    std::vector<Mapping> answers;
    std::optional<std::vector<Mapping>> root =
        Completions(PatternTree::kRoot, Mapping());
    Status terminal = TerminalStatus();
    if (!terminal.ok()) return terminal;
    if (root.has_value()) answers = std::move(*root);
    std::sort(answers.begin(), answers.end());
    return answers;
  }

 private:
  Status TerminalStatus() const {
    Status token_status = StatusFromToken(limits_.cancel);
    if (!token_status.ok()) return token_status;
    if (overflow_) {
      return Status::ResourceExhausted(
          "projected answer enumeration exceeded its limits");
    }
    return Status::Ok();
  }

  bool Step() {
    if (limits_.max_steps != 0 && ++steps_ > limits_.max_steps) {
      overflow_ = true;
    }
    // Poll cancellation every 1024 steps (a ShouldStop reads the clock).
    if (limits_.cancel.valid() && (steps_ & 0x3FF) == 0 &&
        limits_.cancel.ShouldStop()) {
      cancelled_ = true;
    }
    return !(overflow_ || cancelled_);
  }

  // Projected maximal completions of the subtree rooted at `c` given the
  // ancestor assignment `e` (only e's values on the parent interface of
  // c matter). nullopt = not enterable.
  std::optional<std::vector<Mapping>> Completions(NodeId c,
                                                  const Mapping& e) {
    Mapping key = e.RestrictTo(tree_.ParentInterface(c));
    auto& node_memo = memo_[c];
    auto it = node_memo.find(key);
    if (it != node_memo.end()) return it->second;

    std::vector<VariableId> node_free =
        SortedIntersection(tree_.node_vars(c), tree_.free_vars());
    std::unordered_set<Mapping, MappingHash> results;
    HomSearchLimits hom_limits;
    hom_limits.cancel = limits_.cancel;
    bool enterable = false;
    ForEachHomomorphism(
        tree_.label(c), db_, key,
        [&](const Mapping& ext) {
          enterable = true;
          if (!Step()) return false;
          // Child completion sets under this extension.
          std::vector<std::vector<Mapping>> child_sets;
          for (NodeId d : tree_.children(c)) {
            std::optional<std::vector<Mapping>> cs = Completions(d, ext);
            if (overflow_ || cancelled_) return false;
            if (cs.has_value()) child_sets.push_back(std::move(*cs));
          }
          // Product of the children's projected completions.
          Mapping base = ext.RestrictTo(node_free);
          std::function<void(size_t, const Mapping&)> combine =
              [&](size_t idx, const Mapping& acc) {
                if (overflow_ || cancelled_) return;
                if (idx == child_sets.size()) {
                  if (!Step()) return;
                  results.insert(acc);
                  return;
                }
                for (const Mapping& m : child_sets[idx]) {
                  std::optional<Mapping> merged = Mapping::Union(acc, m);
                  // Shared free variables are seeded consistently, so the
                  // union always succeeds.
                  WDPT_DCHECK(merged.has_value());
                  combine(idx + 1, *merged);
                  if (overflow_ || cancelled_) return;
                }
              };
          combine(0, base);
          return !(overflow_ || cancelled_);
        },
        hom_limits);
    std::optional<std::vector<Mapping>> out;
    if (enterable) {
      out.emplace();
      out->reserve(results.size());
      while (!results.empty()) {
        out->push_back(std::move(results.extract(results.begin()).value()));
      }
    }
    // The root is completed exactly once, so its entry would be an unread
    // copy of p(D).
    if (c != PatternTree::kRoot && !(overflow_ || cancelled_)) {
      node_memo.emplace(std::move(key), out);
    }
    return out;
  }

  const PatternTree& tree_;
  const Database& db_;
  EnumerationLimits limits_;
  std::vector<std::unordered_map<Mapping,
                                 std::optional<std::vector<Mapping>>,
                                 MappingHash>>
      memo_;
  uint64_t steps_ = 0;
  bool overflow_ = false;
  bool cancelled_ = false;
};

}  // namespace

Result<std::vector<Mapping>> EvaluateWdptProjected(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits) {
  if (!tree.validated()) {
    return Status::InvalidArgument("pattern tree must be validated");
  }
  ProjectedEvaluator evaluator(tree, db, limits);
  return evaluator.Run();
}

Result<std::vector<Mapping>> EvaluateWdptMaximal(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits) {
  Result<std::vector<Mapping>> answers =
      EvaluateWdptProjected(tree, db, limits);
  if (!answers.ok()) return answers.status();
  std::vector<Mapping> maximal = MaximalMappings(*answers, limits.cancel);
  Status token_status = StatusFromToken(limits.cancel);
  if (!token_status.ok()) return token_status;
  return maximal;
}

namespace {

// Sets (*keep)[i] for each row that no row strictly subsumes. h is
// strictly subsumed by h' exactly when dom(h) is a strict subset of
// dom(h') and h is h' restricted to dom(h). So a row whose domain is X
// is dominated iff it is among the projections onto X of the rows whose
// domains strictly contain X: one hash set per distinct domain. Returns
// early, leaving the undecided rows unset, once `cancel` fires.
void MarkMaximalRows(const std::vector<Mapping>& mappings,
                     const CancelToken& cancel, std::vector<bool>* keep) {
  // Every map or set operation and every domain comparison is a probe;
  // poll every 32 (a ShouldStop reads the clock).
  uint64_t probes = 0;
  auto stop = [&] {
    return cancel.valid() && (probes++ & 0x1F) == 0 && cancel.ShouldStop();
  };
  std::map<std::vector<VariableId>, std::vector<size_t>> groups;
  for (size_t i = 0; i < mappings.size(); ++i) {
    if (stop()) return;
    groups[mappings[i].Domain()].push_back(i);
  }
  for (const auto& [domain, rows] : groups) {
    std::unordered_set<Mapping, MappingHash> projections;
    for (const auto& [wider, wider_rows] : groups) {
      if (stop()) return;
      if (wider.size() <= domain.size() || !SortedIsSubset(domain, wider)) {
        continue;
      }
      for (size_t j : wider_rows) {
        if (stop()) return;
        projections.insert(mappings[j].RestrictTo(domain));
      }
    }
    for (size_t i : rows) {
      if (stop()) return;
      (*keep)[i] = projections.count(mappings[i]) == 0;
    }
  }
}

}  // namespace

std::vector<Mapping> MaximalMappings(const std::vector<Mapping>& mappings,
                                     const CancelToken& cancel) {
  std::vector<bool> keep(mappings.size(), false);
  MarkMaximalRows(mappings, cancel, &keep);
  std::vector<Mapping> maximal;
  for (size_t i = 0; i < mappings.size(); ++i) {
    if (keep[i]) maximal.push_back(mappings[i]);
  }
  return maximal;
}

std::vector<Mapping> MaximalMappingsByPairwiseScan(
    const std::vector<Mapping>& mappings) {
  std::vector<Mapping> maximal;
  for (size_t i = 0; i < mappings.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < mappings.size() && !dominated; ++j) {
      if (i != j && mappings[i].IsStrictlySubsumedBy(mappings[j])) {
        dominated = true;
      }
    }
    if (!dominated) maximal.push_back(mappings[i]);
  }
  return maximal;
}

}  // namespace wdpt
