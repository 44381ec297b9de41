#include "src/wdpt/eval_tractable.h"

#include <unordered_map>
#include <unordered_set>

#include "src/common/algo.h"
#include "src/cq/homomorphism.h"
#include "src/wdpt/subtrees.h"

namespace wdpt {

namespace {

enum class NodeStatus { kNotEnterable, kGood, kBad };

class TractableEvaluator {
 public:
  TractableEvaluator(const PatternTree& tree, const Database& db,
                     const Mapping& h, const CqEvalOptions& options)
      : tree_(tree), db_(db), h_(h), options_(options) {
    hom_limits_.cancel = options.cancel;
  }

  Result<bool> Run() {
    std::vector<VariableId> dom = h_.Domain();
    // T': mandatory nodes (cover dom(h)); T'': admissible nodes (no
    // forbidden free variable introduced on the path).
    mandatory_ = MinimalSubtreeContaining(tree_, dom);
    admissible_ = MaximalSubtreeWithFreeVarsWithin(tree_, dom);
    if (!admissible_[PatternTree::kRoot]) return false;
    for (NodeId n = 0; n < tree_.num_nodes(); ++n) {
      if (mandatory_[n] && !admissible_[n]) return false;
    }

    status_.resize(tree_.num_nodes());
    // Children have larger ids than parents: reverse order is bottom-up.
    // Once the token fires, every frontier check answers "not
    // enterable", so the tables stop meaning anything: stop at once.
    for (NodeId n = static_cast<NodeId>(tree_.num_nodes()); n-- > 0;) {
      if (Stopped()) return false;
      if (admissible_[n]) ComputeNodeStatuses(n);
    }
    if (Stopped()) return false;
    auto it = status_[PatternTree::kRoot].find(Mapping());
    return it != status_[PatternTree::kRoot].end() &&
           it->second == NodeStatus::kGood;
  }

 private:
  bool Stopped() const {
    return options_.cancel.valid() && options_.cancel.ShouldStop();
  }

  // Existential variables shared between the labels of n and its parent.
  std::vector<VariableId> ExistentialParentInterface(NodeId n) const {
    return SortedDifference(tree_.ParentInterface(n), tree_.free_vars());
  }

  // Free variables shared between the labels of n and its parent.
  std::vector<VariableId> FreeParentInterface(NodeId n) const {
    return SortedIntersection(tree_.ParentInterface(n), tree_.free_vars());
  }

  // Existential variables shared between n's label and its children's
  // labels (bounded by c under BI(c)).
  std::vector<VariableId> ExistentialChildInterface(NodeId n) const {
    std::vector<VariableId> child_vars;
    for (NodeId c : tree_.children(n)) {
      const std::vector<VariableId>& cv = tree_.node_vars(c);
      child_vars.insert(child_vars.end(), cv.begin(), cv.end());
    }
    SortUnique(&child_vars);
    return SortedDifference(
        SortedIntersection(tree_.node_vars(n), child_vars),
        tree_.free_vars());
  }

  // Whether a frontier node (outside T'') is enterable under `seed`.
  // Any entry into it dooms the candidate answer, because its subtree is
  // guaranteed to bind a free variable outside dom(h) under maximality.
  bool FrontierEnterable(NodeId n, const Mapping& seed) {
    auto [it, inserted] =
        frontier_cache_[n].emplace(seed, false);
    if (inserted) {
      it->second = DecideNonEmpty(tree_.label(n), db_, seed, options_);
    }
    return it->second;
  }

  void ComputeNodeStatuses(NodeId t) {
    std::vector<VariableId> upward = ExistentialParentInterface(t);
    std::vector<VariableId> downward = ExistentialChildInterface(t);
    std::vector<VariableId> joint = SortedUnion(upward, downward);

    // Free variables of the label (all in dom(h) by admissibility).
    std::vector<VariableId> node_free =
        SortedIntersection(tree_.node_vars(t), tree_.free_vars());
    Mapping good_seed = h_.RestrictTo(node_free);

    // GOOD detection: enumerate the joint-interface projections of the
    // h-consistent homomorphisms and combine child statuses.
    std::unordered_set<Mapping, MappingHash> good;
    for (const Mapping& joint_g : AllHomomorphismProjections(
             tree_.label(t), db_, good_seed, joint, /*max_results=*/0,
             hom_limits_)) {
      if (Stopped()) return;
      bool ok = true;
      for (NodeId d : tree_.children(t)) {
        // The full interface assignment a child sees: the joint
        // existential values plus the pinned free values.
        Mapping child_exist =
            joint_g.RestrictTo(ExistentialParentInterface(d));
        if (admissible_[d]) {
          NodeStatus st = LookupStatus(d, child_exist);
          if (st == NodeStatus::kBad ||
              (st == NodeStatus::kNotEnterable && mandatory_[d])) {
            ok = false;
            break;
          }
        } else {
          std::optional<Mapping> seed = Mapping::Union(
              child_exist, h_.RestrictTo(FreeParentInterface(d)));
          WDPT_CHECK(seed.has_value());
          if (FrontierEnterable(d, *seed)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) good.insert(joint_g.RestrictTo(upward));
    }

    // Enterability relation R_t: interface projections of *all*
    // homomorphisms whose free parent-interface variables match h (those
    // are pinned by any surviving parent extension); free variables
    // introduced at t itself are unconstrained here.
    Mapping enter_seed = h_.RestrictTo(FreeParentInterface(t));
    std::unordered_map<Mapping, NodeStatus, MappingHash>& table = status_[t];
    for (const Mapping& g : AllHomomorphismProjections(
             tree_.label(t), db_, enter_seed, upward, /*max_results=*/0,
             hom_limits_)) {
      table.emplace(g, NodeStatus::kBad);
    }
    // A search the token cut short may have missed rows of `good`.
    if (Stopped()) return;
    for (const Mapping& g : good) {
      auto it = table.find(g);
      WDPT_CHECK(it != table.end());
      it->second = NodeStatus::kGood;
    }
  }

  NodeStatus LookupStatus(NodeId d, const Mapping& g) const {
    const auto& table = status_[d];
    auto it = table.find(g);
    return it == table.end() ? NodeStatus::kNotEnterable : it->second;
  }

  const PatternTree& tree_;
  const Database& db_;
  const Mapping& h_;
  CqEvalOptions options_;
  HomSearchLimits hom_limits_;
  SubtreeMask mandatory_;
  SubtreeMask admissible_;
  std::vector<std::unordered_map<Mapping, NodeStatus, MappingHash>> status_;
  std::unordered_map<NodeId,
                     std::unordered_map<Mapping, bool, MappingHash>>
      frontier_cache_;
};

}  // namespace

Result<bool> EvalTractable(const PatternTree& tree, const Database& db,
                           const Mapping& h, const CqEvalOptions& options) {
  if (!tree.validated()) {
    return Status::InvalidArgument("pattern tree must be validated");
  }
  if (!SortedIsSubset(h.Domain(), tree.free_vars())) return false;
  TractableEvaluator evaluator(tree, db, h, options);
  return evaluator.Run();
}

}  // namespace wdpt
