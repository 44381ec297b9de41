#include "src/uwdpt/uwdpt.h"

#include <unordered_set>

#include "src/common/algo.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_tractable.h"
#include "src/wdpt/subtrees.h"

namespace wdpt {

Status UnionWdpt::Validate() {
  for (PatternTree& member : members) {
    Status status = member.Validate();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Result<std::vector<Mapping>> EvaluateUnion(const UnionWdpt& phi,
                                           const Database& db,
                                           const EnumerationLimits& limits) {
  std::unordered_set<Mapping, MappingHash> seen;
  std::vector<Mapping> answers;
  for (const PatternTree& member : phi.members) {
    Result<std::vector<Mapping>> part =
        EvaluateWdptProjected(member, db, limits);
    if (!part.ok()) return part.status();
    for (Mapping& m : *part) {
      if (seen.insert(m).second) answers.push_back(std::move(m));
    }
  }
  return answers;
}

Result<bool> UnionEval(const UnionWdpt& phi, const Database& db,
                       const Mapping& h) {
  for (const PatternTree& member : phi.members) {
    Result<bool> in_member = EvalNaive(member, db, h);
    if (!in_member.ok()) return in_member.status();
    if (*in_member) return true;
  }
  return false;
}

Result<bool> UnionEvalTractable(const UnionWdpt& phi, const Database& db,
                                const Mapping& h,
                                const CqEvalOptions& options) {
  for (const PatternTree& member : phi.members) {
    Result<bool> in_member = EvalTractable(member, db, h, options);
    if (!in_member.ok()) return in_member.status();
    if (*in_member) return true;
  }
  return false;
}

namespace {

// All variables of dom (sorted) are free variables of `tree` and
// mentioned in it.
bool MemberCovers(const PatternTree& tree,
                  const std::vector<VariableId>& dom) {
  if (!SortedIsSubset(dom, tree.free_vars())) return false;
  for (VariableId v : dom) {
    if (tree.TopNode(v) == PatternTree::kNoNode) return false;
  }
  return true;
}

// Is there a homomorphism from `tree` to db extending h and binding all
// of `vars` (sorted, covered by the tree)?
bool HomBinding(const PatternTree& tree, const Database& db,
                const Mapping& h, const std::vector<VariableId>& vars,
                const CqEvalOptions& options) {
  SubtreeMask mask = MinimalSubtreeContaining(tree, vars);
  return DecideNonEmpty(SubtreeAtoms(tree, mask), db, h, options);
}

}  // namespace

Result<bool> UnionPartialEval(const UnionWdpt& phi, const Database& db,
                              const Mapping& h,
                              const CqEvalOptions& options) {
  std::vector<VariableId> dom = h.Domain();
  for (const PatternTree& member : phi.members) {
    if (!member.validated()) {
      return Status::InvalidArgument("members must be validated");
    }
    if (!MemberCovers(member, dom)) continue;
    if (HomBinding(member, db, h, dom, options)) return true;
  }
  return false;
}

Result<bool> UnionMaxEval(const UnionWdpt& phi, const Database& db,
                          const Mapping& h, const CqEvalOptions& options) {
  std::vector<VariableId> dom = h.Domain();
  // (1) Some member has a homomorphism projecting to exactly h.
  bool exact = false;
  for (const PatternTree& member : phi.members) {
    if (!member.validated()) {
      return Status::InvalidArgument("members must be validated");
    }
    if (!MemberCovers(member, dom)) continue;
    SubtreeMask minimal = MinimalSubtreeContaining(member, dom);
    std::vector<VariableId> minimal_free = SortedIntersection(
        SubtreeVariables(member, minimal), member.free_vars());
    if (minimal_free != dom) continue;
    if (DecideNonEmpty(SubtreeAtoms(member, minimal), db, h, options)) {
      exact = true;
      break;
    }
  }
  if (!exact) return false;

  // (2) No member extends h to a strictly larger partial answer.
  for (const PatternTree& member : phi.members) {
    if (!MemberCovers(member, dom)) continue;
    for (VariableId x : SortedDifference(member.free_vars(), dom)) {
      std::vector<VariableId> extended = dom;
      extended.push_back(x);
      SortUnique(&extended);
      if (HomBinding(member, db, h, extended, options)) return false;
    }
  }
  return true;
}

}  // namespace wdpt
