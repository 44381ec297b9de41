#include "src/wdpt/enumerate.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
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

  // All of p(D), sorted.
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

  // The first `first_rows` rows of p(D), or of p_m(D) when `maximal`,
  // for a tree whose smallest free variable v is bound at the root
  // (RowsComeInRootBlocks). Every row then starts with v's binding, so
  // the canonical order lists the rows in blocks of equal v, in
  // ascending order of v. The root is searched once; its matches are
  // grouped by v, and blocks are completed in that order until
  // `first_rows` rows are out. A row can only be subsumed by a row with
  // the same v, so p_m(D)'s filter runs per block.
  Result<std::vector<Mapping>> RunByRootBlocks(uint64_t first_rows,
                                               bool maximal) {
    const NodeId root = PatternTree::kRoot;
    const std::vector<VariableId>& root_vars = tree_.node_vars(root);
    const size_t width = root_vars.size();
    const size_t v_column = static_cast<size_t>(
        std::lower_bound(root_vars.begin(), root_vars.end(),
                         tree_.free_vars().front()) -
        root_vars.begin());
    // Root matches as flat rows of constants over root_vars: a search
    // from the empty seed binds exactly the label's variables.
    std::vector<ConstantId> matches;
    HomSearchLimits hom_limits;
    hom_limits.cancel = limits_.cancel;
    ForEachHomomorphism(
        tree_.label(root), db_, Mapping(),
        [&](const Mapping& ext) {
          if (!Step()) return false;
          WDPT_DCHECK(ext.size() == width);
          for (const Mapping::Entry& e : ext.entries()) {
            matches.push_back(e.second);
          }
          return true;
        },
        hom_limits);
    Status terminal = TerminalStatus();
    if (!terminal.ok()) return terminal;

    auto v_value = [&](size_t row) { return matches[row * width + v_column]; };
    std::vector<size_t> order(matches.size() / width);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return v_value(a) < v_value(b);
    });

    const std::vector<VariableId> root_free =
        SortedIntersection(root_vars, tree_.free_vars());
    std::vector<Mapping> answers;
    std::vector<Mapping::Entry> entries(width);
    size_t next = 0;
    while (next < order.size() && answers.size() < first_rows) {
      const ConstantId value = v_value(order[next]);
      MappingSet results;
      for (; next < order.size() && v_value(order[next]) == value; ++next) {
        for (size_t i = 0; i < width; ++i) {
          entries[i] = {root_vars[i], matches[order[next] * width + i]};
        }
        AddCompletions(root, root_free, Mapping(entries), &results);
        if (overflow_ || cancelled_) break;
      }
      terminal = TerminalStatus();
      if (!terminal.ok()) return terminal;
      std::vector<Mapping> block = Drain(&results);
      std::sort(block.begin(), block.end());
      if (maximal) {
        block = MaximalMappings(block, limits_.cancel);
        terminal = StatusFromToken(limits_.cancel);
        if (!terminal.ok()) return terminal;
      }
      size_t take = static_cast<size_t>(
          std::min<uint64_t>(block.size(), first_rows - answers.size()));
      answers.insert(answers.end(), std::make_move_iterator(block.begin()),
                     std::make_move_iterator(block.begin() + take));
    }
    return answers;
  }

 private:
  using MappingSet = std::unordered_set<Mapping, MappingHash>;

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

  static std::vector<Mapping> Drain(MappingSet* set) {
    std::vector<Mapping> out;
    out.reserve(set->size());
    while (!set->empty()) {
      out.push_back(std::move(set->extract(set->begin()).value()));
    }
    return out;
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
    MappingSet results;
    HomSearchLimits hom_limits;
    hom_limits.cancel = limits_.cancel;
    bool enterable = false;
    ForEachHomomorphism(
        tree_.label(c), db_, key,
        [&](const Mapping& ext) {
          enterable = true;
          if (!Step()) return false;
          AddCompletions(c, node_free, ext, &results);
          return !(overflow_ || cancelled_);
        },
        hom_limits);
    std::optional<std::vector<Mapping>> out;
    if (enterable) out = Drain(&results);
    // The root is completed exactly once, so its entry would be an unread
    // copy of p(D).
    if (c != PatternTree::kRoot && !(overflow_ || cancelled_)) {
      node_memo.emplace(std::move(key), out);
    }
    return out;
  }

  // Adds to `results` the projected completions of c's subtree that
  // extend `ext`, a match of c's label: ext restricted to `node_free`
  // (c's free variables) times every combination of the completions of
  // c's enterable children under ext.
  void AddCompletions(NodeId c, const std::vector<VariableId>& node_free,
                      const Mapping& ext, MappingSet* results) {
    std::vector<std::vector<Mapping>> child_sets;
    for (NodeId d : tree_.children(c)) {
      std::optional<std::vector<Mapping>> cs = Completions(d, ext);
      if (overflow_ || cancelled_) return;
      if (cs.has_value()) child_sets.push_back(std::move(*cs));
    }
    std::function<void(size_t, const Mapping&)> combine =
        [&](size_t idx, const Mapping& acc) {
          if (overflow_ || cancelled_) return;
          if (idx == child_sets.size()) {
            if (!Step()) return;
            results->insert(acc);
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
    combine(0, ext.RestrictTo(node_free));
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

// True when the root binds the smallest free variable. Every answer
// extends a root match, so every row of p(D) then starts with that
// variable's binding.
bool RowsComeInRootBlocks(const PatternTree& tree) {
  return !tree.free_vars().empty() &&
         tree.TopNode(tree.free_vars().front()) == PatternTree::kRoot;
}

// The first `first_rows` rows (0 = all) of p(D), or of p_m(D) when
// `maximal`. Without a cap, or when the rows do not come in root
// blocks, all of p(D) is enumerated (and filtered) before the cut.
Result<std::vector<Mapping>> FirstAnswers(const PatternTree& tree,
                                          const Database& db,
                                          const EnumerationLimits& limits,
                                          uint64_t first_rows, bool maximal) {
  if (!tree.validated()) {
    return Status::InvalidArgument("pattern tree must be validated");
  }
  ProjectedEvaluator evaluator(tree, db, limits);
  if (first_rows != 0 && RowsComeInRootBlocks(tree)) {
    return evaluator.RunByRootBlocks(first_rows, maximal);
  }
  Result<std::vector<Mapping>> answers = evaluator.Run();
  if (!answers.ok()) return answers.status();
  std::vector<Mapping> rows = std::move(*answers);
  if (maximal) {
    rows = MaximalMappings(rows, limits.cancel);
    Status token_status = StatusFromToken(limits.cancel);
    if (!token_status.ok()) return token_status;
  }
  if (first_rows != 0 && rows.size() > first_rows) rows.resize(first_rows);
  return rows;
}

}  // namespace

Result<std::vector<Mapping>> EvaluateWdptProjected(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits, uint64_t first_rows) {
  return FirstAnswers(tree, db, limits, first_rows, /*maximal=*/false);
}

Result<std::vector<Mapping>> EvaluateWdptMaximal(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits, uint64_t first_rows) {
  return FirstAnswers(tree, db, limits, first_rows, /*maximal=*/true);
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
