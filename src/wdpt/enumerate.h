// Full answer enumeration: p(D) and the maximal-mapping semantics p_m(D)
// (Definition 2 and Section 3.4 of the paper).

#ifndef WDPT_SRC_WDPT_ENUMERATE_H_
#define WDPT_SRC_WDPT_ENUMERATE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {

/// Limits for answer enumeration. Enumeration of maximal homomorphisms is
/// worst-case exponential in |p| and output-sized in |D|.
struct EnumerationLimits {
  /// Cap on produced maximal homomorphisms before deduplication
  /// (0 = unlimited). Exceeding it yields kResourceExhausted.
  uint64_t max_homomorphisms = uint64_t{1} << 22;
  /// Cap on per-node extension steps explored during the recursive
  /// product construction (0 = unlimited). Guards against instances
  /// whose sets of maximal homomorphisms are combinatorially huge.
  uint64_t max_steps = uint64_t{1} << 26;
  /// Cooperative cancellation; polled during enumeration. A fired token
  /// aborts with kDeadlineExceeded / kCancelled (never a partial answer).
  CancelToken cancel;
};

/// Enumerates the maximal homomorphisms from p to D (deduplicated).
/// The callback may return false to stop early.
Status ForEachMaximalHomomorphism(
    const PatternTree& tree, const Database& db,
    const std::function<bool(const Mapping&)>& callback,
    const EnumerationLimits& limits = EnumerationLimits());

/// p(D): projections of the maximal homomorphisms onto the free
/// variables, deduplicated. Projection-aware: per child subtree, maximal
/// completions are deduplicated by their projection onto the free
/// variables *before* the cross-child product is taken, and completion
/// sets are memoized on the child's interface assignment. Equivalent to
/// projecting ForEachMaximalHomomorphism's output, but the intermediate
/// blow-up is bounded by answer counts instead of homomorphism counts —
/// often exponentially smaller when optional branches have many
/// existential matches.
///
/// All answer-set entry points in this header return their answers in
/// the canonical order (Mapping's lexicographic operator<): any two
/// evaluation paths over the same instance — projected or full
/// enumeration — produce bit-identical vectors, and a truncation to the
/// first K rows is deterministic.
///
/// `first_rows` != 0 returns only the first min(first_rows, |p(D)|)
/// rows of that order. When the root binds the smallest free variable,
/// every row starts with its binding, so the rows come in blocks of
/// equal value, in ascending order: the root is searched once and its
/// matches are completed one block at a time until `first_rows` rows
/// are out. Otherwise all of p(D) is enumerated and cut. A capped call
/// never takes more steps than the uncapped one, so it may succeed
/// under a `max_steps` the full enumeration exceeds.
Result<std::vector<Mapping>> EvaluateWdptProjected(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits = EnumerationLimits(),
    uint64_t first_rows = 0);

/// Reference implementation of p(D) via full maximal-homomorphism
/// enumeration (kept for differential testing and as the baseline in
/// the ablation benches).
Result<std::vector<Mapping>> EvaluateWdptByFullEnumeration(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits = EnumerationLimits());

/// Reference implementation of MaximalMappings: tests every ordered pair
/// of rows with IsStrictlySubsumedBy, O(n^2). Takes no token and is never
/// called by the engine; kept for differential testing of the
/// domain-grouped filter.
std::vector<Mapping> MaximalMappingsByPairwiseScan(
    const std::vector<Mapping>& mappings);

/// p_m(D): the subsumption-maximal elements of p(D) (Section 3.4). The
/// maximality filter polls `limits.cancel` too, so a fired token yields
/// its status at any point of the call. `first_rows` caps the rows as
/// for EvaluateWdptProjected; on the block path the filter runs per
/// block, since a row can only be subsumed by one with the same value
/// of the smallest free variable.
Result<std::vector<Mapping>> EvaluateWdptMaximal(
    const PatternTree& tree, const Database& db,
    const EnumerationLimits& limits = EnumerationLimits(),
    uint64_t first_rows = 0);

/// Filters the subsumption-maximal mappings out of `mappings`, keeping
/// input order and duplicates. Rows are grouped by domain: a row is
/// strictly subsumed exactly when it equals the projection of a row
/// whose domain strictly contains its own, so the filter makes
/// O(n * g) probes for g distinct domains (g <= 2^|free(p)| for
/// the answers of one tree). Polls `cancel` every 32 probes and stops
/// early once it fires; the result is then an incomplete subset, so a
/// caller passing a token must check it afterwards (EvaluateWdptMaximal
/// returns the token's status instead).
std::vector<Mapping> MaximalMappings(const std::vector<Mapping>& mappings,
                                     const CancelToken& cancel = CancelToken());

}  // namespace wdpt

#endif  // WDPT_SRC_WDPT_ENUMERATE_H_
