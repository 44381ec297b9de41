// CQ evaluation: naive backtracking, Yannakakis for acyclic queries, and
// (generalized) hypertree-decomposition based evaluation.
//
// The decomposition-based evaluators realize Theorems 2 and 3 of the
// paper: CQ-EVAL(TW(k)) and CQ-EVAL(HW(k)) run in polynomial time for
// fixed k (the LOGCFL refinement is a parallel-complexity statement; the
// observable consequence is the polynomial data complexity demonstrated
// in the benches). Acyclic and GHD evaluation share one bag kernel, the
// columnar flat-hash Yannakakis pipeline in evaluation.cpp. The
// backtracking search (src/cq/homomorphism.h) is the independent
// evaluator that tests and `bench_kernel --check` compare it against.

#ifndef WDPT_SRC_CQ_EVALUATION_H_
#define WDPT_SRC_CQ_EVALUATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/cancellation.h"
#include "src/cq/cq.h"
#include "src/hypergraph/hypertree.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"

namespace wdpt {

/// Evaluation strategies for DecideNonEmpty / Evaluate.
enum class CqEvalStrategy {
  kBacktracking,   ///< Plain backtracking join (exponential worst case).
  kDecomposition,  ///< GHD-based: join per bag, then Yannakakis.
  kAuto,           ///< Acyclic -> Yannakakis; else GHD of width <= 3;
                   ///< else backtracking.
};

/// Options for CQ evaluation.
struct CqEvalOptions {
  CqEvalStrategy strategy = CqEvalStrategy::kAuto;
  /// Cap on returned answers (0 = unlimited).
  uint64_t max_answers = 0;
  /// Cooperative cancellation/deadline token, polled at safe points of
  /// every evaluation strategy. When it fires, the boolean deciders
  /// return false and the enumerators return what they had — callers that
  /// must distinguish "stopped" from "empty" (the Engine) inspect the
  /// token afterwards and surface kCancelled / kDeadlineExceeded.
  CancelToken cancel;
};

/// True iff h (defined exactly on the free variables) is an answer:
/// h in q(D). This is CQ-EVAL of Section 3.1.
bool CqEval(const ConjunctiveQuery& q, const Database& db, const Mapping& h,
            const CqEvalOptions& options = CqEvalOptions());

/// All answers q(D) as mappings on the free variables.
std::vector<Mapping> EvaluateCq(const ConjunctiveQuery& q, const Database& db,
                                const CqEvalOptions& options = CqEvalOptions());

/// Decides whether `atoms` (with `seed` pre-applied) has any homomorphism
/// into db, i.e. whether the Boolean CQ is true.
bool DecideNonEmpty(const std::vector<Atom>& atoms, const Database& db,
                    const Mapping& seed,
                    const CqEvalOptions& options = CqEvalOptions());

/// Decomposition-based evaluation with an explicit GHD of the query's
/// hypergraph (as produced by FindHypertreeDecomposition on
/// q.BuildHypergraph()). `vertex_to_var` is the dense-vertex -> variable
/// translation from BuildHypergraph. Returns the projections of all
/// satisfying assignments onto q.free_vars.
std::vector<Mapping> EvaluateWithDecomposition(
    const ConjunctiveQuery& q, const Database& db,
    const HypertreeDecomposition& hd,
    const std::vector<VariableId>& vertex_to_var, uint64_t max_answers = 0,
    const CancelToken& cancel = CancelToken());

/// Yannakakis-style evaluation for alpha-acyclic queries. Returns nullopt
/// if the query's hypergraph is not acyclic.
std::optional<std::vector<Mapping>> EvaluateAcyclic(
    const ConjunctiveQuery& q, const Database& db, uint64_t max_answers = 0,
    const CancelToken& cancel = CancelToken());

}  // namespace wdpt

#endif  // WDPT_SRC_CQ_EVALUATION_H_
