// Backtracking homomorphism search from atom sets into databases.
//
// This is the workhorse used by CQ evaluation, WDPT evaluation, canonical-
// database containment tests, and the subsumption machinery. Candidate
// tuples are located through the database's CSR column indexes; atoms are
// ordered by estimated fan-out from the per-column statistics, with
// multi-column bindings narrowed by a galloping posting-list
// intersection. It shares no join code with the decomposition kernel of
// src/cq/evaluation.h, so each serves as the other's reference in the
// differential tests.

#ifndef WDPT_SRC_CQ_HOMOMORPHISM_H_
#define WDPT_SRC_CQ_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/cancellation.h"
#include "src/relational/atom.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"

namespace wdpt {

/// Limits for homomorphism enumeration.
struct HomSearchLimits {
  /// Hard cap on backtracking steps; 0 = unlimited. When the cap is hit
  /// the search reports `aborted` through ForEachHomomorphism's return.
  uint64_t max_steps = 0;
  /// Cooperative cancellation; polled periodically during backtracking.
  /// A fired token aborts the search like a hit step limit.
  CancelToken cancel;
};

/// Invoked for every found homomorphism, restricted to the variables of
/// the searched atoms plus the seed. Return false to stop the enumeration.
using HomCallback = std::function<bool(const Mapping&)>;

/// Enumerates homomorphisms h from `atoms` into `db` with seed [= h.
/// Returns false iff the step limit aborted the search (results delivered
/// so far are still valid homomorphisms). Enumeration is exhaustive
/// otherwise (callback saw every homomorphism or requested a stop).
bool ForEachHomomorphism(const std::vector<Atom>& atoms, const Database& db,
                         const Mapping& seed, const HomCallback& callback,
                         const HomSearchLimits& limits = HomSearchLimits());

/// First homomorphism found, or nullopt.
std::optional<Mapping> FindHomomorphism(
    const std::vector<Atom>& atoms, const Database& db,
    const Mapping& seed = Mapping(),
    const HomSearchLimits& limits = HomSearchLimits());

/// True iff some homomorphism exists.
bool HomomorphismExists(const std::vector<Atom>& atoms, const Database& db,
                        const Mapping& seed = Mapping(),
                        const HomSearchLimits& limits = HomSearchLimits());

/// All distinct restrictions to `projection` (sorted variable set) of
/// homomorphisms from `atoms` into `db` extending `seed`. `max_results`
/// caps the output (0 = unlimited).
std::vector<Mapping> AllHomomorphismProjections(
    const std::vector<Atom>& atoms, const Database& db, const Mapping& seed,
    const std::vector<VariableId>& projection, uint64_t max_results = 0,
    const HomSearchLimits& limits = HomSearchLimits());

}  // namespace wdpt

#endif  // WDPT_SRC_CQ_HOMOMORPHISM_H_
