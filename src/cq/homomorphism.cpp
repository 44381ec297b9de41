#include "src/cq/homomorphism.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/algo.h"
#include "src/common/metrics.h"
#include "src/common/status.h"

namespace wdpt {

namespace {

// Internal dense assignment: VariableId -> ConstantId or kUnbound.
constexpr uint64_t kUnbound = UINT64_MAX;

class Searcher {
 public:
  Searcher(const std::vector<Atom>& atoms, const Database& db,
           const Mapping& seed, const HomCallback& callback,
           const HomSearchLimits& limits)
      : atoms_(atoms),
        db_(db),
        callback_(callback),
        limits_(limits) {
    // Size the dense assignment from the maximum variable id seen.
    uint32_t max_var = 0;
    for (const Atom& a : atoms_) {
      for (Term t : a.terms) {
        if (t.is_variable()) max_var = std::max(max_var, t.variable_id());
      }
    }
    for (const auto& [v, c] : seed.entries()) max_var = std::max(max_var, v);
    assignment_.assign(max_var + 1, kUnbound);
    for (const auto& [v, c] : seed.entries()) assignment_[v] = c;
    // Variables we report: atom variables plus the seed's domain.
    report_vars_ = VariablesOf(atoms_);
    for (const auto& [v, c] : seed.entries()) report_vars_.push_back(v);
    SortUnique(&report_vars_);
    done_.assign(atoms_.size(), false);
    depths_.resize(atoms_.size());
  }

  // Returns false if aborted by the step limit.
  bool Run() {
    stopped_ = false;
    aborted_ = false;
    Match(/*depth=*/0, atoms_.size());
    // Index probes were counted locally; flush the totals to the shared
    // counters once so the hot loop never touches their cache lines.
    if (probes_ != 0) {
      metrics::CsrProbes().fetch_add(probes_, std::memory_order_relaxed);
    }
    if (gallops_ != 0) {
      metrics::GallopIntersections().fetch_add(gallops_,
                                               std::memory_order_relaxed);
    }
    return !aborted_;
  }

 private:
  // Reusable per-recursion-depth scratch, so deep searches allocate only
  // on their first visit to each depth.
  struct DepthScratch {
    std::vector<VariableId> newly_bound;
    std::vector<uint32_t> rows;  // Galloped candidate row intersection.
  };

  // The value bound to column `col` of `atom`, or kUnbound.
  uint64_t BoundValue(const Atom& atom, uint32_t col) const {
    Term t = atom.terms[col];
    if (t.is_constant()) return t.constant_id();
    return assignment_[t.variable_id()];
  }

  // CSR-statistics fan-out estimate for matching `atom` now: relation
  // size scaled by 1/distinct for every bound column (independence
  // assumption). Empty relations estimate 0 — a certain dead branch is
  // the best possible pick.
  double EstimatedFanOut(const Atom& atom) const {
    const Relation& rel = db_.relation(atom.relation);
    if (rel.size() == 0) return 0.0;
    double est = static_cast<double>(rel.size());
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      if (BoundValue(atom, col) == kUnbound) continue;
      uint32_t distinct = rel.column_stats(col).distinct_values;
      if (distinct > 1) est /= static_cast<double>(distinct);
    }
    return est;
  }

  // The most constrained remaining atom: minimum estimated fan-out from
  // the CSR statistics (ties on atom index).
  size_t PickAtom() const {
    size_t best = atoms_.size();
    double best_est = 0.0;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (done_[i]) continue;
      double est = EstimatedFanOut(atoms_[i]);
      if (best == atoms_.size() || est < best_est) {
        best = i;
        best_est = est;
      }
    }
    return best;
  }

  // Recursion: done_[i] marks matched atoms, `remaining` counts the rest.
  void Match(size_t depth, size_t remaining) {
    if (stopped_ || aborted_) return;
    ++steps_;
    if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
      aborted_ = true;
      return;
    }
    // Poll cancellation every 1024 steps (a ShouldStop reads the clock).
    if (limits_.cancel.valid() && (steps_ & 0x3FF) == 0 &&
        limits_.cancel.ShouldStop()) {
      aborted_ = true;
      return;
    }
    if (remaining == 0) {
      Report();
      return;
    }
    size_t best = PickAtom();
    const Atom& atom = atoms_[best];
    done_[best] = true;

    const Relation& rel = db_.relation(atom.relation);
    if (rel.size() != 0) {
      WDPT_CHECK(rel.arity() == atom.terms.size());
      MatchAtom(atom, rel, depth, remaining);
    }  // else: no facts, dead branch.
    done_[best] = false;
  }

  // Matches one selected atom: picks the access path, then extends the
  // assignment for every candidate row.
  void MatchAtom(const Atom& atom, const Relation& rel, size_t depth,
                 size_t remaining) {
    DepthScratch& scratch = depths_[depth];

    auto try_row = [&](uint32_t row) {
      std::span<const ConstantId> tuple = rel.Tuple(row);
      // Bind/check all positions.
      scratch.newly_bound.clear();
      bool ok = true;
      for (uint32_t col = 0; col < tuple.size(); ++col) {
        Term t = atom.terms[col];
        if (t.is_constant()) {
          if (t.constant_id() != tuple[col]) {
            ok = false;
            break;
          }
          continue;
        }
        VariableId v = t.variable_id();
        if (assignment_[v] == kUnbound) {
          assignment_[v] = tuple[col];
          scratch.newly_bound.push_back(v);
        } else if (assignment_[v] != tuple[col]) {
          ok = false;
          break;
        }
      }
      if (ok) Match(depth + 1, remaining - 1);
      // `newly_bound` survives the recursion: deeper levels use their
      // own DepthScratch.
      for (VariableId v : scratch.newly_bound) assignment_[v] = kUnbound;
    };

    // Access path: probe the CSR index of bound columns. With two or
    // more, gallop-intersect the two shortest posting lists — try_row
    // re-checks every column, so the candidate superset stays sound.
    std::span<const uint32_t> first, second;
    int num_bound = 0;
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      uint64_t value = BoundValue(atom, col);
      if (value == kUnbound) continue;
      ++probes_;
      std::span<const uint32_t> list =
          rel.RowsMatching(col, static_cast<ConstantId>(value));
      ++num_bound;
      if (num_bound == 1 || list.size() < first.size()) {
        second = first;
        first = list;
      } else if (num_bound == 2 || list.size() < second.size()) {
        second = list;
      }
    }

    if (num_bound == 0) {
      for (uint32_t row = 0; row < rel.size(); ++row) {
        if (stopped_ || aborted_) return;
        try_row(row);
      }
      return;
    }
    if (num_bound >= 2 && !first.empty()) {
      ++gallops_;
      scratch.rows.clear();
      GallopIntersect(first, second, &scratch.rows);
      for (uint32_t row : scratch.rows) {
        if (stopped_ || aborted_) return;
        try_row(row);
      }
      return;
    }
    // One bound column, or an empty shortest list: walk the shortest list.
    // The span stays valid: the database is not mutated mid-search.
    for (uint32_t row : first) {
      if (stopped_ || aborted_) return;
      try_row(row);
    }
  }

  void Report() {
    std::vector<Mapping::Entry> entries;
    entries.reserve(report_vars_.size());
    for (VariableId v : report_vars_) {
      WDPT_DCHECK(assignment_[v] != kUnbound);
      entries.emplace_back(v, static_cast<ConstantId>(assignment_[v]));
    }
    if (!callback_(Mapping(std::move(entries)))) stopped_ = true;
  }

  const std::vector<Atom>& atoms_;
  const Database& db_;
  const HomCallback& callback_;
  HomSearchLimits limits_;
  std::vector<uint64_t> assignment_;
  std::vector<VariableId> report_vars_;
  std::vector<bool> done_;
  std::vector<DepthScratch> depths_;
  uint64_t steps_ = 0;
  uint64_t probes_ = 0;
  uint64_t gallops_ = 0;
  bool stopped_ = false;
  bool aborted_ = false;
};

}  // namespace

bool ForEachHomomorphism(const std::vector<Atom>& atoms, const Database& db,
                         const Mapping& seed, const HomCallback& callback,
                         const HomSearchLimits& limits) {
  metrics::Bump(metrics::HomomorphismCalls());
  Searcher searcher(atoms, db, seed, callback, limits);
  return searcher.Run();
}

std::optional<Mapping> FindHomomorphism(const std::vector<Atom>& atoms,
                                        const Database& db,
                                        const Mapping& seed,
                                        const HomSearchLimits& limits) {
  std::optional<Mapping> found;
  ForEachHomomorphism(
      atoms, db, seed,
      [&found](const Mapping& m) {
        found = m;
        return false;
      },
      limits);
  return found;
}

bool HomomorphismExists(const std::vector<Atom>& atoms, const Database& db,
                        const Mapping& seed, const HomSearchLimits& limits) {
  return FindHomomorphism(atoms, db, seed, limits).has_value();
}

std::vector<Mapping> AllHomomorphismProjections(
    const std::vector<Atom>& atoms, const Database& db, const Mapping& seed,
    const std::vector<VariableId>& projection, uint64_t max_results,
    const HomSearchLimits& limits) {
  std::unordered_set<Mapping, MappingHash> seen;
  std::vector<Mapping> results;
  ForEachHomomorphism(
      atoms, db, seed,
      [&](const Mapping& m) {
        Mapping projected = m.RestrictTo(projection);
        if (seen.insert(projected).second) {
          results.push_back(std::move(projected));
          if (max_results != 0 && results.size() >= max_results) return false;
        }
        return true;
      },
      limits);
  return results;
}

}  // namespace wdpt
