#include "src/cq/evaluation.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/common/algo.h"
#include "src/common/arena.h"
#include "src/common/flat_table.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/cq/homomorphism.h"
#include "src/hypergraph/gyo.h"
#include "src/hypergraph/treewidth.h"

namespace wdpt {

namespace {

// Position of v in the sorted variable list, or -1.
int VarPos(const std::vector<VariableId>& vars, VariableId v) {
  auto it = std::lower_bound(vars.begin(), vars.end(), v);
  return (it != vars.end() && *it == v) ? static_cast<int>(it - vars.begin())
                                        : -1;
}

// ---------------------------------------------------------------------------
// Decomposition kernel
//
// A Yannakakis pipeline over the bags of a join tree or GHD: materialize
// each bag by hash join with projection pushdown, semijoin-reduce along
// the tree (bottom-up, then top-down), enumerate. Tuples live in flat
// row-major arrays, hash state lives in open-addressing FlatTupleSet/Map
// scratch (src/common/flat_table.h) whose wide keys spill into one
// reusable Arena, and the join order inside a bag is driven by the CSR
// column statistics. In steady state an evaluation allocates nothing per
// tuple: all scratch is thread-local and Init() only clears it.
// ---------------------------------------------------------------------------

// A materialized bag in flat form. `num_tuples` is tracked separately so
// zero-arity bags (no variables) can still hold "one empty tuple".
struct FlatBag {
  std::vector<VariableId> vars;  // Sorted.
  uint32_t arity = 0;            // == vars.size().
  std::vector<ConstantId> tuples;  // Row-major, num_tuples * arity.
  uint32_t num_tuples = 0;

  const ConstantId* Row(uint32_t i) const {
    return tuples.data() + static_cast<size_t>(i) * arity;
  }
};

// Thread-local scratch for one evaluation: the arena plus every hash
// table and buffer the pipeline needs. Re-entrant callers (a second
// evaluation started while one is running on this thread) fall back to a
// heap-allocated scratch via ScratchLease.
struct CqScratch {
  Arena arena;
  FlatTupleMap<uint32_t> key_map;  // Build side: join key -> chain head.
  FlatTupleSet pair_set;           // Dedup of (key, keep) build pairs.
  FlatTupleSet next_set;           // Probe output dedup.
  FlatTupleSet semi_set;           // Semijoin key membership.
  FlatTupleSet answer_set;         // Final answer dedup.
  std::vector<ConstantId> keep_pool;   // Flat keep tuples (build chains).
  std::vector<uint32_t> chain_next;    // Per keep tuple: next in chain.
  std::vector<ConstantId> buf;         // Key/tuple assembly buffer.
  std::vector<uint32_t> rows;          // Galloped row candidates.
  // Per-bag enumeration indexes (persist across the whole enumeration,
  // so they get their own pool instead of reusing the tables above).
  std::vector<std::unique_ptr<FlatTupleMap<uint32_t>>> enum_maps;
  bool busy = false;
};

CqScratch* TlsScratch() {
  static thread_local CqScratch scratch;
  return &scratch;
}

// Leases the thread-local scratch, or a private heap one if the
// thread-local is already held by an outer evaluation on this thread.
// Resets the arena (publishing its high-water mark) on release.
class ScratchLease {
 public:
  ScratchLease() {
    CqScratch* tls = TlsScratch();
    if (!tls->busy) {
      tls->busy = true;
      scratch_ = tls;
    } else {
      owned_ = std::make_unique<CqScratch>();
      scratch_ = owned_.get();
    }
  }
  ~ScratchLease() {
    scratch_->arena.Reset();
    if (owned_ == nullptr) scratch_->busy = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  CqScratch* operator->() { return scratch_; }
  CqScratch& operator*() { return *scratch_; }

 private:
  CqScratch* scratch_;
  std::unique_ptr<CqScratch> owned_;
};

// Local CSR-probe/gallop tallies, flushed to the global counters once
// per evaluation (see src/common/metrics.h).
struct KernelCounters {
  uint64_t probes = 0;
  uint64_t gallops = 0;

  ~KernelCounters() {
    if (probes != 0) {
      metrics::CsrProbes().fetch_add(probes, std::memory_order_relaxed);
    }
    if (gallops != 0) {
      metrics::GallopIntersections().fetch_add(gallops,
                                               std::memory_order_relaxed);
    }
  }
};

// Estimated result rows of matching `atom` once the variables in
// `bound` (sorted) are fixed: relation size scaled by 1/distinct for
// every constant or bound-variable column (independence assumption).
double EstimatedAtomFanOut(const Atom& atom, const Database& db,
                           const std::vector<VariableId>& bound) {
  const Relation& rel = db.relation(atom.relation);
  if (rel.size() == 0) return 0.0;
  double est = static_cast<double>(rel.size());
  for (uint32_t col = 0; col < atom.terms.size(); ++col) {
    Term t = atom.terms[col];
    if (t.is_variable() && !SortedContains(bound, t.variable_id())) continue;
    uint32_t distinct = rel.column_stats(col).distinct_values;
    if (distinct > 1) est /= static_cast<double>(distinct);
  }
  return est;
}

// Statistics-driven join order: maximize variables shared with what is
// already joined (to stay connected and keep intermediates narrow),
// tie-break on the smaller estimated fan-out from the CSR statistics.
std::vector<uint32_t> StatsAtomOrder(const std::vector<Atom>& atoms,
                                     const Database& db) {
  std::vector<uint32_t> order;
  std::vector<bool> used(atoms.size(), false);
  std::vector<VariableId> bound;
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = atoms.size();
    int best_shared = -1;
    double best_est = 0.0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      int shared = static_cast<int>(
          SortedIntersection(atoms[i].Variables(), bound).size());
      double est = EstimatedAtomFanOut(atoms[i], db, bound);
      if (best == atoms.size() || shared > best_shared ||
          (shared == best_shared && est < best_est)) {
        best_shared = shared;
        best_est = est;
        best = i;
      }
    }
    used[best] = true;
    order.push_back(static_cast<uint32_t>(best));
    bound = SortedUnion(bound, atoms[best].Variables());
  }
  return order;
}

// Materializes the distinct projections onto `bag_vars` of the join of
// `atoms` into `out` (whose vars must be pre-set to bag_vars):
// statistics-ordered build/probe hash joins with projection pushdown;
// the build side scans only CSR posting lists when the atom has
// constant columns. Returns false on cancellation (out is invalid).
bool JoinAndProject(const std::vector<Atom>& atoms, const Database& db,
                    const std::vector<VariableId>& bag_vars,
                    const CancelToken& cancel, CqScratch* scratch,
                    KernelCounters* counters, FlatBag* out) {
  std::vector<uint32_t> order = StatsAtomOrder(atoms, db);

  // Current intermediate relation over cur_vars: starts as the nullary
  // "one empty tuple".
  std::vector<VariableId> cur_vars;
  std::vector<ConstantId> cur;
  uint32_t cur_count = 1;
  uint32_t cur_arity = 0;

  for (size_t step = 0; step < order.size(); ++step) {
    if (cancel.valid() && cancel.ShouldStop()) return false;
    const Atom& atom = atoms[order[step]];
    std::vector<VariableId> atom_vars = atom.Variables();
    // Variables needed after this step.
    std::vector<VariableId> needed = bag_vars;
    for (size_t later = step + 1; later < order.size(); ++later) {
      needed = SortedUnion(needed, atoms[order[later]].Variables());
    }
    std::vector<VariableId> next_vars =
        SortedIntersection(SortedUnion(cur_vars, atom_vars), needed);
    std::vector<VariableId> join_vars =
        SortedIntersection(atom_vars, cur_vars);
    // What the atom contributes beyond the join key.
    std::vector<VariableId> atom_keep =
        SortedIntersection(SortedDifference(atom_vars, join_vars), needed);

    const Relation& rel = db.relation(atom.relation);
    if (rel.size() == 0) {
      out->num_tuples = 0;
      out->tuples.clear();
      return true;
    }
    WDPT_CHECK(rel.arity() == atom.terms.size());

    const uint32_t key_arity = static_cast<uint32_t>(join_vars.size());
    const uint32_t keep_arity = static_cast<uint32_t>(atom_keep.size());
    const uint32_t next_arity = static_cast<uint32_t>(next_vars.size());

    // Per-column plan: constant value or variable's key/keep slots, plus
    // the first column holding the same variable (repeated-variable
    // consistency is checked against that column).
    struct ColPlan {
      bool is_const;
      ConstantId const_val;
      int key_pos;
      int keep_pos;
      uint32_t first_col;
    };
    std::vector<ColPlan> plan(atom.terms.size());
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      Term t = atom.terms[col];
      ColPlan& p = plan[col];
      if (t.is_constant()) {
        p = {true, t.constant_id(), -1, -1, col};
        continue;
      }
      VariableId v = t.variable_id();
      p.is_const = false;
      p.const_val = 0;
      p.key_pos = VarPos(join_vars, v);
      p.keep_pos = VarPos(atom_keep, v);
      p.first_col = col;
      for (uint32_t c = 0; c < col; ++c) {
        if (atom.terms[c].is_variable() &&
            atom.terms[c].variable_id() == v) {
          p.first_col = c;
          break;
        }
      }
    }

    // Access path for the build scan: constant columns narrow the scan
    // to their CSR posting lists; two or more gallop-intersect the two
    // shortest (every column is re-checked below, so a superset is fine).
    std::span<const uint32_t> first, second;
    int num_const = 0;
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      if (!plan[col].is_const) continue;
      ++counters->probes;
      std::span<const uint32_t> list =
          rel.RowsMatching(col, plan[col].const_val);
      ++num_const;
      if (num_const == 1 || list.size() < first.size()) {
        second = first;
        first = list;
      } else if (num_const == 2 || list.size() < second.size()) {
        second = list;
      }
    }
    if (num_const >= 2 && !first.empty()) {
      ++counters->gallops;
      scratch->rows.clear();
      GallopIntersect(first, second, &scratch->rows);
      first = scratch->rows;
    }

    // Build: key -> chain of distinct keep projections. Chains thread
    // through chain_next into keep_pool rows; pair_set dedups the
    // (key, keep) combination.
    scratch->key_map.Init(key_arity, &scratch->arena);
    scratch->pair_set.Init(key_arity + keep_arity, &scratch->arena);
    scratch->keep_pool.clear();
    scratch->chain_next.clear();
    scratch->buf.resize(static_cast<size_t>(key_arity) + keep_arity);
    ConstantId* key_buf = scratch->buf.data();
    ConstantId* keep_buf = scratch->buf.data() + key_arity;
    constexpr uint32_t kNoChain = UINT32_MAX;

    auto build_row = [&](uint32_t row) {
      std::span<const ConstantId> fact = rel.Tuple(row);
      for (uint32_t col = 0; col < fact.size(); ++col) {
        const ColPlan& p = plan[col];
        if (p.is_const) {
          if (p.const_val != fact[col]) return;
          continue;
        }
        if (p.first_col != col) {
          if (fact[p.first_col] != fact[col]) return;
          continue;
        }
        if (p.key_pos >= 0) key_buf[p.key_pos] = fact[col];
        if (p.keep_pos >= 0) keep_buf[p.keep_pos] = fact[col];
      }
      bool inserted = false;
      scratch->pair_set.InsertOrFind(scratch->buf.data(), &inserted);
      if (!inserted) return;
      uint32_t& head = scratch->key_map.InsertOrFind(key_buf, kNoChain);
      uint32_t idx = static_cast<uint32_t>(scratch->chain_next.size());
      scratch->keep_pool.insert(scratch->keep_pool.end(), keep_buf,
                                keep_buf + keep_arity);
      scratch->chain_next.push_back(head);
      head = idx;
    };
    if (num_const > 0) {
      for (uint32_t row : first) build_row(row);
    } else {
      for (uint32_t row = 0; row < rel.size(); ++row) build_row(row);
    }
    if (scratch->key_map.size() == 0) {
      out->num_tuples = 0;
      out->tuples.clear();
      return true;
    }

    // Probe the current intermediate against the build table.
    scratch->next_set.Init(next_arity, &scratch->arena);
    std::vector<int> cur_to_next(cur_vars.size());
    for (size_t i = 0; i < cur_vars.size(); ++i) {
      cur_to_next[i] = VarPos(next_vars, cur_vars[i]);
    }
    std::vector<int> keep_to_next(atom_keep.size());
    for (size_t i = 0; i < atom_keep.size(); ++i) {
      keep_to_next[i] = VarPos(next_vars, atom_keep[i]);
    }
    std::vector<int> cur_key_pos(join_vars.size());
    for (size_t i = 0; i < join_vars.size(); ++i) {
      cur_key_pos[i] = VarPos(cur_vars, join_vars[i]);
      WDPT_CHECK(cur_key_pos[i] >= 0);
    }
    std::vector<ConstantId> probe_buf(
        static_cast<size_t>(key_arity) + next_arity);
    ConstantId* probe_key = probe_buf.data();
    ConstantId* next_buf = probe_buf.data() + key_arity;
    uint64_t probes = 0;
    for (uint32_t ti = 0; ti < cur_count; ++ti) {
      if (cancel.valid() && (++probes & 0xFFF) == 0 && cancel.ShouldStop()) {
        return false;
      }
      const ConstantId* tuple =
          cur.data() + static_cast<size_t>(ti) * cur_arity;
      for (size_t i = 0; i < join_vars.size(); ++i) {
        probe_key[i] = tuple[cur_key_pos[i]];
      }
      const uint32_t* head = scratch->key_map.Find(probe_key);
      if (head == nullptr) continue;
      for (size_t i = 0; i < cur_vars.size(); ++i) {
        if (cur_to_next[i] >= 0) next_buf[cur_to_next[i]] = tuple[i];
      }
      for (uint32_t idx = *head; idx != kNoChain;
           idx = scratch->chain_next[idx]) {
        const ConstantId* keep =
            scratch->keep_pool.data() + static_cast<size_t>(idx) * keep_arity;
        for (size_t i = 0; i < atom_keep.size(); ++i) {
          if (keep_to_next[i] >= 0) next_buf[keep_to_next[i]] = keep[i];
        }
        scratch->next_set.InsertOrFind(next_buf);
      }
    }

    cur_vars = std::move(next_vars);
    cur_arity = next_arity;
    cur_count = scratch->next_set.size();
    cur.clear();
    scratch->next_set.AppendAll(&cur);
    // Everything the step spilled to the arena is dead now: the
    // intermediate was copied out of next_set into a plain vector.
    scratch->arena.Reset();
    if (cur_count == 0) {
      out->num_tuples = 0;
      out->tuples.clear();
      return true;
    }
  }
  WDPT_CHECK(cur_vars == bag_vars);
  out->arity = static_cast<uint32_t>(bag_vars.size());
  out->tuples = std::move(cur);
  out->num_tuples = cur_count;
  return true;
}

// Semijoin: keep a's tuples whose projection onto `shared` appears among
// b's projections onto `shared`. In-place compaction; the membership set
// lives in scratch and the arena is reset afterwards.
void Semijoin(FlatBag* a, const FlatBag& b,
              const std::vector<VariableId>& shared, CqScratch* scratch) {
  metrics::Bump(metrics::SemijoinPasses());
  if (shared.empty()) {
    if (b.num_tuples == 0) {
      a->num_tuples = 0;
      a->tuples.clear();
    }
    return;
  }
  const uint32_t arity = static_cast<uint32_t>(shared.size());
  std::vector<int> b_pos(arity), a_pos(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    b_pos[i] = VarPos(b.vars, shared[i]);
    a_pos[i] = VarPos(a->vars, shared[i]);
    WDPT_DCHECK(b_pos[i] >= 0 && a_pos[i] >= 0);
  }
  scratch->semi_set.Init(arity, &scratch->arena);
  scratch->buf.resize(arity);
  ConstantId* buf = scratch->buf.data();
  for (uint32_t ti = 0; ti < b.num_tuples; ++ti) {
    const ConstantId* row = b.Row(ti);
    for (uint32_t i = 0; i < arity; ++i) buf[i] = row[b_pos[i]];
    scratch->semi_set.InsertOrFind(buf);
  }
  uint32_t kept = 0;
  for (uint32_t ti = 0; ti < a->num_tuples; ++ti) {
    const ConstantId* row = a->Row(ti);
    for (uint32_t i = 0; i < arity; ++i) buf[i] = row[a_pos[i]];
    if (scratch->semi_set.Find(buf) == FlatTupleSet::kNoId) continue;
    if (kept != ti) {
      std::copy(row, row + a->arity,
                a->tuples.data() + static_cast<size_t>(kept) * a->arity);
    }
    ++kept;
  }
  a->num_tuples = kept;
  a->tuples.resize(static_cast<size_t>(kept) * a->arity);
  scratch->arena.Reset();
}

// Core of decomposition-based evaluation over pre-translated bags. Bags
// must cover every atom of `atoms` (each atom's variables inside some
// bag). Returns distinct projections of satisfying assignments onto
// `projection` (sorted).
std::vector<Mapping> EvaluateOverBags(
    const std::vector<Atom>& atoms, const Database& db,
    const std::vector<std::vector<VariableId>>& bag_vars,
    const std::vector<std::vector<uint32_t>>& covers,
    const std::vector<std::pair<uint32_t, uint32_t>>& tree_edges,
    const std::vector<VariableId>& projection, uint64_t max_answers,
    const CancelToken& cancel) {
  if (bag_vars.empty()) {
    // All atoms ground (already checked by caller): one empty answer.
    return {Mapping()};
  }
  const size_t num_bags = bag_vars.size();
  ScratchLease scratch;
  KernelCounters counters;

  // Assign every atom to some bag containing its variables.
  std::vector<std::vector<uint32_t>> assigned(num_bags);
  for (uint32_t ai = 0; ai < atoms.size(); ++ai) {
    std::vector<VariableId> avars = atoms[ai].Variables();
    bool placed = false;
    for (uint32_t bi = 0; bi < num_bags && !placed; ++bi) {
      if (SortedIsSubset(avars, bag_vars[bi])) {
        assigned[bi].push_back(ai);
        placed = true;
      }
    }
    WDPT_CHECK(placed);
  }

  // Materialize bags: join of cover atoms + assigned atoms, projected to
  // the bag's variables.
  std::vector<FlatBag> bags(num_bags);
  for (uint32_t bi = 0; bi < num_bags; ++bi) {
    bags[bi].vars = bag_vars[bi];
    bags[bi].arity = static_cast<uint32_t>(bag_vars[bi].size());
    std::vector<Atom> bag_atoms;
    std::vector<uint32_t> atom_ids =
        covers.empty() ? std::vector<uint32_t>() : covers[bi];
    for (uint32_t ai : assigned[bi]) atom_ids.push_back(ai);
    SortUnique(&atom_ids);
    for (uint32_t ai : atom_ids) bag_atoms.push_back(atoms[ai]);
    // Ensure every bag variable is mentioned by some bag atom (a bag may
    // hold interface variables whose atoms were assigned elsewhere, e.g.
    // in decompositions glued from per-node pieces): add the first atom
    // mentioning each uncovered variable.
    {
      std::vector<VariableId> covered = VariablesOf(bag_atoms);
      for (VariableId v : bags[bi].vars) {
        if (SortedContains(covered, v)) continue;
        bool found = false;
        for (const Atom& a : atoms) {
          if (a.Mentions(v)) {
            bag_atoms.push_back(a);
            covered = SortedUnion(covered, a.Variables());
            found = true;
            break;
          }
        }
        WDPT_CHECK(found);  // Safe queries mention every variable.
      }
    }
    WDPT_CHECK(!bag_atoms.empty());
    if (cancel.valid() && cancel.ShouldStop()) return {};
    if (!JoinAndProject(bag_atoms, db, bags[bi].vars, cancel, &*scratch,
                        &counters, &bags[bi])) {
      return {};
    }
  }

  // Root the tree and run the full reducer (bottom-up then top-down
  // semijoins).
  std::vector<std::vector<uint32_t>> tree_adj(num_bags);
  for (const auto& [a, b] : tree_edges) {
    tree_adj[a].push_back(b);
    tree_adj[b].push_back(a);
  }
  std::vector<uint32_t> parent(num_bags, 0), order;
  {
    std::vector<bool> seen(num_bags, false);
    std::vector<uint32_t> stack = {0};
    seen[0] = true;
    while (!stack.empty()) {
      uint32_t cur = stack.back();
      stack.pop_back();
      order.push_back(cur);
      for (uint32_t next : tree_adj[cur]) {
        if (!seen[next]) {
          seen[next] = true;
          parent[next] = cur;
          stack.push_back(next);
        }
      }
    }
    WDPT_CHECK(order.size() == num_bags);  // Tree edges must connect bags.
  }
  // Bottom-up: parent semijoin child.
  for (size_t i = order.size(); i-- > 1;) {
    uint32_t child = order[i];
    uint32_t par = parent[child];
    std::vector<VariableId> shared =
        SortedIntersection(bags[par].vars, bags[child].vars);
    Semijoin(&bags[par], bags[child], shared, &*scratch);
  }
  // Top-down: child semijoin parent.
  for (size_t i = 1; i < order.size(); ++i) {
    uint32_t child = order[i];
    uint32_t par = parent[child];
    std::vector<VariableId> shared =
        SortedIntersection(bags[par].vars, bags[child].vars);
    Semijoin(&bags[child], bags[par], shared, &*scratch);
  }
  for (const FlatBag& bag : bags) {
    if (bag.num_tuples == 0) return {};
  }

  // Enumerate: DFS in top-down order with per-bag hash indexes on the
  // variables shared with the parent. The indexes (and the answer-dedup
  // set) stay live until the DFS completes, so the arena is not reset
  // again until the lease releases.
  std::vector<std::vector<VariableId>> shared_with_parent(num_bags);
  std::vector<std::vector<int>> shared_pos(num_bags);
  std::vector<std::vector<uint32_t>> enum_next(num_bags);
  while (scratch->enum_maps.size() < num_bags) {
    scratch->enum_maps.push_back(std::make_unique<FlatTupleMap<uint32_t>>());
  }
  constexpr uint32_t kNoChain = UINT32_MAX;
  for (size_t i = 1; i < order.size(); ++i) {
    uint32_t child = order[i];
    const FlatBag& bag = bags[child];
    shared_with_parent[child] =
        SortedIntersection(bags[parent[child]].vars, bag.vars);
    const std::vector<VariableId>& shared = shared_with_parent[child];
    shared_pos[child].resize(shared.size());
    for (size_t s = 0; s < shared.size(); ++s) {
      shared_pos[child][s] = VarPos(bag.vars, shared[s]);
    }
    FlatTupleMap<uint32_t>& index = *scratch->enum_maps[child];
    index.Init(static_cast<uint32_t>(shared.size()), &scratch->arena);
    enum_next[child].assign(bag.num_tuples, kNoChain);
    scratch->buf.resize(std::max<size_t>(scratch->buf.size(), shared.size()));
    // Insert in reverse so the per-key chains iterate ascending.
    for (uint32_t ti = bag.num_tuples; ti-- > 0;) {
      const ConstantId* row = bag.Row(ti);
      for (size_t s = 0; s < shared.size(); ++s) {
        scratch->buf[s] = row[shared_pos[child][s]];
      }
      uint32_t& head = index.InsertOrFind(scratch->buf.data(), kNoChain);
      enum_next[child][ti] = head;
      head = ti;
    }
  }

  // Dense assignment over all variables seen in bags or the projection.
  constexpr uint64_t kUnbound = UINT64_MAX;
  uint32_t max_var = 0;
  for (const FlatBag& bag : bags) {
    for (VariableId v : bag.vars) max_var = std::max(max_var, v);
  }
  for (VariableId v : projection) max_var = std::max(max_var, v);
  std::vector<uint64_t> assignment(static_cast<size_t>(max_var) + 1,
                                   kUnbound);
  std::vector<std::vector<VariableId>> newly(num_bags);

  scratch->answer_set.Init(static_cast<uint32_t>(projection.size()),
                           &scratch->arena);
  std::vector<ConstantId> answer_buf(projection.size());
  std::vector<Mapping> answers;
  bool done = false;

  uint64_t dfs_steps = 0;
  std::function<void(size_t)> dfs = [&](size_t pos) {
    if (done) return;
    if (cancel.valid() && (++dfs_steps & 0xFFF) == 0 && cancel.ShouldStop()) {
      done = true;
      return;
    }
    if (pos == order.size()) {
      for (size_t i = 0; i < projection.size(); ++i) {
        WDPT_CHECK(assignment[projection[i]] != kUnbound);
        answer_buf[i] = static_cast<ConstantId>(assignment[projection[i]]);
      }
      bool inserted = false;
      scratch->answer_set.InsertOrFind(answer_buf.data(), &inserted);
      if (inserted) {
        std::vector<Mapping::Entry> entries;
        entries.reserve(projection.size());
        for (size_t i = 0; i < projection.size(); ++i) {
          entries.emplace_back(projection[i], answer_buf[i]);
        }
        answers.emplace_back(std::move(entries));
        if (max_answers != 0 && answers.size() >= max_answers) done = true;
      }
      return;
    }
    uint32_t bi = order[pos];
    const FlatBag& bag = bags[bi];
    auto try_tuple = [&](uint32_t ti) {
      const ConstantId* tuple = bag.Row(ti);
      std::vector<VariableId>& bound_here = newly[pos];
      bound_here.clear();
      bool ok = true;
      for (uint32_t i = 0; i < bag.arity; ++i) {
        uint64_t& slot = assignment[bag.vars[i]];
        if (slot == kUnbound) {
          slot = tuple[i];
          bound_here.push_back(bag.vars[i]);
        } else if (slot != tuple[i]) {
          ok = false;
          break;
        }
      }
      if (ok) dfs(pos + 1);
      for (VariableId v : bound_here) assignment[v] = kUnbound;
    };
    if (pos == 0) {
      for (uint32_t ti = 0; ti < bag.num_tuples && !done; ++ti) {
        try_tuple(ti);
      }
    } else {
      const std::vector<VariableId>& shared = shared_with_parent[bi];
      scratch->buf.resize(
          std::max<size_t>(scratch->buf.size(), shared.size()));
      for (size_t s = 0; s < shared.size(); ++s) {
        WDPT_DCHECK(assignment[shared[s]] != kUnbound);
        scratch->buf[s] = static_cast<ConstantId>(assignment[shared[s]]);
      }
      const uint32_t* head = scratch->enum_maps[bi]->Find(scratch->buf.data());
      if (head == nullptr) return;
      for (uint32_t ti = *head; ti != kNoChain; ti = enum_next[bi][ti]) {
        if (done) return;
        try_tuple(ti);
      }
    }
  };
  dfs(0);
  return answers;
}

// Separates ground atoms (checked directly) from variable atoms.
bool CheckAndStripGroundAtoms(const std::vector<Atom>& atoms,
                              const Database& db,
                              std::vector<Atom>* with_vars) {
  with_vars->clear();
  for (const Atom& a : atoms) {
    if (a.IsGround()) {
      std::vector<ConstantId> tuple;
      tuple.reserve(a.terms.size());
      for (Term t : a.terms) tuple.push_back(t.constant_id());
      if (!db.ContainsFact(a.relation, tuple)) return false;
    } else {
      with_vars->push_back(a);
    }
  }
  return true;
}

// The widest generalized hypertree decomposition the ladder probes.
constexpr int kMaxAutoWidth = 3;

// The decomposition ladder of kAuto and kDecomposition: Yannakakis when
// `q` is acyclic, else the bag kernel over the first GHD of width
// 2..kMaxAutoWidth. Returns nullopt when neither applies.
std::optional<std::vector<Mapping>> EvaluateByLadder(
    const ConjunctiveQuery& q, const Database& db, uint64_t max_answers,
    const CancelToken& cancel) {
  std::optional<std::vector<Mapping>> answers =
      EvaluateAcyclic(q, db, max_answers, cancel);
  if (answers.has_value()) return answers;
  std::vector<VariableId> vertex_to_var;
  Hypergraph h = q.BuildHypergraph(&vertex_to_var);
  if (h.num_vertices > kMaxExactVertices) return std::nullopt;
  for (int k = 2; k <= kMaxAutoWidth; ++k) {
    std::optional<HypertreeDecomposition> hd = FindHypertreeDecomposition(h, k);
    if (hd.has_value()) {
      return EvaluateWithDecomposition(q, db, *hd, vertex_to_var, max_answers,
                                       cancel);
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<Mapping> EvaluateWithDecomposition(
    const ConjunctiveQuery& q, const Database& db,
    const HypertreeDecomposition& hd,
    const std::vector<VariableId>& vertex_to_var, uint64_t max_answers,
    const CancelToken& cancel) {
  std::vector<Atom> with_vars;
  if (!CheckAndStripGroundAtoms(q.atoms, db, &with_vars)) return {};
  // Translate bags from dense vertex ids to variable ids. Covers refer to
  // hyperedge indexes == q.atoms indexes, which we must remap to the
  // ground-stripped list.
  std::vector<std::vector<VariableId>> bag_vars(hd.td.bags.size());
  for (size_t i = 0; i < hd.td.bags.size(); ++i) {
    for (uint32_t v : hd.td.bags[i]) bag_vars[i].push_back(vertex_to_var[v]);
    SortUnique(&bag_vars[i]);
  }
  std::vector<uint32_t> old_to_new(q.atoms.size(), UINT32_MAX);
  {
    uint32_t next = 0;
    for (uint32_t ai = 0; ai < q.atoms.size(); ++ai) {
      if (!q.atoms[ai].IsGround()) old_to_new[ai] = next++;
    }
  }
  std::vector<std::vector<uint32_t>> covers(hd.covers.size());
  for (size_t i = 0; i < hd.covers.size(); ++i) {
    for (uint32_t e : hd.covers[i]) {
      if (old_to_new[e] != UINT32_MAX) covers[i].push_back(old_to_new[e]);
    }
  }
  return EvaluateOverBags(with_vars, db, bag_vars, covers, hd.td.edges,
                          q.free_vars, max_answers, cancel);
}

std::optional<std::vector<Mapping>> EvaluateAcyclic(const ConjunctiveQuery& q,
                                                    const Database& db,
                                                    uint64_t max_answers,
                                                    const CancelToken& cancel) {
  std::vector<VariableId> vertex_to_var;
  Hypergraph h = q.BuildHypergraph(&vertex_to_var);
  JoinTree jt = GyoJoinTree(h);
  if (!jt.acyclic) return std::nullopt;

  std::vector<Atom> with_vars;
  if (!CheckAndStripGroundAtoms(q.atoms, db, &with_vars)) {
    return std::vector<Mapping>();
  }

  // Bags: one per non-ground atom; tree edges from the GYO join forest
  // (forest roots chained).
  std::vector<std::vector<VariableId>> bag_vars;
  std::vector<std::vector<uint32_t>> covers;
  std::vector<uint32_t> atom_to_bag(q.atoms.size(), UINT32_MAX);
  for (uint32_t ai = 0; ai < q.atoms.size(); ++ai) {
    if (q.atoms[ai].IsGround()) continue;
    atom_to_bag[ai] = static_cast<uint32_t>(bag_vars.size());
    std::vector<VariableId> vars = q.atoms[ai].Variables();
    bag_vars.push_back(std::move(vars));
    covers.push_back({static_cast<uint32_t>(covers.size())});
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  int last_root = -1;
  for (uint32_t ai = 0; ai < q.atoms.size(); ++ai) {
    if (atom_to_bag[ai] == UINT32_MAX) continue;
    // Walk up the join forest to the nearest non-ground ancestor.
    uint32_t anc = jt.parent[ai];
    while (anc != jt.parent[anc] && atom_to_bag[anc] == UINT32_MAX) {
      anc = jt.parent[anc];
    }
    if (anc != ai && atom_to_bag[anc] != UINT32_MAX &&
        atom_to_bag[anc] != atom_to_bag[ai]) {
      edges.emplace_back(atom_to_bag[ai], atom_to_bag[anc]);
    } else if (jt.parent[ai] == ai || atom_to_bag[anc] == UINT32_MAX ||
               anc == ai) {
      if (last_root >= 0) {
        edges.emplace_back(static_cast<uint32_t>(last_root),
                           atom_to_bag[ai]);
      }
      last_root = static_cast<int>(atom_to_bag[ai]);
    }
  }
  return EvaluateOverBags(with_vars, db, bag_vars, covers, edges,
                          q.free_vars, max_answers, cancel);
}

bool DecideNonEmpty(const std::vector<Atom>& atoms, const Database& db,
                    const Mapping& seed, const CqEvalOptions& options) {
  if (options.cancel.valid() && options.cancel.ShouldStop()) return false;
  HomSearchLimits hom_limits;
  hom_limits.cancel = options.cancel;
  std::vector<Atom> substituted = SubstituteMapping(atoms, seed);
  ConjunctiveQuery boolean_q;
  boolean_q.atoms = std::move(substituted);

  if (options.strategy == CqEvalStrategy::kBacktracking) {
    std::vector<Atom> with_vars;
    if (!CheckAndStripGroundAtoms(boolean_q.atoms, db, &with_vars)) {
      return false;
    }
    return HomomorphismExists(with_vars, db, Mapping(), hom_limits);
  }

  std::optional<std::vector<Mapping>> answers =
      EvaluateByLadder(boolean_q, db, /*max_answers=*/1, options.cancel);
  if (answers.has_value()) return !answers->empty();
  if (options.strategy == CqEvalStrategy::kDecomposition) {
    // Width exceeded the probe bound; use the widest decomposition found
    // via min-fill over the primal graph (still correct, possibly slow).
    std::vector<VariableId> vertex_to_var;
    Graph primal = boolean_q.BuildHypergraph(&vertex_to_var).ToPrimalGraph();
    TreeDecomposition td;
    TreewidthUpperBound(primal, &td);
    HypertreeDecomposition hd;
    hd.td = std::move(td);
    hd.covers.assign(hd.td.bags.size(), {});
    return !EvaluateWithDecomposition(boolean_q, db, hd, vertex_to_var,
                                      /*max_answers=*/1, options.cancel)
                .empty();
  }
  // kAuto fallback.
  std::vector<Atom> with_vars;
  if (!CheckAndStripGroundAtoms(boolean_q.atoms, db, &with_vars)) {
    return false;
  }
  return HomomorphismExists(with_vars, db, Mapping(), hom_limits);
}

bool CqEval(const ConjunctiveQuery& q, const Database& db, const Mapping& h,
            const CqEvalOptions& options) {
  // Answers are defined exactly on the free variables.
  if (h.Domain() != q.free_vars) return false;
  return DecideNonEmpty(q.atoms, db, h, options);
}

std::vector<Mapping> EvaluateCq(const ConjunctiveQuery& q, const Database& db,
                                const CqEvalOptions& options) {
  WDPT_CHECK(q.IsSafe());
  if (options.strategy != CqEvalStrategy::kBacktracking) {
    std::optional<std::vector<Mapping>> answers =
        EvaluateByLadder(q, db, options.max_answers, options.cancel);
    if (answers.has_value()) return std::move(*answers);
  }
  std::vector<Atom> with_vars;
  if (!CheckAndStripGroundAtoms(q.atoms, db, &with_vars)) return {};
  if (with_vars.empty()) return {Mapping()};
  HomSearchLimits hom_limits;
  hom_limits.cancel = options.cancel;
  return AllHomomorphismProjections(with_vars, db, Mapping(), q.free_vars,
                                    options.max_answers, hom_limits);
}

}  // namespace wdpt
