// Databases: sets of ground atoms with columnar CSR column indexes.
//
// A Database stores one Relation per relation symbol of its Schema. Tuples
// are deduplicated (a database is a *set* of facts). Per-column indexes
// power the homomorphism search in src/cq/: each column has an immutable
// CSR-style adjacency index — one sorted distinct-value array, one
// offsets array, one packed row-id array — built in a single pass by
// WarmColumnIndexes (or lazily on first probe for private databases) and
// probed by binary search into std::span views, with no per-value heap
// vectors. The same build pass gathers per-column statistics (distinct
// values, max fan-out) that drive the kernel's join ordering.
//
// Mutations (Insert/Remove) do not patch the CSR arrays; they mark the
// built indexes stale in O(1), and the next warm/probe rebuilds once.
// A WAL batch of N removes therefore costs one rebuild on the next
// read, not N. Published snapshots call Freeze() after warming, which
// turns any later would-be lazy rebuild into a hard failure instead of
// a data race (see RowsMatching).

#ifndef WDPT_SRC_RELATIONAL_DATABASE_H_
#define WDPT_SRC_RELATIONAL_DATABASE_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/relational/atom.h"
#include "src/relational/schema.h"
#include "src/relational/term.h"

namespace wdpt {

/// One stored relation: a deduplicated list of fixed-arity tuples.
class Relation {
 public:
  explicit Relation(uint32_t arity) : arity_(arity) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return arity_ == 0 ? 0 : data_.size() / arity_; }

  /// Per-column statistics, gathered during the CSR index build.
  /// Combined with size() they give the kernel its selectivity
  /// estimates: a probe for one value of column c is expected to match
  /// size() / distinct_values rows, and never more than max_fanout.
  struct ColumnStats {
    uint32_t distinct_values = 0;  ///< Distinct constants in the column.
    uint32_t max_fanout = 0;       ///< Largest posting list (rows per value).
  };

  /// Returns the `row`-th tuple.
  std::span<const ConstantId> Tuple(size_t row) const {
    return std::span<const ConstantId>(data_.data() + row * arity_, arity_);
  }

  /// Inserts a tuple; returns false if it was already present. Marks
  /// built column indexes stale (they rebuild on the next warm/probe).
  bool Insert(std::span<const ConstantId> tuple);

  /// Removes a tuple; returns false if it was absent. The last row is
  /// swapped into the vacated slot and built column indexes are marked
  /// stale — a batch of N removes costs one rebuild on the next read,
  /// not N. For *private* databases — a writer's copy of a snapshot
  /// (CloneWithSchema) — never for a published, frozen one.
  bool Remove(std::span<const ConstantId> tuple);

  /// Pre-sizes storage for `rows` tuples (bulk loads).
  void Reserve(size_t rows) {
    data_.reserve(rows * arity_);
    tuple_index_.reserve(rows);
  }

  /// True if the exact tuple is stored.
  bool Contains(std::span<const ConstantId> tuple) const;

  /// Row ids (ascending) whose column `col` holds `value`, as a view
  /// into the CSR index. Builds the index on first use unless the
  /// relation is frozen; the view is invalidated by the next mutation
  /// or rebuild.
  ///
  /// The lazy build mutates shared state, so concurrent first-touch
  /// reads race; shared databases must be warmed (and are Freeze()-d by
  /// the snapshot layer, making an unwarmed probe a WDPT_CHECK failure
  /// rather than a race) before crossing threads.
  std::span<const uint32_t> RowsMatching(uint32_t col, ConstantId value) const;

  /// Statistics for `col`, building the CSR indexes if needed (same
  /// freeze/laziness contract as RowsMatching).
  const ColumnStats& column_stats(uint32_t col) const;

  /// Eagerly builds the CSR index of every column in one pass. After
  /// this call RowsMatching/column_stats are pure reads and safe to
  /// invoke from multiple threads concurrently (as long as no mutation
  /// runs).
  void WarmColumnIndexes() const;

  /// True when the CSR indexes are built and current (no mutation since
  /// the last build).
  bool warmed() const { return index_built_ && !index_stale_; }

  /// Marks the relation as published: it must already be warmed, and
  /// from now on a probe that would need a lazy (re)build aborts
  /// instead of mutating shared state. Mutations themselves stay legal
  /// on a writer's private, unfrozen copy only — a frozen relation's
  /// Insert/Remove also aborts.
  void Freeze() const;

  bool frozen() const { return frozen_; }

 private:
  // CSR column index: rows[offsets[i] .. offsets[i+1]) are the
  // ascending row ids whose column holds values[i]; values is sorted.
  struct ColumnIndex {
    std::vector<ConstantId> values;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> rows;
    ColumnStats stats;
  };

  size_t TupleHash(std::span<const ConstantId> tuple) const;
  bool TupleEquals(size_t row, std::span<const ConstantId> tuple) const;
  void EnsureIndexes() const;
  void BuildIndexes() const;
  void MarkIndexesStale() {
    WDPT_CHECK(!frozen_);
    if (index_built_) index_stale_ = true;
  }

  // Database::CloneWithSchema copies the tuples without the indexes.
  friend class Database;

  uint32_t arity_;
  std::vector<ConstantId> data_;  // Flat row-major tuple storage.
  // Exact-tuple index: hash -> candidate rows (collision chains).
  std::unordered_map<size_t, std::vector<uint32_t>> tuple_index_;
  // CSR per-column indexes, all built together (lazily or by
  // WarmColumnIndexes); `stale` marks a pending rebuild after mutation.
  mutable std::vector<ColumnIndex> column_index_;
  mutable bool index_built_ = false;
  mutable bool index_stale_ = false;
  mutable bool frozen_ = false;
};

/// A database over a Schema: one Relation per relation symbol.
class Database {
 public:
  /// Creates an empty database. `schema` must outlive the database and may
  /// gain additional relations afterwards.
  explicit Database(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const { return *schema_; }

  /// Adds the fact R(tuple). Fails if the arity does not match.
  Status AddFact(RelationId relation, std::span<const ConstantId> tuple);

  /// Adds a ground atom. Fails if the atom has variables or bad arity.
  Status AddAtom(const Atom& atom);

  /// Removes the fact R(tuple); returns false if it was absent (or the
  /// relation never stored anything). See Relation::Remove for the
  /// sharing caveat.
  bool RemoveFact(RelationId relation, std::span<const ConstantId> tuple);

  /// Pre-sizes the relation's storage for `rows` facts (bulk loads).
  /// The relation must exist in the schema.
  void Reserve(RelationId relation, size_t rows) {
    MutableRelation(relation)->Reserve(rows);
  }

  /// Copies the facts, rebinding them to `schema` — which must
  /// describe the same relations (typically the schema of a copied
  /// context). This is how a writer derives a private, mutable next
  /// version from a published snapshot (server::Snapshot's copy
  /// constructor). The copy is never frozen and carries no column
  /// indexes, whatever the source had: its first probe or Freeze
  /// builds them.
  Database CloneWithSchema(const Schema* schema) const;

  /// True if the fact is present.
  bool ContainsFact(RelationId relation,
                    std::span<const ConstantId> tuple) const;

  /// Relation accessor (empty relation if nothing was inserted).
  const Relation& relation(RelationId id) const;

  /// Total number of stored facts.
  size_t TotalFacts() const;

  /// Sorted list of all constants appearing in some fact.
  std::vector<ConstantId> ActiveDomain() const;

  /// Eagerly builds all per-column CSR indexes of all relations, making
  /// subsequent lookups read-only. The Engine calls this before fanning
  /// evaluation tasks across threads.
  void WarmColumnIndexes() const;

  /// Warms, then marks every relation as published: later lazy rebuilds
  /// (and mutations) abort instead of racing. Called by the snapshot
  /// layer on databases it is about to share across threads.
  void Freeze() const;

  /// True when every relation's indexes are built and current.
  bool warmed() const;

  /// Renders all facts, one per line (for debugging and small examples).
  std::string ToString(const Vocabulary& vocab) const;

 private:
  Relation* MutableRelation(RelationId id);

  const Schema* schema_;
  std::vector<Relation> relations_;
};

}  // namespace wdpt

#endif  // WDPT_SRC_RELATIONAL_DATABASE_H_
