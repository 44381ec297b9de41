#include "src/relational/database.h"

#include <algorithm>
#include <numeric>

#include "src/common/algo.h"
#include "src/common/hash.h"

namespace wdpt {

size_t Relation::TupleHash(std::span<const ConstantId> tuple) const {
  size_t seed = tuple.size();
  for (ConstantId c : tuple) HashCombine(&seed, std::hash<ConstantId>()(c));
  return seed;
}

bool Relation::TupleEquals(size_t row,
                           std::span<const ConstantId> tuple) const {
  std::span<const ConstantId> stored = Tuple(row);
  return std::equal(stored.begin(), stored.end(), tuple.begin());
}

bool Relation::Insert(std::span<const ConstantId> tuple) {
  WDPT_CHECK(tuple.size() == arity_);
  size_t h = TupleHash(tuple);
  std::vector<uint32_t>& chain = tuple_index_[h];
  for (uint32_t row : chain) {
    if (TupleEquals(row, tuple)) return false;
  }
  MarkIndexesStale();
  uint32_t row = static_cast<uint32_t>(size());
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  chain.push_back(row);
  return true;
}

bool Relation::Remove(std::span<const ConstantId> tuple) {
  if (tuple.size() != arity_) return false;
  size_t h = TupleHash(tuple);
  auto it = tuple_index_.find(h);
  if (it == tuple_index_.end()) return false;
  std::vector<uint32_t>& chain = it->second;
  size_t slot = chain.size();
  for (size_t i = 0; i < chain.size(); ++i) {
    if (TupleEquals(chain[i], tuple)) {
      slot = i;
      break;
    }
  }
  if (slot == chain.size()) return false;
  MarkIndexesStale();
  uint32_t row = chain[slot];
  chain.erase(chain.begin() + slot);
  if (chain.empty()) tuple_index_.erase(it);
  uint32_t last = static_cast<uint32_t>(size()) - 1;
  if (row != last) {
    // Swap the last row into the gap and repoint its index entry. The
    // moved tuple's chain cannot be the one just erased: had it hashed
    // to `h`, it would still be in that chain.
    std::copy(data_.begin() + static_cast<size_t>(last) * arity_,
              data_.begin() + (static_cast<size_t>(last) + 1) * arity_,
              data_.begin() + static_cast<size_t>(row) * arity_);
    size_t moved_hash = TupleHash(Tuple(row));
    for (uint32_t& r : tuple_index_[moved_hash]) {
      if (r == last) {
        r = row;
        break;
      }
    }
  }
  data_.resize(data_.size() - arity_);
  return true;
}

bool Relation::Contains(std::span<const ConstantId> tuple) const {
  if (tuple.size() != arity_) return false;
  auto it = tuple_index_.find(TupleHash(tuple));
  if (it == tuple_index_.end()) return false;
  for (uint32_t row : it->second) {
    if (TupleEquals(row, tuple)) return true;
  }
  return false;
}

void Relation::BuildIndexes() const {
  column_index_.assign(arity_, ColumnIndex{});
  uint32_t rows = static_cast<uint32_t>(size());
  // Scratch reused across columns: row ids sorted by the column's value
  // (stable, so ids stay ascending within one value's group).
  std::vector<uint32_t> order(rows);
  for (uint32_t col = 0; col < arity_; ++col) {
    ColumnIndex& index = column_index_[col];
    std::iota(order.begin(), order.end(), 0u);
    const ConstantId* column = data_.data() + col;
    const uint32_t stride = arity_;
    std::stable_sort(order.begin(), order.end(),
                     [column, stride](uint32_t a, uint32_t b) {
                       return column[static_cast<size_t>(a) * stride] <
                              column[static_cast<size_t>(b) * stride];
                     });
    index.rows = order;
    // One pass over the sorted rows emits the distinct values, their
    // group boundaries, and the fan-out statistics together.
    for (uint32_t i = 0; i < rows; ++i) {
      ConstantId v = column[static_cast<size_t>(order[i]) * stride];
      if (index.values.empty() || index.values.back() != v) {
        index.values.push_back(v);
        index.offsets.push_back(i);
      }
    }
    index.offsets.push_back(rows);
    index.stats.distinct_values = static_cast<uint32_t>(index.values.size());
    for (size_t i = 0; i + 1 < index.offsets.size(); ++i) {
      index.stats.max_fanout = std::max(
          index.stats.max_fanout, index.offsets[i + 1] - index.offsets[i]);
    }
  }
  index_built_ = true;
  index_stale_ = false;
}

void Relation::EnsureIndexes() const {
  if (index_built_ && !index_stale_) return;
  // A frozen relation is shared across threads: rebuilding here would be
  // a data race, and reaching this line means the publisher skipped
  // Freeze()'s warm guarantee or the relation mutated after publication.
  WDPT_CHECK(!frozen_);
  BuildIndexes();
}

void Relation::WarmColumnIndexes() const { EnsureIndexes(); }

void Relation::Freeze() const {
  EnsureIndexes();
  frozen_ = true;
}

std::span<const uint32_t> Relation::RowsMatching(uint32_t col,
                                                 ConstantId value) const {
  WDPT_CHECK(col < arity_);
  EnsureIndexes();
  const ColumnIndex& index = column_index_[col];
  auto it = std::lower_bound(index.values.begin(), index.values.end(), value);
  if (it == index.values.end() || *it != value) return {};
  size_t slot = static_cast<size_t>(it - index.values.begin());
  return std::span<const uint32_t>(index.rows.data() + index.offsets[slot],
                                   index.offsets[slot + 1] -
                                       index.offsets[slot]);
}

const Relation::ColumnStats& Relation::column_stats(uint32_t col) const {
  WDPT_CHECK(col < arity_);
  EnsureIndexes();
  return column_index_[col].stats;
}

Status Database::AddFact(RelationId relation,
                         std::span<const ConstantId> tuple) {
  if (relation >= schema_->num_relations()) {
    return Status::InvalidArgument("unknown relation id " +
                                   std::to_string(relation));
  }
  if (tuple.size() != schema_->Arity(relation)) {
    return Status::InvalidArgument(
        "arity mismatch for " + schema_->Name(relation) + ": got " +
        std::to_string(tuple.size()));
  }
  MutableRelation(relation)->Insert(tuple);
  return Status::Ok();
}

Status Database::AddAtom(const Atom& atom) {
  std::vector<ConstantId> tuple;
  tuple.reserve(atom.terms.size());
  for (Term t : atom.terms) {
    if (!t.is_constant()) {
      return Status::InvalidArgument("database atoms must be ground");
    }
    tuple.push_back(t.constant_id());
  }
  return AddFact(atom.relation, tuple);
}

bool Database::RemoveFact(RelationId relation,
                          std::span<const ConstantId> tuple) {
  if (relation >= relations_.size()) return false;
  return relations_[relation].Remove(tuple);
}

Database Database::CloneWithSchema(const Schema* schema) const {
  // The copy is private to its new owner until it publishes it itself.
  // It skips the column indexes: the owner's next mutation would make
  // them stale, and its Freeze rebuilds them.
  Database copy(schema);
  for (const Relation& r : relations_) {
    Relation& c = copy.relations_.emplace_back(r.arity_);
    c.data_ = r.data_;
    c.tuple_index_ = r.tuple_index_;
  }
  return copy;
}

bool Database::ContainsFact(RelationId relation,
                            std::span<const ConstantId> tuple) const {
  if (relation >= relations_.size()) return false;
  return relations_[relation].Contains(tuple);
}

const Relation& Database::relation(RelationId id) const {
  if (id < relations_.size()) return relations_[id];
  static const Relation* empty = new Relation(1);
  // An untouched relation of any arity has no tuples; the shared empty
  // relation answers size() == 0 and is never indexed by callers (they
  // check size first or match arity via the schema).
  return *empty;
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const Relation& r : relations_) total += r.size();
  return total;
}

void Database::WarmColumnIndexes() const {
  for (const Relation& r : relations_) r.WarmColumnIndexes();
}

void Database::Freeze() const {
  for (const Relation& r : relations_) r.Freeze();
}

bool Database::warmed() const {
  for (const Relation& r : relations_) {
    if (!r.warmed()) return false;
  }
  return true;
}

std::vector<ConstantId> Database::ActiveDomain() const {
  std::vector<ConstantId> dom;
  for (RelationId id = 0; id < relations_.size(); ++id) {
    const Relation& r = relations_[id];
    for (size_t row = 0; row < r.size(); ++row) {
      std::span<const ConstantId> t = r.Tuple(row);
      dom.insert(dom.end(), t.begin(), t.end());
    }
  }
  SortUnique(&dom);
  return dom;
}

std::string Database::ToString(const Vocabulary& vocab) const {
  std::string out;
  for (RelationId id = 0; id < relations_.size(); ++id) {
    const Relation& r = relations_[id];
    for (size_t row = 0; row < r.size(); ++row) {
      out += schema_->Name(id);
      out += '(';
      std::span<const ConstantId> t = r.Tuple(row);
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += vocab.ConstantName(t[i]);
      }
      out += ")\n";
    }
  }
  return out;
}

Relation* Database::MutableRelation(RelationId id) {
  while (relations_.size() <= id) {
    RelationId next = static_cast<RelationId>(relations_.size());
    relations_.emplace_back(schema_->Arity(next));
  }
  return &relations_[id];
}

}  // namespace wdpt

