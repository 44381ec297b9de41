// Terms: interned constants and variables, plus the Vocabulary interner.
//
// The paper works with disjoint countably infinite sets U (constants) and
// X (variables). We intern both into dense 32-bit id spaces; a Term is a
// tagged id. All structures in the library (atoms, databases, mappings)
// speak ids; a Vocabulary translates to and from the user's strings.

#ifndef WDPT_SRC_RELATIONAL_TERM_H_
#define WDPT_SRC_RELATIONAL_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace wdpt {

/// Dense id of an interned constant (element of U).
using ConstantId = uint32_t;
/// Dense id of an interned variable (element of X).
using VariableId = uint32_t;

/// A term is either a constant or a variable, stored as a tagged 32-bit id.
class Term {
 public:
  /// Constructs the constant term with interned id `id`.
  static Term Constant(ConstantId id) { return Term((id << 1) | 1u); }
  /// Constructs the variable term with interned id `id`.
  static Term Variable(VariableId id) { return Term(id << 1); }

  Term() : raw_(0) {}  // Defaults to variable 0; prefer the factories.

  bool is_constant() const { return (raw_ & 1u) != 0; }
  bool is_variable() const { return (raw_ & 1u) == 0; }

  /// Id accessors; the kind must match.
  ConstantId constant_id() const {
    WDPT_DCHECK(is_constant());
    return raw_ >> 1;
  }
  VariableId variable_id() const {
    WDPT_DCHECK(is_variable());
    return raw_ >> 1;
  }

  /// Raw tagged representation, usable as a hash/sort key.
  uint32_t raw() const { return raw_; }

  friend bool operator==(Term a, Term b) { return a.raw_ == b.raw_; }
  friend bool operator!=(Term a, Term b) { return a.raw_ != b.raw_; }
  friend bool operator<(Term a, Term b) { return a.raw_ < b.raw_; }

 private:
  explicit Term(uint32_t raw) : raw_(raw) {}

  uint32_t raw_;
};

/// Bidirectional string <-> dense id interner.
///
/// An interner can be layered over a `const` base: lookups fall through
/// to the base, and a name the base lacks gets the next id after the
/// base's size, in first-appearance order, so ids agree with those a full
/// copy of the base would hand out. The layer never writes to the base.
/// Lifetime contract: the base must outlive the layer and must not change
/// while the layer is in use.
class Interner {
 public:
  Interner() = default;
  /// Layers a new, empty interner over `base`.
  explicit Interner(const Interner* base)
      : base_(base), base_size_(base->size()) {}
  Interner(const Interner&) = default;
  Interner& operator=(const Interner&) = default;

  /// Returns the id for `name`, interning it on first use.
  uint32_t Intern(std::string_view name);

  /// Returns the id of `name` if interned, or kNotInterned.
  static constexpr uint32_t kNotInterned = UINT32_MAX;
  uint32_t Find(std::string_view name) const;

  /// Returns the name of an interned id.
  const std::string& NameOf(uint32_t id) const;

  /// Number of interned symbols, the base's included.
  size_t size() const { return base_size_ + names_.size(); }

 private:
  const Interner* base_ = nullptr;
  size_t base_size_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
};

/// Shared constant/variable name spaces for a set of queries and databases.
///
/// Queries and the databases they are evaluated over must use the same
/// Vocabulary so that constant ids agree.
class Vocabulary {
 public:
  Vocabulary() = default;
  /// Layers a new, empty vocabulary over `base`: both name spaces are
  /// layered Interners, so `base`'s symbols keep their ids and new ones
  /// get the ids a full copy of `base` would give them. `base` is only
  /// read; it must outlive the layer and must not change meanwhile.
  explicit Vocabulary(const Vocabulary* base)
      : constants_(&base->constants_),
        variables_(&base->variables_),
        fresh_counter_(base->fresh_counter_) {}
  Vocabulary(const Vocabulary&) = default;
  Vocabulary& operator=(const Vocabulary&) = default;

  /// Interns a constant name and returns its term.
  Term Constant(std::string_view name) {
    return Term::Constant(constants_.Intern(name));
  }
  /// Interns a variable name and returns its term.
  Term Variable(std::string_view name) {
    return Term::Variable(variables_.Intern(name));
  }

  /// Interns and returns raw ids.
  ConstantId ConstantIdOf(std::string_view name) {
    return constants_.Intern(name);
  }
  /// Id of a constant if already interned, Interner::kNotInterned
  /// otherwise — a pure lookup, so callers (e.g. WAL remove-replay) can
  /// probe without growing the vocabulary.
  ConstantId FindConstant(std::string_view name) const {
    return constants_.Find(name);
  }
  VariableId VariableIdOf(std::string_view name) {
    return variables_.Intern(name);
  }

  /// Mints a fresh variable not used before, named `<prefix>#<n>`.
  VariableId FreshVariable(std::string_view prefix = "_v");
  /// Mints a fresh constant not used before, named `<prefix>#<n>`.
  ConstantId FreshConstant(std::string_view prefix = "_c");

  const std::string& ConstantName(ConstantId id) const {
    return constants_.NameOf(id);
  }
  const std::string& VariableName(VariableId id) const {
    return variables_.NameOf(id);
  }

  /// Renders a term as "?x" for variables and the plain name for constants.
  std::string TermName(Term t) const;

  size_t num_constants() const { return constants_.size(); }
  size_t num_variables() const { return variables_.size(); }

 private:
  Interner constants_;
  Interner variables_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace wdpt

#endif  // WDPT_SRC_RELATIONAL_TERM_H_
