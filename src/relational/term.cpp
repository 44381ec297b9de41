#include "src/relational/term.h"

namespace wdpt {

uint32_t Interner::Intern(std::string_view name) {
  uint32_t id = Find(name);
  if (id != kNotInterned) return id;
  id = static_cast<uint32_t>(size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

uint32_t Interner::Find(std::string_view name) const {
  if (base_ != nullptr) {
    uint32_t id = base_->Find(name);
    if (id != kNotInterned) return id;
  }
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kNotInterned : it->second;
}

const std::string& Interner::NameOf(uint32_t id) const {
  if (id < base_size_) return base_->NameOf(id);
  WDPT_CHECK(id - base_size_ < names_.size());
  return names_[id - base_size_];
}

VariableId Vocabulary::FreshVariable(std::string_view prefix) {
  while (true) {
    std::string name(prefix);
    name += '#';
    name += std::to_string(fresh_counter_++);
    if (variables_.Find(name) == Interner::kNotInterned) {
      return variables_.Intern(name);
    }
  }
}

ConstantId Vocabulary::FreshConstant(std::string_view prefix) {
  while (true) {
    std::string name(prefix);
    name += '#';
    name += std::to_string(fresh_counter_++);
    if (constants_.Find(name) == Interner::kNotInterned) {
      return constants_.Intern(name);
    }
  }
}

std::string Vocabulary::TermName(Term t) const {
  if (t.is_variable()) return "?" + VariableName(t.variable_id());
  return ConstantName(t.constant_id());
}

}  // namespace wdpt
