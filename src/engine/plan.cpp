#include "src/engine/plan.h"

#include <utility>

namespace wdpt {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

}  // namespace

const char* EvalAlgorithmName(EvalAlgorithm a) {
  switch (a) {
    case EvalAlgorithm::kAuto:
      return "auto";
    case EvalAlgorithm::kNaive:
      return "naive";
    case EvalAlgorithm::kTractableDP:
      return "tractable-dp";
    case EvalAlgorithm::kProjectionFree:
      return "projection-free";
  }
  return "unknown";
}

Result<std::shared_ptr<const Plan>> Plan::Build(const PatternTree& tree,
                                                const PlanOptions& options) {
  if (!tree.validated()) {
    return Status::InvalidArgument("pattern tree must be validated");
  }
  Result<WdptClassification> classification =
      ClassifyWdpt(tree, options.width_bound);
  if (!classification.ok()) return classification.status();

  auto plan = std::shared_ptr<Plan>(new Plan());
  plan->tree_ = tree;
  plan->options_ = options;
  plan->classification_ = *classification;

  EvalAlgorithm algorithm = options.algorithm;
  if (algorithm == EvalAlgorithm::kAuto) {
    if (classification->projection_free) {
      algorithm = EvalAlgorithm::kProjectionFree;
    } else if (classification->locally_tw_k) {
      algorithm = EvalAlgorithm::kTractableDP;
    } else {
      algorithm = EvalAlgorithm::kNaive;
    }
  }
  if (algorithm == EvalAlgorithm::kProjectionFree &&
      !classification->projection_free) {
    return Status::InvalidArgument(
        "projection-free algorithm requested for a tree with projection");
  }
  plan->algorithm_ = algorithm;
  return std::shared_ptr<const Plan>(std::move(plan));
}

void AppendCanonicalTree(std::string* out, const PatternTree& tree) {
  out->reserve(out->size() + 64 + tree.Size() * 8);
  AppendU32(out, static_cast<uint32_t>(tree.num_nodes()));
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    AppendU32(out, tree.parent(n));
    const std::vector<Atom>& atoms = tree.label(n);
    AppendU32(out, static_cast<uint32_t>(atoms.size()));
    for (const Atom& atom : atoms) {
      AppendU32(out, atom.relation);
      AppendU32(out, static_cast<uint32_t>(atom.terms.size()));
      for (Term t : atom.terms) AppendU32(out, t.raw());
    }
  }
  AppendU32(out, static_cast<uint32_t>(tree.free_vars().size()));
  for (VariableId v : tree.free_vars()) AppendU32(out, v);
}

std::string CanonicalPlanKey(const PatternTree& tree,
                             const PlanOptions& options) {
  std::string key;
  AppendU32(&key, static_cast<uint32_t>(options.width_bound));
  AppendU32(&key, static_cast<uint32_t>(options.algorithm));
  AppendCanonicalTree(&key, tree);
  return key;
}

std::shared_ptr<const Plan> PlanCache::Find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const Plan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(plan);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.emplace_front(key, std::move(plan));
  index_[key] = entries_.begin();
  while (capacity_ > 0 && entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace wdpt
