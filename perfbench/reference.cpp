#include "perfbench/reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/sparql/data_loader.h"
#include "src/sparql/parser.h"
#include "src/sparql/request.h"
#include "src/storage/apply.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/eval_naive.h"

namespace perfbench {

namespace {

using wdpt::Mapping;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench reference: %s\n", what.c_str());
  std::exit(3);
}

// Every binding of `small` is also a binding of `big`.
bool Within(const Mapping& small, const Mapping& big) {
  for (const Mapping::Entry& e : small.entries()) {
    std::optional<wdpt::ConstantId> c = big.Get(e.first);
    if (!c.has_value() || *c != e.second) return false;
  }
  return true;
}

wdpt::sparql::CompiledRequest CompileOrDie(const std::string& query,
                                           wdpt::sparql::RequestMode mode,
                                           const std::string& candidate,
                                           wdpt::RdfContext* ctx) {
  wdpt::sparql::QueryRequest request;
  request.query = query;
  request.mode = mode;
  request.candidate = candidate;
  wdpt::Result<wdpt::sparql::CompiledRequest> compiled =
      wdpt::sparql::CompileRequest(request, ctx);
  if (!compiled.ok()) Die(compiled.status().ToString() + " in " + query);
  return std::move(*compiled);
}

// p(D) by full enumeration of the maximal homomorphisms, projected.
std::vector<Mapping> Answers(const wdpt::PatternTree& tree,
                             const wdpt::Database& db) {
  wdpt::EnumerationLimits limits;
  limits.max_homomorphisms = 0;
  limits.max_steps = 0;
  wdpt::Result<std::vector<Mapping>> answers =
      wdpt::EvaluateWdptByFullEnumeration(tree, db, limits);
  if (!answers.ok()) Die(answers.status().ToString());
  return std::move(*answers);
}

Binding ParseCandidate(const std::string& text) {
  Binding binding;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    size_t eq = text.find('=', pos);
    binding.emplace_back(text.substr(pos + 1, eq - pos - 1),
                         text.substr(eq + 1, end - eq - 1));
    pos = end + 1;
  }
  return binding;
}

bool Contains(const Binding& big, const std::pair<std::string, std::string>& e) {
  return std::find(big.begin(), big.end(), e) != big.end();
}

// Every binding of `small` is also a binding of `big`.
bool Within(const Binding& small, const Binding& big) {
  for (const auto& e : small) {
    if (!Contains(big, e)) return false;
  }
  return true;
}

// PARTIAL-EVAL (`kind` kPartial) or MAX-EVAL verdict of `candidate`
// from the reference p(D) of the instance anchored at the candidate's
// root binding, given as AnchoredAnswers returns it.
bool VerdictFromAnswers(Kind kind, const std::vector<Binding>& answers,
                        const Binding& candidate) {
  for (const Binding& a : answers) {
    if (!Within(candidate, a)) continue;
    if (kind == Kind::kPartial) return true;
    // MAX-EVAL: the candidate is this answer, and no answer strictly
    // extends it.
    if (a.size() != candidate.size()) continue;
    for (const Binding& b : answers) {
      if (b.size() > a.size() && Within(a, b)) return false;
    }
    return true;
  }
  return false;
}

}  // namespace

std::vector<Mapping> MaximalByAllPairs(const std::vector<Mapping>& answers) {
  std::vector<Mapping> maximal;
  for (size_t i = 0; i < answers.size(); ++i) {
    bool extended = false;
    for (size_t j = 0; j < answers.size() && !extended; ++j) {
      extended = answers[j].size() > answers[i].size() &&
                 Within(answers[i], answers[j]);
    }
    if (!extended) maximal.push_back(answers[i]);
  }
  return maximal;
}

RefState::RefState(const std::string& triples) : db_(ctx_.MakeDatabase()) {
  wdpt::Status loaded = wdpt::sparql::LoadTriples(triples, &ctx_, &db_);
  if (!loaded.ok()) Die(loaded.ToString());
}

void RefState::Apply(const std::vector<wdpt::storage::TripleOp>& ops) {
  wdpt::storage::ApplyTripleOps(&ctx_, &db_, ops, nullptr, nullptr);
}

std::vector<std::string> RefState::Rows(const std::string& query,
                                        bool maximal) const {
  wdpt::RdfContext ctx = ctx_;
  wdpt::sparql::CompiledRequest compiled =
      CompileOrDie(query, wdpt::sparql::RequestMode::kEval, "", &ctx);
  std::vector<Mapping> answers = Answers(compiled.tree, db_);
  if (maximal) answers = MaximalByAllPairs(answers);
  std::vector<std::string> rows;
  rows.reserve(answers.size());
  for (const Mapping& m : answers) rows.push_back(m.ToString(ctx.vocab()));
  return rows;
}

bool RefState::Verdict(Kind kind, const CheckSpec& spec) const {
  if (kind != Kind::kEval) {
    return VerdictFromAnswers(kind, AnchoredAnswers(spec),
                              ParseCandidate(spec.candidate));
  }
  wdpt::RdfContext ctx = ctx_;
  wdpt::sparql::CompiledRequest compiled = CompileOrDie(
      spec.query, wdpt::sparql::RequestMode::kEval, spec.candidate, &ctx);
  wdpt::Result<bool> verdict =
      wdpt::EvalNaive(compiled.tree, db_, compiled.candidate);
  if (!verdict.ok()) Die(verdict.status().ToString());
  return *verdict;
}

std::vector<Binding> RefState::AnchoredAnswers(const CheckSpec& spec) const {
  wdpt::RdfContext ctx = ctx_;
  wdpt::Result<wdpt::PatternTree> tree =
      wdpt::sparql::ParseQuery(spec.anchored_query, &ctx);
  if (!tree.ok()) Die(tree.status().ToString() + " in " + spec.anchored_query);
  std::vector<Binding> out;
  for (const Mapping& m : Answers(*tree, db_)) {
    Binding binding = {{spec.anchor_var, spec.anchor_value}};
    for (const Mapping::Entry& e : m.entries()) {
      binding.emplace_back(ctx.vocab().VariableName(e.first),
                           ctx.vocab().ConstantName(e.second));
    }
    out.push_back(std::move(binding));
  }
  return out;
}

std::string CandidateText(const Binding& binding) {
  std::string text;
  for (const auto& [var, value] : binding) {
    if (!text.empty()) text += ' ';
    text += '?' + var + '=' + value;
  }
  return text;
}

}  // namespace perfbench
