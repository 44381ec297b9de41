// Reference answers for the serving benchmark.
//
// Every expected response comes from evaluators that the serving path's
// rewrites leave alone: p(D) from EvaluateWdptByFullEnumeration (all
// maximal homomorphisms, projected), p_m(D) from an all-pairs
// subsumption filter written here rather than MaximalMappings, EVAL from
// EvalNaive, and PARTIAL-EVAL / MAX-EVAL from the reference p(D) and
// p_m(D) of the instance anchored at the candidate's root binding.
// Queries and candidates are compiled against a private copy of the
// reference context, exactly as the server compiles them against a copy
// of its snapshot context, so rendered rows agree byte for byte.

#ifndef WDPT_PERFBENCH_REFERENCE_H_
#define WDPT_PERFBENCH_REFERENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/relational/mapping.h"

namespace perfbench {

/// One mapping by names: (variable without '?', constant) pairs.
using Binding = std::vector<std::pair<std::string, std::string>>;

/// "?x=a ?y=b": the wire form of a candidate.
std::string CandidateText(const Binding& binding);

/// A candidate check together with the anchored query its PARTIAL /
/// MAX-EVAL reference enumerates: `anchored_query` is the check query
/// with root variable `anchor_var` replaced by the constant
/// `anchor_value` (the candidate binds anchor_var to it).
struct CheckSpec {
  std::string query;
  std::string candidate;
  std::string anchored_query;
  std::string anchor_var;    ///< Without the leading '?'.
  std::string anchor_value;
};

/// The reference copy of the served database, kept in step with the
/// server by applying the same ingest batches in the same order.
class RefState {
 public:
  /// Loads `triples`; aborts the process on malformed input (the
  /// generators produce it, so failure is a benchmark bug).
  explicit RefState(const std::string& triples);
  RefState(const RefState&) = delete;
  RefState& operator=(const RefState&) = delete;

  void Apply(const std::vector<wdpt::storage::TripleOp>& ops);
  uint64_t facts() const { return db_.TotalFacts(); }
  uint64_t FactSetDigest() const { return FactDigest(ctx_, db_); }

  /// Reference p(D) rows of `query` (rendered like the server renders
  /// them); `maximal` filters them to p_m(D) first.
  std::vector<std::string> Rows(const std::string& query, bool maximal) const;

  /// Reference verdict of a check of `kind`.
  bool Verdict(Kind kind, const CheckSpec& spec) const;

  /// Reference p(D) of the anchored instance, anchor binding included,
  /// as (variable, constant) names — the material candidates are cut
  /// from.
  std::vector<Binding> AnchoredAnswers(const CheckSpec& spec) const;

 private:
  wdpt::RdfContext ctx_;
  wdpt::Database db_;
};

/// p_m(D) by comparing every pair: keeps each answer that no other
/// answer strictly extends.
std::vector<wdpt::Mapping> MaximalByAllPairs(
    const std::vector<wdpt::Mapping>& answers);

}  // namespace perfbench

#endif  // WDPT_PERFBENCH_REFERENCE_H_
