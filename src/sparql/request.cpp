#include "src/sparql/request.h"

#include <cctype>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "src/sparql/parser.h"

namespace wdpt::sparql {

Result<RequestMode> ParseRequestMode(std::string_view name) {
  if (name == "eval") return RequestMode::kEval;
  if (name == "partial") return RequestMode::kPartial;
  if (name == "max") return RequestMode::kMax;
  return Status::InvalidArgument("unknown eval mode '" + std::string(name) +
                                 "' (expected eval|partial|max)");
}

const char* RequestModeName(RequestMode mode) {
  switch (mode) {
    case RequestMode::kEval:
      return "eval";
    case RequestMode::kPartial:
      return "partial";
    case RequestMode::kMax:
      return "max";
  }
  return "eval";
}

Result<Mapping> ParseCandidate(std::string_view text, RdfContext* ctx) {
  Mapping mapping;
  size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
    if (pos >= text.size()) break;
    size_t end = pos;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    std::string_view binding = text.substr(pos, end - pos);
    pos = end;
    size_t eq = binding.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("candidate binding '" +
                                     std::string(binding) +
                                     "' is not of the form ?var=constant");
    }
    std::string_view var = binding.substr(0, eq);
    std::string_view value = binding.substr(eq + 1);
    if (var.size() < 2 || var[0] != '?' || value.empty()) {
      return Status::InvalidArgument("candidate binding '" +
                                     std::string(binding) +
                                     "' is not of the form ?var=constant");
    }
    VariableId v = ctx->vocab().VariableIdOf(var.substr(1));
    ConstantId c = ctx->vocab().ConstantIdOf(value);
    // Mapping::Bind tolerates re-binding to the same constant, so check
    // for duplicates explicitly: a repeated ?var= is a malformed
    // candidate even when the constants agree, and silently accepting it
    // masks client-side bugs.
    if (mapping.IsDefinedOn(v)) {
      return Status::InvalidArgument("candidate binds " + std::string(var) +
                                     " more than once");
    }
    if (!mapping.Bind(v, c)) {
      return Status::InvalidArgument("candidate binds " + std::string(var) +
                                     " twice with different constants");
    }
  }
  return mapping;
}

Result<CompiledRequest> CompileRequest(const QueryRequest& request,
                                       RdfContext* ctx) {
  Result<PatternTree> tree = ParseQuery(request.query, ctx);
  if (!tree.ok()) return tree.status();

  CompiledRequest compiled;
  compiled.tree = std::move(*tree);
  compiled.max_results = request.max_results;

  std::optional<std::chrono::nanoseconds> deadline;
  if (request.deadline_ms != 0) {
    deadline = std::chrono::milliseconds(request.deadline_ms);
  }

  compiled.options.deadline = deadline;
  if (request.cache_bypass) {
    compiled.options.cache.mode = CacheMode::kBypass;
  }

  if (!request.candidate.empty()) {
    Result<Mapping> candidate = ParseCandidate(request.candidate, ctx);
    if (!candidate.ok()) return candidate.status();
    compiled.check = true;
    compiled.candidate = std::move(*candidate);
    switch (request.mode) {
      case RequestMode::kEval:
        compiled.options.semantics = EvalSemantics::kStandard;
        break;
      case RequestMode::kPartial:
        compiled.options.semantics = EvalSemantics::kPartial;
        break;
      case RequestMode::kMax:
        compiled.options.semantics = EvalSemantics::kMaximal;
        break;
    }
    return compiled;
  }

  if (request.mode == RequestMode::kPartial) {
    return Status::InvalidArgument(
        "mode 'partial' requires a candidate mapping: the set of partial "
        "answers is the downward closure of p(D) and is not enumerated");
  }
  compiled.options.semantics = request.mode == RequestMode::kMax
                                   ? EvalSemantics::kMaximal
                                   : EvalSemantics::kStandard;
  // One row past the cap tells the caller whether rows were cut. At
  // max_results = 2^64 - 1 the sum wraps to 0, which asks for all rows.
  if (request.max_results != 0) {
    compiled.options.first_rows = request.max_results + 1;
  }
  return compiled;
}

}  // namespace wdpt::sparql
