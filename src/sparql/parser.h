// Parser from the {AND, OPT} algebra to well-designed pattern trees.
//
// Grammar (left-associative operators):
//   query   := ['SELECT' var* 'WHERE'] expr
//   expr    := primary (('AND' | 'OPT') primary)*
//   primary := '(' expr ')' | triple
//   triple  := '(' term ',' term ',' term ')'
//   term    := ?var | identifier | "string"
//
// The pattern-tree construction follows Letelier et al.: AND merges root
// labels and concatenates child lists; OPT attaches the right operand's
// tree as an additional child of the left operand's root. The result is
// validated; non-well-designed inputs are rejected with
// kNotWellDesigned. Groups ('(' expr ')') nested more than 1,000 deep
// are a parse error.

#ifndef WDPT_SRC_SPARQL_PARSER_H_
#define WDPT_SRC_SPARQL_PARSER_H_

#include <string_view>

#include "src/common/status.h"
#include "src/relational/rdf.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt::sparql {

/// Parses an {AND, OPT} query over triple patterns into a validated WDPT
/// using `ctx`'s schema and vocabulary. Without a SELECT clause the WDPT
/// is projection-free.
Result<PatternTree> ParseQuery(std::string_view input, RdfContext* ctx);

}  // namespace wdpt::sparql

#endif  // WDPT_SRC_SPARQL_PARSER_H_
