#include "src/relational/rdf.h"

#include "src/common/status.h"

namespace wdpt {

RdfContext::RdfContext() {
  Result<RelationId> id = schema_.AddRelation("triple", 3);
  WDPT_CHECK(id.ok());
  triple_ = id.value();
}

RdfContext::RdfContext(const RdfContext* base)
    : schema_(base->schema_), vocab_(&base->vocab_), triple_(base->triple_) {}

Term RdfContext::ParseTerm(std::string_view token) {
  if (!token.empty() && token[0] == '?') {
    return vocab_.Variable(token.substr(1));
  }
  return vocab_.Constant(token);
}

Atom RdfContext::TriplePattern(std::string_view s, std::string_view p,
                               std::string_view o) {
  return Atom(triple_, {ParseTerm(s), ParseTerm(p), ParseTerm(o)});
}

void RdfContext::AddTriple(Database* db, std::string_view s,
                           std::string_view p, std::string_view o) {
  ConstantId tuple[3] = {vocab_.ConstantIdOf(s), vocab_.ConstantIdOf(p),
                         vocab_.ConstantIdOf(o)};
  Status status = db->AddFact(triple_, tuple);
  WDPT_CHECK(status.ok());
}

}  // namespace wdpt
