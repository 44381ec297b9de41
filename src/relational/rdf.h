// RDF view: the single-ternary-relation schema used by semantic-web WDPTs.
//
// "RDF WDPTs" in the paper are WDPTs over a schema with one ternary
// relation. This helper owns that schema plus a Vocabulary and offers
// triple-flavoured convenience constructors.

#ifndef WDPT_SRC_RELATIONAL_RDF_H_
#define WDPT_SRC_RELATIONAL_RDF_H_

#include <string_view>

#include "src/relational/atom.h"
#include "src/relational/database.h"
#include "src/relational/schema.h"
#include "src/relational/term.h"

namespace wdpt {

/// Owns a schema with the single ternary relation `triple` and a
/// vocabulary, and builds triple atoms/facts.
class RdfContext {
 public:
  RdfContext();
  /// A copy of `base`'s one-relation schema with a vocabulary layered
  /// over `base`'s (see Vocabulary(const Vocabulary*)): terms parsed
  /// against it get the ids a full copy of `base` would give them, and
  /// `base` is only read. `base` must outlive the context and must not
  /// change meanwhile.
  explicit RdfContext(const RdfContext* base);

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }
  Vocabulary& vocab() { return vocab_; }
  const Vocabulary& vocab() const { return vocab_; }
  RelationId triple_relation() const { return triple_; }

  /// Builds the triple-pattern atom (s, p, o); each argument is either a
  /// variable ("?x") or a constant (anything not starting with '?').
  Atom TriplePattern(std::string_view s, std::string_view p,
                     std::string_view o);

  /// Adds the ground triple (s, p, o) to `db` (which must use schema()).
  void AddTriple(Database* db, std::string_view s, std::string_view p,
                 std::string_view o);

  /// Creates an empty database over the RDF schema.
  Database MakeDatabase() const { return Database(&schema_); }

  /// Parses "?x" as a variable term, otherwise a constant term.
  Term ParseTerm(std::string_view token);

 private:
  Schema schema_;
  Vocabulary vocab_;
  RelationId triple_;
};

}  // namespace wdpt

#endif  // WDPT_SRC_RELATIONAL_RDF_H_
