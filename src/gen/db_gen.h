// Synthetic database generators for tests, examples and benches.

#ifndef WDPT_SRC_GEN_DB_GEN_H_
#define WDPT_SRC_GEN_DB_GEN_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/relational/rdf.h"
#include "src/relational/schema.h"

namespace wdpt::gen {

/// Random directed graph over the binary relation `E`.
struct RandomGraphOptions {
  uint32_t num_vertices = 100;
  uint64_t num_edges = 300;
  uint64_t seed = 1;
};

/// Creates (or reuses) relation "E" in `schema` and fills a database with
/// `num_edges` distinct random edges over constants "n0".."n<k>".
Database MakeRandomGraphDb(Schema* schema, Vocabulary* vocab,
                           const RandomGraphOptions& options,
                           RelationId* edge_rel);

/// The paper's running-example domain (Figure 1) at scale: bands with
/// records; a fraction of records carries an NME rating, a fraction of
/// bands carries a formation year, and a fraction of records predates
/// 2010 (so the mandatory pattern filters them out).
struct MusicCatalogOptions {
  uint32_t num_bands = 100;
  uint32_t records_per_band = 5;
  double rating_fraction = 0.5;     ///< Records with an NME_rating triple.
  double formed_fraction = 0.5;     ///< Bands with a formed_in triple.
  double recent_fraction = 0.8;     ///< Records published "after_2010".
  uint64_t seed = 1;
};

/// Builds the catalog as an RDF database of `ctx`.
Database MakeMusicCatalog(RdfContext* ctx, const MusicCatalogOptions& options);

/// A deterministic catalog of `bands` bands in the same shape, as
/// "s p o" lines: every band records four titles, and ratings, recency
/// and formation years appear with fixed-pattern gaps, so the OPT
/// branches bind only sometimes.
std::string CatalogTriples(uint32_t bands);

}  // namespace wdpt::gen

#endif  // WDPT_SRC_GEN_DB_GEN_H_
