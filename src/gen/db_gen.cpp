#include "src/gen/db_gen.h"

#include <random>
#include <set>
#include <string>

namespace wdpt::gen {

Database MakeRandomGraphDb(Schema* schema, Vocabulary* vocab,
                           const RandomGraphOptions& options,
                           RelationId* edge_rel) {
  Result<RelationId> rel = schema->AddRelation("E", 2);
  WDPT_CHECK(rel.ok());
  if (edge_rel != nullptr) *edge_rel = *rel;

  Database db(schema);
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<uint32_t> pick(0, options.num_vertices - 1);
  std::vector<ConstantId> nodes;
  nodes.reserve(options.num_vertices);
  for (uint32_t i = 0; i < options.num_vertices; ++i) {
    nodes.push_back(vocab->ConstantIdOf("n" + std::to_string(i)));
  }
  std::set<std::pair<uint32_t, uint32_t>> used;
  uint64_t max_edges =
      static_cast<uint64_t>(options.num_vertices) * options.num_vertices;
  uint64_t target = std::min(options.num_edges, max_edges);
  while (used.size() < target) {
    uint32_t a = pick(rng);
    uint32_t b = pick(rng);
    if (!used.emplace(a, b).second) continue;
    ConstantId tuple[2] = {nodes[a], nodes[b]};
    Status status = db.AddFact(*rel, tuple);
    WDPT_CHECK(status.ok());
  }
  return db;
}

Database MakeMusicCatalog(RdfContext* ctx,
                          const MusicCatalogOptions& options) {
  Database db = ctx->MakeDatabase();
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (uint32_t b = 0; b < options.num_bands; ++b) {
    std::string band = "band" + std::to_string(b);
    if (coin(rng) < options.formed_fraction) {
      ctx->AddTriple(&db, band, "formed_in",
                     std::to_string(1960 + b % 60));
    }
    for (uint32_t r = 0; r < options.records_per_band; ++r) {
      std::string record = band + "_rec" + std::to_string(r);
      ctx->AddTriple(&db, record, "recorded_by", band);
      ctx->AddTriple(&db, record, "published",
                     coin(rng) < options.recent_fraction ? "after_2010"
                                                         : "before_2010");
      if (coin(rng) < options.rating_fraction) {
        ctx->AddTriple(&db, record, "NME_rating",
                       std::to_string(1 + (b + r) % 10));
      }
    }
  }
  return db;
}

std::string CatalogTriples(uint32_t bands) {
  std::string out;
  for (uint32_t b = 0; b < bands; ++b) {
    std::string band = "band" + std::to_string(b);
    if (b % 2 == 0) {
      out += band + " formed_in year" + std::to_string(1960 + b % 60) + "\n";
    }
    for (uint32_t r = 0; r < 4; ++r) {
      std::string rec = "rec" + std::to_string(b) + "_" + std::to_string(r);
      out += rec + " recorded_by " + band + "\n";
      if ((b * 31 + r) % 10 < 8) {
        out += rec + " published after_2010\n";
      }
      if ((b * 17 + r) % 10 < 5) {
        out += rec + " NME_rating " + std::to_string(1 + (b + r) % 10) + "\n";
      }
    }
  }
  return out;
}

}  // namespace wdpt::gen
