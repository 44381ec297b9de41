#include "src/server/snapshot.h"

#include "src/sparql/data_loader.h"

namespace wdpt::server {

Result<std::shared_ptr<const Snapshot>> LoadSnapshot(std::string_view triples,
                                                     uint64_t version) {
  auto snapshot = std::make_shared<Snapshot>();
  Status loaded = sparql::LoadTriples(triples, &snapshot->ctx, &snapshot->db);
  if (!loaded.ok()) return loaded;
  snapshot->version = version;
  // Column indexes build lazily on first probe, which is a write;
  // freezing (warm + publish) makes every later lookup a pure read —
  // and turns any missed warm path into a hard failure instead of a
  // data race under concurrent workers.
  snapshot->db.Freeze();
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const Snapshot>> MakeSnapshot(const RdfContext& ctx,
                                                     const Database& db,
                                                     uint64_t version) {
  auto snapshot = std::make_shared<Snapshot>();
  // Copy-assigning the context keeps snapshot->ctx at a stable address,
  // so the cloned database can point at its schema.
  snapshot->ctx = ctx;
  snapshot->db = db.CloneWithSchema(&snapshot->ctx.schema());
  snapshot->version = version;
  snapshot->db.Freeze();
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

}  // namespace wdpt::server
