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

}  // namespace wdpt::server
