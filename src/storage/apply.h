// Shared TripleOp batch application and (de)serialization to ingest
// text.
//
// One batch of TripleOps has exactly one meaning, applied in three
// places that must agree bit-for-bit: the primary's ingest, a replica
// replaying a WALSEG batch (both via NextSnapshot), and open-time WAL
// recovery. All three call ApplyTripleOps so the interpretation — adds
// of present triples and removes of absent ones are acked no-ops,
// in-order last-op-wins — cannot drift between the write path and the
// replication path. FormatIngestBody is the inverse of ParseIngestBody
// (wal.h) and is how a batch travels inside a WALSEG frame.

#ifndef WDPT_SRC_STORAGE_APPLY_H_
#define WDPT_SRC_STORAGE_APPLY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/relational/database.h"
#include "src/relational/rdf.h"
#include "src/server/snapshot.h"
#include "src/storage/wal.h"

namespace wdpt::storage {

/// Applies `ops` in order to `*db` (whose schema is `ctx`'s), interning
/// new constants into `ctx`'s vocabulary in first-appearance order —
/// the property that keeps a replica's constant ids identical to the
/// primary's. `*added` / `*removed` (may be null) accumulate the ops
/// that changed the database.
void ApplyTripleOps(RdfContext* ctx, Database* db,
                    const std::vector<TripleOp>& ops, uint64_t* added,
                    uint64_t* removed);

/// The snapshot that follows `base` after `ops`, for the caller to swap
/// in: a copy of `base` (sharing nothing with it) with `ops` applied,
/// stamped `version` and frozen. Records the copy and the freeze as
/// kPublish and the ops as kApply into `trace` (may be null).
std::shared_ptr<const server::Snapshot> NextSnapshot(
    const server::Snapshot& base, const std::vector<TripleOp>& ops,
    uint64_t version, Trace* trace, uint64_t* added = nullptr,
    uint64_t* removed = nullptr);

/// Renders `ops` as ingest text (`add s p o` / `remove s p o`, one op
/// per line): the WALSEG body encoding. Exact inverse of
/// ParseIngestBody for the op lists that module produces — triple
/// tokens are whitespace-free by construction.
std::string FormatIngestBody(const std::vector<TripleOp>& ops);

}  // namespace wdpt::storage

#endif  // WDPT_SRC_STORAGE_APPLY_H_
