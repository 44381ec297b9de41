// Hot-swappable database snapshots.
//
// The server never mutates a dataset in place. A Snapshot is an
// immutable (context, database) pair whose column indexes are fully
// warmed at load time, so any number of worker threads can evaluate
// against it with pure reads. A reload builds a *new* snapshot and
// atomically publishes it through a SnapshotHolder; in-flight requests
// keep the shared_ptr they grabbed at admission and finish against the
// version they started on — a swap can never produce a torn read.
// Writers keep no other copy: storage::NextSnapshot derives the next
// version from a private copy of the newest.
//
// Query parsing interns new symbols into a vocabulary, so requests
// never parse against the shared snapshot context directly: they take a
// cheap private copy (Snapshot::ctx is copyable) and parse against
// that. Ids of symbols present in the snapshot are preserved by the
// copy; symbols the snapshot has never seen get fresh ids that match no
// stored fact, which is exactly the right semantics for an unknown
// constant.

#ifndef WDPT_SRC_SERVER_SNAPSHOT_H_
#define WDPT_SRC_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/relational/rdf.h"

namespace wdpt::server {

/// One immutable, fully-indexed dataset version.
struct Snapshot {
  RdfContext ctx;
  Database db;
  /// Monotonic version assigned by the publisher (the Server stamps
  /// successive reloads); reported in per-request stats. Doubles as the
  /// answer-cache generation (src/engine/answer_cache.h): the executor
  /// stamps it into every call's CachePolicy, so entries cached against
  /// a replaced snapshot can never be served again — invalidation by
  /// construction, no flush needed on RELOAD.
  uint64_t version = 0;

  Snapshot() : db(ctx.MakeDatabase()) {}
  /// A private, mutable copy to derive the next version from, sharing
  /// nothing with `other`: db is rebound to the copy's schema, unfrozen
  /// and unindexed (see Database::CloneWithSchema).
  Snapshot(const Snapshot& other)
      : ctx(other.ctx),
        db(other.db.CloneWithSchema(&ctx.schema())),
        version(other.version) {}
  Snapshot& operator=(const Snapshot&) = delete;
};

/// Parses whitespace-separated triples (one per line, '#' comments)
/// into a fresh snapshot and warms every column index.
Result<std::shared_ptr<const Snapshot>> LoadSnapshot(std::string_view triples,
                                                     uint64_t version);

/// Mutex-guarded shared_ptr publication point. Load() hands a reader a
/// stable reference; Store() replaces it for future readers only.
class SnapshotHolder {
 public:
  std::shared_ptr<const Snapshot> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  void Store(std::shared_ptr<const Snapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(snapshot);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> snapshot_;
};

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_SNAPSHOT_H_
