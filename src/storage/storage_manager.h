// StorageManager: the durable, mutable authority behind a serving
// directory.
//
// The manager owns `<dir>/snapshot.NNN.wdpt` (the newest binary
// snapshot file, see snapshot_file.h) plus `<dir>/wal.log` (see wal.h),
// and keeps the authoritative in-memory database they describe. Open()
// loads the snapshot file, replays the WAL over it (truncating any torn
// tail), and publishes the result; every successful Ingest appends one
// WAL entry (the ack point), applies the batch, and publishes a fresh
// immutable server::Snapshot — re-warmed indexes, bumped version /
// answer-cache generation — through the same SnapshotHolder hot-swap
// path a RELOAD uses, so readers switch atomically and never see half a
// batch. Checkpoint() compacts the WAL into snapshot.NNN+1 with
// write-temp → fsync → rename → fsync-dir ordering: a crash at any
// point recovers to exactly the acked state (the old snapshot + full
// WAL, or the new snapshot + whatever the WAL gained since — WAL replay
// over a checkpoint is idempotent, wal.h).
//
// Writers (Ingest/Checkpoint) serialize on one mutex; readers only
// touch published snapshots and are never blocked by it. See
// docs/STORAGE.md for the format and the crash-recovery guarantees.
//
// Replication: the manager owns the primary-side replication Hub.
// Every committed ingest batch is published to it (in commit order,
// tagged with its WAL offset), a checkpoint advances the hub's epoch,
// and open-time recovery seeds the hub with the replayed WAL so a
// replica can subscribe from any entry boundary of the current epoch.
// Published snapshot versions are derived from durable state —
// (snapshot_seq << 32) | wal entries applied since that snapshot — so
// the same logical state carries the same version across restarts, on
// the primary and on every replica. See docs/REPLICATION.md.

#ifndef WDPT_SRC_STORAGE_STORAGE_MANAGER_H_
#define WDPT_SRC_STORAGE_STORAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/relational/database.h"
#include "src/relational/rdf.h"
#include "src/replication/hub.h"
#include "src/server/snapshot.h"
#include "src/storage/stats.h"
#include "src/storage/wal.h"

namespace wdpt::storage {

struct StorageOptions {
  /// Data directory (created if absent).
  std::string dir;
  /// fdatasync the WAL on every append: acked ingests then survive
  /// power loss, not just a killed process (wdpt_server --fsync).
  bool fsync_wal = false;
  /// Auto-checkpoint once wal.log crosses this size; 0 = only explicit
  /// CHECKPOINT requests compact (wdpt_server --checkpoint-wal-bytes).
  uint64_t checkpoint_wal_bytes = 0;
};

/// Outcome of one Ingest batch. `added`/`removed` count ops that
/// changed the database (an add of a present triple and a remove of an
/// absent one are acked no-ops).
struct IngestResult {
  uint64_t added = 0;
  uint64_t removed = 0;
  uint64_t version = 0;  ///< Version of the snapshot now serving.
  uint64_t facts = 0;    ///< Total facts after the batch.
};

/// Outcome of one Checkpoint.
struct CheckpointResult {
  uint64_t snapshot_seq = 0;       ///< NNN of the fresh snapshot file.
  uint64_t facts = 0;              ///< Facts captured in it.
  uint64_t wal_bytes_compacted = 0;///< Log size folded in and reset.
};

/// A snapshot image handed to a bootstrapping replica: the exact bytes
/// of snapshot.NNN.wdpt plus the epoch (NNN) a subscriber resumes from.
struct ReplicaSnapshot {
  uint64_t epoch = 0;
  std::string bytes;
};

class StorageManager {
 public:
  /// Opens (or initializes) a data directory: loads the newest
  /// snapshot.NNN.wdpt if one exists, replays wal.log over it
  /// (truncating a torn tail), publishes the recovered snapshot, and
  /// readies the WAL for appending. Fails — rather than serving
  /// corrupt data — when the snapshot file exists but is rejected.
  static Result<std::unique_ptr<StorageManager>> Open(
      const StorageOptions& options);

  ~StorageManager() = default;
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Seeds an *empty* store from triples text (one per line; the
  /// wdpt_server --data + --data-dir combination): writes snapshot.001
  /// and publishes. Fails if the store already holds data.
  Status ImportTriples(std::string_view triples);

  /// The immutable snapshot readers should evaluate against. Never
  /// null after a successful Open. Publication order matches version
  /// order (the writer mutex covers the swap).
  std::shared_ptr<const server::Snapshot> CurrentSnapshot() const {
    return snapshot_.Load();
  }

  /// Durably applies one batch: WAL append (+fsync per policy) → apply
  /// → publish. On Ok the batch is recoverable and visible. Records
  /// kWalAppend/kApply/kPublish spans into `trace`. May run an
  /// automatic checkpoint afterwards (checkpoint_wal_bytes).
  Result<IngestResult> Ingest(const std::vector<TripleOp>& ops,
                              Trace* trace = nullptr);

  /// Compacts the WAL into a fresh snapshot.NNN+1.wdpt and empties the
  /// log. Readers are untouched (the published snapshot already holds
  /// this state); the kPublish span records the file write.
  Result<CheckpointResult> Checkpoint(Trace* trace = nullptr);

  /// The current snapshot file's bytes for a replica bootstrap
  /// (SNAPSHOT-FETCH). When no snapshot file exists yet (a fresh
  /// directory serving straight from the WAL), one is cut first so
  /// there is always an image to hand out. Serialized with writers:
  /// the returned epoch and bytes are mutually consistent.
  Result<ReplicaSnapshot> FetchSnapshotForReplica();

  /// The primary-side replication hub (see replication/hub.h). Batches
  /// appear here in commit order; Server streaming sessions subscribe
  /// through it.
  replication::Hub& hub() { return hub_; }

  StorageStats stats() const;

  const std::string& dir() const { return options_.dir; }

 private:
  explicit StorageManager(const StorageOptions& options)
      : options_(options), db_(ctx_.MakeDatabase()) {}

  std::string SnapshotPath(uint64_t seq) const;
  std::string WalPath() const;
  /// Applies ops to the authoritative database (caller holds mu_).
  void ApplyLocked(const std::vector<TripleOp>& ops, uint64_t* added,
                   uint64_t* removed);
  /// Builds and publishes a fresh immutable snapshot (caller holds mu_).
  Status PublishLocked(Trace* trace);
  Status CheckpointLocked(CheckpointResult* result, Trace* trace);

  StorageOptions options_;

  mutable std::mutex mu_;  ///< Serializes writers; readers never take it.
  RdfContext ctx_;         ///< Authoritative vocabulary/schema.
  Database db_;            ///< Authoritative facts (never served directly).
  std::unique_ptr<WalWriter> wal_;
  uint64_t snapshot_seq_ = 0;
  /// WAL entries applied on top of snapshot_seq_ — the low half of the
  /// published version (snapshot_seq_ << 32 | entries_in_epoch_), and
  /// the batch seq replicas track. Reset by every checkpoint; rebuilt
  /// from the WAL replay count at open, so it is deterministic from
  /// durable state alone.
  uint64_t entries_in_epoch_ = 0;

  replication::Hub hub_;
  server::SnapshotHolder snapshot_;

  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_append_bytes_{0};
  std::atomic<uint64_t> replays_{0};
  std::atomic<uint64_t> replayed_ops_{0};
  std::atomic<uint64_t> truncated_bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> wal_backlog_bytes_{0};
  std::atomic<uint64_t> snapshot_seq_published_{0};
  std::atomic<uint64_t> snapshot_load_ns_{0};
};

}  // namespace wdpt::storage

#endif  // WDPT_SRC_STORAGE_STORAGE_MANAGER_H_
