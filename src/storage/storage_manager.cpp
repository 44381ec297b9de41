#include "src/storage/storage_manager.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/storage/apply.h"
#include "src/storage/snapshot_file.h"

namespace wdpt::storage {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " +
                          std::string(std::strerror(errno)));
}

/// Directory-entry durability: after a rename the new name must survive
/// a crash, which needs an fsync of the directory itself.
Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::Ok();
}

/// Parses "snapshot.NNN.wdpt"; returns false for any other name.
bool ParseSnapshotName(const char* name, uint64_t* seq) {
  unsigned long long n = 0;
  int consumed = 0;
  if (std::sscanf(name, "snapshot.%llu.wdpt%n", &n, &consumed) != 1) {
    return false;
  }
  if (name[consumed] != '\0') return false;
  *seq = n;
  return true;
}

}  // namespace

std::string StorageManager::SnapshotPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot.%03llu.wdpt",
                static_cast<unsigned long long>(seq));
  return options_.dir + "/" + buf;
}

std::string StorageManager::WalPath() const {
  return options_.dir + "/wal.log";
}

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const StorageOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("storage directory must not be empty");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", options.dir);
  }
  std::unique_ptr<StorageManager> mgr(new StorageManager(options));

  // Newest snapshot file wins; stale ones (a crash between rename and
  // unlink) are ignored and cleaned up by the next checkpoint.
  uint64_t newest = 0;
  DIR* dir = ::opendir(options.dir.c_str());
  if (dir == nullptr) return Errno("opendir", options.dir);
  while (struct dirent* entry = ::readdir(dir)) {
    uint64_t seq = 0;
    if (ParseSnapshotName(entry->d_name, &seq) && seq > newest) newest = seq;
  }
  ::closedir(dir);

  Clock::time_point load_start = Clock::now();
  auto recovered = std::make_shared<server::Snapshot>();
  if (newest != 0) {
    Status loaded = ReadSnapshotFile(mgr->SnapshotPath(newest),
                                     &recovered->ctx, &recovered->db);
    if (!loaded.ok()) return loaded;
    mgr->snapshot_seq_ = newest;
    mgr->snapshot_seq_published_.store(newest, std::memory_order_relaxed);
  }

  // Replay the WAL tail through the same routine a live ingest (and a
  // replica) uses, seeding the replication hub with each entry so a
  // subscriber can resume from any boundary of the current epoch.
  mgr->hub_.Reset(mgr->snapshot_seq_);
  Result<WalRecovery> recovery = ReplayWalWithOffsets(
      mgr->WalPath(), [&](const std::vector<TripleOp>& ops, uint64_t offset,
                          uint64_t next_offset) {
        ApplyTripleOps(&recovered->ctx, &recovered->db, ops, nullptr,
                       nullptr);
        replication::BatchRecord record;
        record.seq = ++mgr->entries_in_epoch_;
        record.offset = offset;
        record.next_offset = next_offset;
        record.ops_text = FormatIngestBody(ops);
        mgr->hub_.Publish(std::move(record));
      });
  if (!recovery.ok()) return recovery.status();
  mgr->snapshot_load_ns_.store(ElapsedNs(load_start),
                               std::memory_order_relaxed);
  mgr->replays_.store(recovery->entries, std::memory_order_relaxed);
  mgr->replayed_ops_.store(recovery->ops, std::memory_order_relaxed);
  mgr->truncated_bytes_.store(recovery->truncated_bytes,
                              std::memory_order_relaxed);

  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(mgr->WalPath(), options.fsync_wal);
  if (!wal.ok()) return wal.status();
  mgr->wal_ = std::move(*wal);
  mgr->wal_backlog_bytes_.store(mgr->wal_->bytes(),
                                std::memory_order_relaxed);

  recovered->version = (mgr->snapshot_seq_ << 32) | mgr->entries_in_epoch_;
  recovered->db.Freeze();
  mgr->Publish(std::move(recovered));
  return mgr;
}

void StorageManager::Publish(std::shared_ptr<const server::Snapshot> snapshot) {
  snapshot_.Store(std::move(snapshot));
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

Status StorageManager::ImportTriples(std::string_view triples) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_.Load()->db.TotalFacts() != 0 || snapshot_seq_ != 0 ||
      wal_->bytes() != 0) {
    return Status::InvalidArgument(
        "refusing to import into a non-empty store (dir " + options_.dir +
        " already holds data)");
  }
  // Published only once snapshot.001 (hence the version) is durable: a
  // malformed line or a failed write leaves the store empty.
  Result<std::shared_ptr<const server::Snapshot>> imported =
      server::LoadSnapshot(triples, /*version=*/uint64_t{1} << 32);
  if (!imported.ok()) return imported.status();
  CheckpointResult checkpoint;
  Status compacted = CheckpointLocked(**imported, &checkpoint, nullptr);
  if (!compacted.ok()) return compacted;
  Publish(std::move(*imported));
  return Status::Ok();
}

Result<IngestResult> StorageManager::Ingest(const std::vector<TripleOp>& ops,
                                            Trace* trace) {
  if (ops.empty()) return Status::InvalidArgument("empty ingest batch");
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t offset = wal_->bytes();
  {
    // Durability point: once the entry is on disk (and fsynced per
    // policy), recovery replays it — so the ack below can never claim
    // more than a crash would preserve.
    Trace::Span span(trace, TraceStage::kWalAppend);
    uint64_t entry_bytes = 0;
    Status appended = wal_->Append(ops, &entry_bytes);
    if (!appended.ok()) return appended;
    wal_appends_.fetch_add(1, std::memory_order_relaxed);
    wal_append_bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
    wal_backlog_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  }
  ++entries_in_epoch_;
  IngestResult result;
  // Deterministic from durable state: the same (snapshot, WAL prefix)
  // always publishes the same version, across restarts and on every
  // replica — which keeps answer-cache generations honest cluster-wide.
  result.version = (snapshot_seq_ << 32) | entries_in_epoch_;
  std::shared_ptr<const server::Snapshot> base = snapshot_.Load();
  std::shared_ptr<const server::Snapshot> next = NextSnapshot(
      *base, ops, result.version, trace, &result.added, &result.removed);
  result.facts = next->db.TotalFacts();
  {
    Trace::Span span(trace, TraceStage::kPublish);
    Publish(std::move(next));
    base.reset();  // Frees the old version, unless a reader holds it.
  }

  // Ship to replicas only after the batch is durable, applied, and
  // published locally: a replica can never observe state the primary
  // would not recover to.
  {
    replication::BatchRecord record;
    record.seq = entries_in_epoch_;
    record.offset = offset;
    record.next_offset = wal_->bytes();
    record.ops_text = FormatIngestBody(ops);
    hub_.Publish(std::move(record));
  }

  if (options_.checkpoint_wal_bytes != 0 &&
      wal_->bytes() >= options_.checkpoint_wal_bytes) {
    CheckpointResult checkpoint;
    Status compacted =
        CheckpointLocked(*snapshot_.Load(), &checkpoint, trace);
    if (!compacted.ok()) return compacted;
  }
  return result;
}

Status StorageManager::CheckpointLocked(const server::Snapshot& snapshot,
                                        CheckpointResult* result,
                                        Trace* trace) {
  // Crash ordering: the temp write fsyncs its bytes, the rename makes
  // the new sequence visible, the dir fsync makes the rename durable,
  // and only then is the WAL reset. Dying between rename and reset
  // leaves the new snapshot plus the old WAL — replay over it is
  // idempotent (wal.h), so recovery still lands on the acked state.
  Trace::Span span(trace, TraceStage::kPublish);
  uint64_t seq = snapshot_seq_ + 1;
  std::string tmp = options_.dir + "/snapshot.tmp";
  std::string final_path = SnapshotPath(seq);
  SnapshotFileInfo info;
  Status written = WriteSnapshotFile(tmp, snapshot.ctx, snapshot.db, &info);
  if (!written.ok()) return written;
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Errno("rename", final_path);
  }
  Status synced = FsyncDir(options_.dir);
  if (!synced.ok()) return synced;
  uint64_t compacted = wal_->bytes();
  Status reset = wal_->Reset();
  if (!reset.ok()) return reset;
  if (snapshot_seq_ != 0) {
    ::unlink(SnapshotPath(snapshot_seq_).c_str());  // Best effort.
  }
  snapshot_seq_ = seq;
  entries_in_epoch_ = 0;
  // New epoch: retained batches are superseded by the snapshot file.
  // Mid-stream subscribers observe kStale and re-bootstrap.
  hub_.Advance(seq);
  snapshot_seq_published_.store(seq, std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  wal_backlog_bytes_.store(0, std::memory_order_relaxed);
  if (result != nullptr) {
    result->snapshot_seq = seq;
    result->facts = info.facts;
    result->wal_bytes_compacted = compacted;
  }
  return Status::Ok();
}

Result<CheckpointResult> StorageManager::Checkpoint(Trace* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckpointResult result;
  Status compacted = CheckpointLocked(*snapshot_.Load(), &result, trace);
  if (!compacted.ok()) return compacted;
  return result;
}

Result<ReplicaSnapshot> StorageManager::FetchSnapshotForReplica() {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_seq_ == 0) {
    // Fresh directory still serving straight off the WAL: cut a first
    // snapshot so there is an image to hand out. This also advances
    // the epoch, so the requester's follow-up SUBSCRIBE lands on it.
    CheckpointResult checkpoint;
    Status compacted =
        CheckpointLocked(*snapshot_.Load(), &checkpoint, nullptr);
    if (!compacted.ok()) return compacted;
  }
  ReplicaSnapshot out;
  out.epoch = snapshot_seq_;
  std::string path = SnapshotPath(snapshot_seq_);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("fstat", path);
    ::close(fd);
    return s;
  }
  out.bytes.resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < out.bytes.size()) {
    ssize_t n = ::read(fd, out.bytes.data() + off, out.bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Status s = Errno("read", path);
      ::close(fd);
      return s;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return out;
}

std::string StorageStats::ToJson() const {
  std::string json = "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    if (!first) json += ",";
    first = false;
    json += "\"";
    json += name;
    json += "\":";
    json += std::to_string(value);
  };
  field("wal_appends", wal_appends);
  field("wal_bytes", wal_bytes);
  field("replays", replays);
  field("replayed_ops", replayed_ops);
  field("truncated_bytes", truncated_bytes);
  field("checkpoints", checkpoints);
  field("publishes", publishes);
  field("wal_backlog_bytes", wal_backlog_bytes);
  field("snapshot_seq", snapshot_seq);
  field("snapshot_load_ns", snapshot_load_ns);
  json += "}";
  return json;
}

StorageStats StorageManager::stats() const {
  StorageStats s;
  s.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  s.wal_bytes = wal_append_bytes_.load(std::memory_order_relaxed);
  s.replays = replays_.load(std::memory_order_relaxed);
  s.replayed_ops = replayed_ops_.load(std::memory_order_relaxed);
  s.truncated_bytes = truncated_bytes_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.wal_backlog_bytes = wal_backlog_bytes_.load(std::memory_order_relaxed);
  s.snapshot_seq = snapshot_seq_published_.load(std::memory_order_relaxed);
  s.snapshot_load_ns = snapshot_load_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wdpt::storage
