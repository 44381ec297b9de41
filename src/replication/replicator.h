// Replica-side replication: bootstrap from the primary's snapshot,
// then tail its WAL stream and republish after every applied batch.
//
// A Replicator owns one connection to the primary and one streaming
// thread. Life cycle:
//
//   bootstrap   SUBSCRIBE at the replica's position — (0, 0) when
//               fresh. kOk means the primary still retains that point
//               and the stream starts there; kNotFound means it was
//               compacted away, so the replica issues SNAPSHOT-FETCH,
//               builds a snapshot from the returned image, publishes
//               it, and re-subscribes at (epoch, 0). Bounded by
//               RetryPolicy::max_attempts.
//   streaming   each WALSEG frame is checked for continuity (epoch
//               matches, offset equals the end of what was applied),
//               turned into the next snapshot by storage::NextSnapshot
//               — the routine the primary's ingest runs — and published
//               through the publish callback. Its version is
//               (epoch << 32) | seq, the primary's own formula, so a
//               replica's answer-cache generations agree with the
//               primary's for identical states. The newest published
//               snapshot is the replica's only copy of the dataset.
//   resync      any stream fault — torn frame, read timeout, gap,
//               primary restart — closes the connection and re-runs
//               the bootstrap handshake from the last *applied*
//               position, retrying forever with jittered backoff
//               (client.h's BackoffDelayMs) until stopped. Nothing is
//               replayed twice and nothing is skipped: WAL offsets
//               within an epoch are immutable, and an epoch change
//               forces a fresh snapshot.
//
// Lag is head_seq (the primary's newest batch, as stamped on the last
// received frame or heartbeat) minus the last applied seq. The serving
// layer sheds reads when it exceeds max_lag_batches; see
// docs/REPLICATION.md.

#ifndef WDPT_SRC_REPLICATION_REPLICATOR_H_
#define WDPT_SRC_REPLICATION_REPLICATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/replication/stats.h"
#include "src/server/client.h"
#include "src/server/frame.h"
#include "src/server/protocol.h"
#include "src/server/snapshot.h"

namespace wdpt::replication {

struct ReplicatorOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  uint32_t max_frame_bytes = server::kDefaultMaxFrameBytes;
  /// Connect/send bounds and the backoff schedule. max_attempts bounds
  /// the *bootstrap* only; once streaming, resyncs retry until Stop.
  server::RetryPolicy retry;
  /// Shed reads once lag exceeds this many batches; 0 = never shed.
  /// Read by the serving layer (Server::HandleQuery), not here.
  uint64_t max_lag_batches = 0;
  /// Receive timeout while streaming. Heartbeats arrive every ~250 ms
  /// when the primary is idle, so a silence this long means the
  /// primary (or the path to it) is gone and the replica resyncs.
  uint64_t stream_recv_timeout_ms = 5000;
  /// Test knob: sleep this long before applying each batch, to force a
  /// measurable lag (see tests/replication_test.cpp).
  uint64_t apply_delay_ms = 0;
  /// Log applies slower than this through the log callback; 0 = off.
  uint64_t slow_apply_ms = 0;
};

class Replicator {
 public:
  using PublishFn =
      std::function<void(std::shared_ptr<const server::Snapshot>)>;
  using LogFn = std::function<void(const std::string&)>;

  /// `publish` receives every republished snapshot (the server's
  /// hot-swap); `log` (may be null) receives slow-apply lines.
  Replicator(const ReplicatorOptions& options, PublishFn publish,
             LogFn log = nullptr);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Blocking bootstrap: connects, subscribes (fetching a snapshot if
  /// the position was compacted), publishes the initial state, and
  /// returns it — the snapshot the serving layer starts on. Retries up
  /// to retry.max_attempts. Does not start the streaming thread.
  Result<std::shared_ptr<const server::Snapshot>> Bootstrap();

  /// Starts the streaming thread on the session Bootstrap established.
  /// Call exactly once, after a successful Bootstrap.
  void StartStreaming();

  /// Stops the stream and joins the thread. Safe to call from any
  /// thread, repeatedly, and concurrently with a blocked read (the
  /// socket is shut down out from under it).
  void Stop();

  /// head_seq - applied_seq as of the last received frame (0 when
  /// caught up or not yet streaming).
  uint64_t lag_batches() const;

  std::string primary_address() const;
  const ReplicatorOptions& options() const { return options_; }

  /// Apply-side counters; `redirects` / `lag_sheds` are the serving
  /// layer's and stay 0 here.
  ReplicaReplicationStats stats() const;

 private:
  /// One connect + subscribe handshake (with at most one snapshot
  /// fetch, published at once). On success fd_ carries a live stream
  /// positioned at (epoch_, offset_).
  Status EstablishSession();
  Status FetchSnapshot();
  Result<server::Response> RoundTrip(const server::Request& request);
  /// Makes `snapshot` the newest and hands it to the publish callback.
  void Publish(std::shared_ptr<const server::Snapshot> snapshot);
  Status HandleSegment(const server::Request& seg);
  void Run();
  /// True when the stream socket has bytes ready right now (poll with
  /// zero timeout) — lets Run drain the kernel's buffered frames, and
  /// so advance head_seq_, before each potentially slow apply.
  bool FrameReadable();
  void CloseConnection();
  /// Jittered backoff before attempt+1; false when Stop interrupted it.
  bool SleepBackoff(uint32_t attempt);

  const ReplicatorOptions options_;
  PublishFn publish_;
  LogFn log_;

  // Connection. fd_mu_ orders handoff against Stop's shutdown so the
  // streaming thread never reads a recycled descriptor.
  std::mutex fd_mu_;
  int fd_ = -1;

  // Stream position and counters. Written only by the bootstrap /
  // streaming thread; atomics let stats() and lag_batches() read from
  // serving threads without a lock.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> offset_{0};
  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<uint64_t> head_seq_{0};
  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> snapshot_fetches_{0};

  /// The newest published snapshot, which the next batch is derived
  /// from; null until the bootstrap. Bootstrap / streaming thread only.
  std::shared_ptr<const server::Snapshot> snapshot_;
  std::mt19937_64 backoff_rng_;

  std::atomic<bool> stop_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::thread thread_;
};

}  // namespace wdpt::replication

#endif  // WDPT_SRC_REPLICATION_REPLICATOR_H_
