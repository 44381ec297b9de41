// A concurrent WDPT query server.
//
// Layout: one accept thread, one lightweight session thread per
// connection (blocking frame reads), and a fixed worker pool
// (src/engine/thread_pool) that runs the actual evaluations. A session
// decodes a request, passes admission control, hands the evaluation to
// the pool, and writes the response frame back; requests on one
// connection are served in order, requests across connections run
// concurrently up to the worker count. Overload is shed at admission:
// when `admission_capacity` evaluations are already in flight the
// request is answered immediately with kOverloaded and a retry-after
// hint instead of queuing unboundedly.
//
// Every admitted request gets a CancelToken that chains the server's
// shutdown token with the request deadline (clamped by
// `max_deadline_ms`), created *before* the pool handoff so queue wait
// counts against the deadline. Datasets are immutable Snapshots
// published through a SnapshotHolder: RELOAD builds a new snapshot and
// swaps the pointer; running requests finish on the version they
// admitted with (see snapshot.h).
//
// Replication (docs/REPLICATION.md): a storage-backed server is a
// *primary* — a SUBSCRIBE request flips its session thread into a push
// stream of WALSEG frames fed by the storage manager's hub, and
// SNAPSHOT-FETCH hands out the current snapshot file for bootstrap. A
// server started with StartReplica is a *replica*: a Replicator tails
// the primary and hot-swaps snapshots through the same SwapSnapshot
// path a RELOAD uses, reads are served normally (shed with kOverloaded
// once replication lag exceeds the configured bound), and writes are
// answered kRedirect naming the primary.

#ifndef WDPT_SRC_SERVER_SERVER_H_
#define WDPT_SRC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/engine/engine.h"
#include "src/engine/thread_pool.h"
#include "src/replication/hub.h"
#include "src/replication/replicator.h"
#include "src/server/admission.h"
#include "src/server/frame.h"
#include "src/server/metrics.h"
#include "src/server/protocol.h"
#include "src/server/snapshot.h"
#include "src/storage/storage_manager.h"

namespace wdpt::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Worker threads evaluating queries; 0 = hardware concurrency.
  unsigned num_workers = 0;
  /// Maximum admitted (queued + executing) query requests.
  size_t admission_capacity = 64;
  /// Applied when a request carries no deadline; 0 = none.
  uint64_t default_deadline_ms = 0;
  /// Upper clamp on any request deadline; 0 = no clamp.
  uint64_t max_deadline_ms = 0;
  /// Backoff hint returned with kOverloaded responses.
  uint64_t retry_after_ms = 50;
  /// Per-frame payload cap, both directions.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Accept RELOAD requests (disable for read-only deployments).
  bool allow_reload = true;
  /// Close a session whose connection sits idle (no frame bytes) this
  /// long, after answering once with kDeadlineExceeded; 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// Queries whose total traced time exceeds this are reported to
  /// `slow_query_log` with their stage breakdown; 0 disables the log.
  uint64_t slow_query_ms = 0;
  /// Stop() drains gracefully for up to this long before the hard cut
  /// (wdpt_server --drain-ms): accepted work finishes, new work is
  /// answered with kOverloaded + a retry hint. 0 = immediate hard stop,
  /// tearing in-flight requests (the pre-drain behavior). Drain() takes
  /// an explicit deadline regardless of this default.
  uint64_t drain_ms = 0;
  /// Sink for slow-query lines; stderr when unset and slow_query_ms > 0.
  std::function<void(const std::string&)> slow_query_log;
  /// Engine construction knobs. The engine's internal batch pool is not
  /// used on the serving path, so it defaults to one thread.
  /// `engine.answer_cache_bytes` (wdpt_server --cache-bytes) is the
  /// answer-cache byte budget; 0 disables caching. Entries are keyed by
  /// snapshot version, so RELOAD invalidates by construction.
  EngineOptions engine{1, 128};
};

class Server {
 public:
  explicit Server(const ServerOptions& options = ServerOptions());
  /// Stops the server if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, starts the accept loop, and begins serving `initial`.
  /// Fails if the port is taken or the server already started.
  Status Start(std::shared_ptr<const Snapshot> initial);

  /// Starts a storage-backed server: serves `storage`'s recovered
  /// snapshot, accepts INGEST/CHECKPOINT (writes go through the WAL and
  /// the manager's hot-swap publication), and rejects RELOAD — a
  /// client-supplied snapshot would bypass durability. The server owns
  /// the manager.
  Status StartWithStorage(std::unique_ptr<storage::StorageManager> storage);

  /// The attached manager (null unless StartWithStorage was used).
  storage::StorageManager* storage() const { return storage_.get(); }

  /// Starts a read-only replica of the primary named in `replica`:
  /// bootstraps (snapshot fetch if needed), serves the bootstrapped
  /// state, and streams WAL batches from then on, hot-swapping a fresh
  /// snapshot per applied batch. QUERY/PING/STATS/METRICS are served
  /// (queries shed with kOverloaded past replica.max_lag_batches);
  /// INGEST/CHECKPOINT/RELOAD answer kRedirect with a `primary` header.
  /// Fails when the bootstrap cannot complete within the replica retry
  /// policy's attempt budget.
  Status StartReplica(const replication::ReplicatorOptions& replica);

  /// The attached replicator (null unless StartReplica was used).
  replication::Replicator* replicator() const { return replicator_.get(); }

  /// Stops the server. With options.drain_ms == 0 this is the immediate
  /// hard cut: in-flight work is cancelled and every connection closed.
  /// With options.drain_ms != 0 it is Drain(options.drain_ms).
  /// Idempotent.
  void Stop();

  /// Graceful drain, then stop: stops accepting connections, answers
  /// new work on existing sessions with kOverloaded + the retry-after
  /// hint ("shutting down"), lets every request already past parsing
  /// finish — response write included, so nothing is torn — for up to
  /// `deadline_ms`, then hard-cuts whatever remains. Requests completed
  /// during the drain window are counted in counters().drained_requests
  /// and the drain summary goes to the slow-query sink. Idempotent with
  /// Stop.
  void Drain(uint64_t deadline_ms);

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Publishes a new snapshot for future requests (versions are
  /// assigned at LoadSnapshot time). Safe under live traffic.
  void SwapSnapshot(std::shared_ptr<const Snapshot> snapshot);

  /// The snapshot new requests are currently admitted against. With
  /// storage attached this delegates to the manager, whose writer mutex
  /// orders publications so versions never run backwards.
  std::shared_ptr<const Snapshot> CurrentSnapshot() const {
    return storage_ != nullptr ? storage_->CurrentSnapshot()
                               : snapshot_.Load();
  }

  ServerCounters counters() const;
  EngineStats engine_stats() const { return engine_.stats(); }

  /// Reads shed because this replica exceeded its configured
  /// max-replica-lag bound (always 0 off-replica).
  uint64_t lag_sheds() const {
    return lag_sheds_.load(std::memory_order_relaxed);
  }

  /// The Prometheus text exposition the METRICS command returns; also
  /// reachable without a connection (--metrics-dump, tests).
  std::string MetricsText() const;

 private:
  void AcceptLoop();
  void SessionLoop(int fd);
  /// The immediate teardown Drain ends with and Stop uses directly when
  /// no drain window is configured.
  void StopHard();
  /// Stops accepting: shuts the listener down and joins the accept
  /// thread. Safe to call more than once.
  void StopAccepting();
  /// Marks one request active (parse succeeded, response not yet fully
  /// written). Drain waits for the active count to reach zero.
  void BeginRequest();
  /// Ends the active window opened by BeginRequest. `was_work` is true
  /// for dispatched requests (as opposed to drain rejections) so the
  /// drained-request counter only counts real work that completed
  /// while draining.
  void EndRequest(bool was_work);
  /// True for commands that start new work (QUERY/RELOAD/INGEST/
  /// CHECKPOINT) and are therefore shed while draining; PING/STATS/
  /// METRICS stay served so operators can watch the drain.
  static bool IsWorkCommand(Command command);
  Response Dispatch(const Request& request);
  Response HandleQuery(const sparql::QueryRequest& query);
  Response HandleReload(const std::string& triples);
  Response HandleIngest(const std::string& body);
  Response HandleCheckpoint();
  Response HandleStats();
  Response HandleMetrics();
  Response HandleSnapshotFetch();

  /// Validates a SUBSCRIBE and seeks its hub cursor. Returns true when
  /// the ack is kOk and the session should flip into streaming; false
  /// means `*ack` is a terminal answer (kNotFound for a compacted
  /// position, kInvalidArgument off a primary) and the session
  /// continues as a normal request loop — the replica's follow-up
  /// SNAPSHOT-FETCH arrives on the same connection.
  bool PrepareSubscription(const Request& request, Response* ack,
                           replication::Hub::Cursor* cursor);
  /// The WALSEG push loop of an accepted subscription: ships batches as
  /// the hub publishes them and heartbeats while idle, until the
  /// connection drops, the epoch advances (replica re-bootstraps), or
  /// the server stops.
  void StreamWalSegments(int fd, replication::Hub::Cursor cursor);
  /// The replicator's counters plus this server's redirect/shed counts.
  replication::ReplicaReplicationStats ReplicaStats() const;

  /// Emits the trace breakdown to the slow-query sink when the request's
  /// total traced time crossed options_.slow_query_ms. Covers ingests
  /// too (mode=ingest, wal_append/apply/publish stages in the line).
  void MaybeLogSlowQuery(const Trace& trace, StatusCode code);

  ServerOptions options_;
  Engine engine_;
  ThreadPool pool_;
  AdmissionController admission_;
  /// Empty on a storage-backed server: its store holds what it serves.
  SnapshotHolder snapshot_;
  /// Durable storage behind INGEST/CHECKPOINT; null for text-loaded
  /// servers (which keep RELOAD instead).
  std::unique_ptr<storage::StorageManager> storage_;
  /// WAL-stream tail for replica mode (StartReplica); null otherwise.
  /// Mutually exclusive with storage_.
  std::unique_ptr<replication::Replicator> replicator_;
  /// Fires on Stop; every request token is a child of it.
  CancelToken stop_token_;

  std::atomic<uint64_t> next_version_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by Drain before it waits: sessions shed new work from here on.
  std::atomic<bool> draining_{false};
  std::mutex active_mu_;
  std::condition_variable active_cv_;
  /// Requests between BeginRequest and EndRequest (guarded by
  /// active_mu_); Drain waits for zero.
  uint64_t active_requests_ = 0;
  /// Guards the one-shot listener shutdown + accept-thread join shared
  /// by Drain and StopHard.
  std::atomic<bool> accept_stopped_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex sessions_mu_;
  std::vector<std::thread> session_threads_;
  std::vector<int> session_fds_;  ///< Open fds, for shutdown at Stop.

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> ingests_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> drained_requests_{0};
  std::atomic<uint64_t> drain_rejections_{0};
  /// Replica-mode serving counters (kRedirect writes, lag-shed reads).
  std::atomic<uint64_t> redirects_{0};
  std::atomic<uint64_t> lag_sheds_{0};
  std::atomic<uint64_t> next_request_id_{1};
  RequestMetrics metrics_;
};

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_SERVER_H_
