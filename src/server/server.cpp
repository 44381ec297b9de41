#include "src/server/server.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/server/exec.h"
#include "src/server/frame.h"

namespace wdpt::server {

namespace {

unsigned ResolveWorkers(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      engine_(options.engine),
      pool_(ResolveWorkers(options.num_workers)),
      admission_(options.admission_capacity == 0 ? 1
                                                 : options.admission_capacity),
      stop_token_(CancelToken::Create()) {}

Server::~Server() { Stop(); }

Status Server::Start(std::shared_ptr<const Snapshot> initial) {
  if (initial == nullptr) {
    return Status::InvalidArgument("initial snapshot must not be null");
  }
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  next_version_.store(initial->version + 1);
  // A storage-backed server serves the store's snapshot: holding the
  // start one here too would pin it for the server's lifetime.
  if (storage_ == nullptr) snapshot_.Store(std::move(initial));
  Result<int> listener = ListenLoopback(options_.port, &port_);
  if (!listener.ok()) {
    started_.store(false);
    return listener.status();
  }
  listen_fd_ = *listener;
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::Ok();
}

Status Server::StartWithStorage(
    std::unique_ptr<storage::StorageManager> storage) {
  if (storage == nullptr) {
    return Status::InvalidArgument("storage manager must not be null");
  }
  storage_ = std::move(storage);
  std::shared_ptr<const Snapshot> initial = storage_->CurrentSnapshot();
  Status started = Start(std::move(initial));
  if (!started.ok()) storage_.reset();
  return started;
}

Status Server::StartReplica(const replication::ReplicatorOptions& replica) {
  if (started_.load()) {
    return Status::InvalidArgument("server already started");
  }
  if (storage_ != nullptr) {
    return Status::InvalidArgument(
        "a server is either a primary (storage) or a replica, not both");
  }
  replication::ReplicatorOptions opts = replica;
  if (opts.slow_apply_ms == 0) opts.slow_apply_ms = options_.slow_query_ms;
  replication::Replicator::LogFn log = options_.slow_query_log;
  if (!log) {
    log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  replicator_ = std::make_unique<replication::Replicator>(
      opts,
      [this](std::shared_ptr<const Snapshot> snapshot) {
        SwapSnapshot(std::move(snapshot));
      },
      std::move(log));
  Result<std::shared_ptr<const Snapshot>> initial = replicator_->Bootstrap();
  if (!initial.ok()) {
    replicator_.reset();
    return initial.status();
  }
  Status started = Start(std::move(*initial));
  if (!started.ok()) {
    replicator_.reset();
    return started;
  }
  // Only now: streamed publishes must never race Start's initial
  // Store, or a version could briefly run backwards.
  replicator_->StartStreaming();
  return Status::Ok();
}

void Server::Stop() {
  if (options_.drain_ms != 0) {
    Drain(options_.drain_ms);
    return;
  }
  StopHard();
}

void Server::Drain(uint64_t deadline_ms) {
  if (!started_.load()) return;
  if (stopping_.load()) {
    StopHard();  // Already hard-stopping; nothing left to drain.
    return;
  }
  // First drainer shuts the front door; latecomers just wait alongside.
  bool first = !draining_.exchange(true);
  if (first) StopAccepting();
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  bool clean;
  {
    std::unique_lock<std::mutex> lock(active_mu_);
    clean = active_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                                [this] { return active_requests_ == 0; });
  }
  if (first) {
    std::string line =
        "drain: " +
        std::to_string(drained_requests_.load(std::memory_order_relaxed)) +
        " requests completed, " +
        std::to_string(drain_rejections_.load(std::memory_order_relaxed)) +
        " arrivals shed, " + std::to_string(ElapsedNs(start) / 1000000) +
        "ms" + (clean ? "" : " (deadline hit; hard-cutting stragglers)");
    if (options_.slow_query_log) {
      options_.slow_query_log(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  StopHard();
}

void Server::StopAccepting() {
  if (accept_stopped_.exchange(true)) return;
  // Unblock the accept loop and join it, so no new sessions appear
  // while existing ones wind down.
  ShutdownSocket(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Server::StopHard() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Wind down in-flight evaluations; admitted requests surface
  // kCancelled rather than blocking shutdown.
  stop_token_.RequestCancel();
  // Replication threads block on sockets / the hub's condvar, not on
  // the cancel token, so wake them explicitly before joining sessions:
  // subscriber streams poll hub.Next and exit on kClosed.
  if (replicator_ != nullptr) replicator_->Stop();
  if (storage_ != nullptr) storage_->hub().Close();
  StopAccepting();
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
  {
    // Sessions remove their fd before closing it, so everything in the
    // list is open; shutdown unblocks their frame reads.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (int fd : session_fds_) ShutdownSocket(fd);
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(session_threads_);
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
}

void Server::BeginRequest() {
  std::lock_guard<std::mutex> lock(active_mu_);
  ++active_requests_;
}

void Server::EndRequest(bool was_work) {
  if (was_work && draining_.load(std::memory_order_acquire)) {
    drained_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(active_mu_);
  if (--active_requests_ == 0) active_cv_.notify_all();
}

bool Server::IsWorkCommand(Command command) {
  switch (command) {
    case Command::kQuery:
    case Command::kReload:
    case Command::kIngest:
    case Command::kCheckpoint:
    // Replication traffic counts as work: a drain must not hand a new
    // subscriber a stream it is about to tear, and a snapshot fetch is
    // as heavy as any query.
    case Command::kSubscribe:
    case Command::kWalSeg:
    case Command::kSnapshotFetch:
      return true;
    case Command::kPing:
    case Command::kStats:
    case Command::kMetrics:
      return false;
  }
  return true;  // Unknown commands count as work: shed while draining.
}

void Server::SwapSnapshot(std::shared_ptr<const Snapshot> snapshot) {
  snapshot_.Store(std::move(snapshot));
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections = connections_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.queries = queries_.load(std::memory_order_relaxed);
  c.admitted = admission_.admitted();
  c.rejected_overload = admission_.rejected();
  c.reloads = reloads_.load(std::memory_order_relaxed);
  c.ingests = ingests_.load(std::memory_order_relaxed);
  c.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  c.idle_timeouts = idle_timeouts_.load(std::memory_order_relaxed);
  c.drained_requests = drained_requests_.load(std::memory_order_relaxed);
  c.drain_rejections = drain_rejections_.load(std::memory_order_relaxed);
  return c;
}

std::string Server::MetricsText() const {
  storage::StorageStats storage_stats;
  const storage::StorageStats* storage_ptr = nullptr;
  replication::PrimaryReplicationStats primary_stats;
  const replication::PrimaryReplicationStats* primary_ptr = nullptr;
  replication::ReplicaReplicationStats replica_stats;
  const replication::ReplicaReplicationStats* replica_ptr = nullptr;
  if (storage_ != nullptr) {
    storage_stats = storage_->stats();
    storage_ptr = &storage_stats;
    primary_stats = storage_->hub().stats();
    primary_ptr = &primary_stats;
  } else if (replicator_ != nullptr) {
    replica_stats = ReplicaStats();
    replica_ptr = &replica_stats;
  }
  return metrics_.RenderPrometheus(counters(), engine_.stats(),
                                   admission_.in_flight(),
                                   CurrentSnapshot()->version, storage_ptr,
                                   primary_ptr, replica_ptr);
}

void Server::AcceptLoop() {
  for (;;) {
    Result<int> fd = AcceptConnection(listen_fd_);
    if (!fd.ok()) {
      if (stopping_.load() ||
          fd.status().code() == StatusCode::kCancelled) {
        return;
      }
      continue;  // Transient accept error (e.g. EMFILE): keep serving.
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (stopping_.load()) {
      CloseSocket(*fd);
      return;
    }
    session_fds_.push_back(*fd);
    session_threads_.emplace_back(&Server::SessionLoop, this, *fd);
  }
}

void Server::SessionLoop(int fd) {
  if (options_.idle_timeout_ms != 0) {
    SetRecvTimeout(fd, options_.idle_timeout_ms);
  }
  while (!stopping_.load()) {
    Result<std::string> frame = ReadFrame(fd, options_.max_frame_bytes);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        // Idle peer: say why the session is ending, then hang up. A
        // blocked mid-frame read also lands here, which is fine — a
        // peer that stalls inside a frame for the whole idle window is
        // indistinguishable from a dead one.
        idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.code = StatusCode::kDeadlineExceeded;
        r.message = "idle timeout after " +
                    std::to_string(options_.idle_timeout_ms) +
                    " ms; closing connection";
        WriteFrame(fd, SerializeResponse(r), options_.max_frame_bytes);
        break;
      }
      if (frame.status().code() == StatusCode::kResourceExhausted) {
        // Oversized announced frame: the stream is unreadable past this
        // point, so answer once and hang up.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.code = StatusCode::kResourceExhausted;
        r.message = frame.status().ToString();
        WriteFrame(fd, SerializeResponse(r), options_.max_frame_bytes);
      }
      break;  // EOF or socket error: session over.
    }

    // The active window spans decode through the response write, so a
    // drain that waits for zero active requests knows every answer it
    // admitted — rejections included — reached the wire untorn.
    BeginRequest();
    Response response;
    bool work = false;
    bool stream = false;
    replication::Hub::Cursor cursor;
    Result<Request> request = ParseRequest(*frame);
    if (!request.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      response.code = request.status().code();
      response.message = request.status().ToString();
    } else {
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (draining_.load(std::memory_order_acquire) &&
          IsWorkCommand(request->command)) {
        // Shutting down: shed new work with a retry hint instead of
        // starting an evaluation the hard cut would tear. Control
        // commands (PING/STATS/METRICS) stay served so operators can
        // watch the drain.
        drain_rejections_.fetch_add(1, std::memory_order_relaxed);
        response.code = StatusCode::kOverloaded;
        response.retry_after_ms = options_.retry_after_ms;
        response.message =
            "server draining; retry against the restarted server";
      } else if (request->command == Command::kSubscribe) {
        // SUBSCRIBE flips the session from request/response into a
        // one-way WALSEG stream. The ack rides the normal write path
        // below (so drain accounting sees it), then the session turns
        // into a streamer and never reads another request.
        work = true;
        stream = PrepareSubscription(*request, &response, &cursor);
      } else {
        work = true;
        response = Dispatch(*request);
      }
    }

    std::string payload = SerializeResponse(response);
    if (payload.size() > options_.max_frame_bytes) {
      // The result set outgrew the frame cap: report instead of
      // shipping a frame the client must reject.
      Response too_big;
      too_big.code = StatusCode::kResourceExhausted;
      too_big.message = "response of " + std::to_string(payload.size()) +
                        " bytes exceeds the frame cap; narrow the query "
                        "or set max-results";
      payload = SerializeResponse(too_big);
    }
    bool written = WriteFrame(fd, payload, options_.max_frame_bytes).ok();
    EndRequest(work);
    if (!written) break;
    if (stream) {
      // The subscription ack is on the wire and the request window is
      // closed (streams outlive any drain deadline by design — the
      // replica reconnects to the restarted primary). Ship segments
      // until the replica hangs up, a checkpoint advances the epoch,
      // or shutdown closes the hub.
      StreamWalSegments(fd, cursor);
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (size_t i = 0; i < session_fds_.size(); ++i) {
      if (session_fds_[i] == fd) {
        session_fds_.erase(session_fds_.begin() + i);
        break;
      }
    }
  }
  CloseSocket(fd);
}

Response Server::Dispatch(const Request& request) {
  if (replicator_ != nullptr &&
      (request.command == Command::kIngest ||
       request.command == Command::kCheckpoint ||
       request.command == Command::kReload)) {
    // Replicas are read-only: a write applied here would fork the
    // replica from the WAL stream. Name the primary so clients can
    // follow without a topology lookup.
    redirects_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.code = StatusCode::kRedirect;
    r.primary = replicator_->primary_address();
    r.message = "replica is read-only; send writes to the primary at " +
                r.primary;
    return r;
  }
  switch (request.command) {
    case Command::kPing: {
      Response r;
      r.message = "pong";
      return r;
    }
    case Command::kStats:
      return HandleStats();
    case Command::kMetrics:
      return HandleMetrics();
    case Command::kReload:
      return HandleReload(request.body);
    case Command::kIngest:
      return HandleIngest(request.body);
    case Command::kCheckpoint:
      return HandleCheckpoint();
    case Command::kQuery:
      return HandleQuery(request.query);
    case Command::kSubscribe: {
      // SUBSCRIBE is intercepted in SessionLoop before dispatch; this
      // arm only fires if that routing ever regresses.
      Response r;
      r.code = StatusCode::kInternal;
      r.message = "SUBSCRIBE reached dispatch outside a session stream";
      return r;
    }
    case Command::kWalSeg: {
      // WALSEG frames flow primary→replica inside a subscription
      // stream; one arriving as a request is a confused peer.
      Response r;
      r.code = StatusCode::kInvalidArgument;
      r.message = "WALSEG is stream-only; SUBSCRIBE to receive segments";
      return r;
    }
    case Command::kSnapshotFetch:
      return HandleSnapshotFetch();
  }
  Response r;
  r.code = StatusCode::kInternal;
  r.message = "unhandled command";
  return r;
}

Response Server::HandleQuery(const sparql::QueryRequest& query) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (replicator_ != nullptr &&
      replicator_->options().max_lag_batches != 0) {
    // Shed reads on a replica that has fallen too far behind the
    // primary: a bounded-staleness guarantee beats serving arbitrarily
    // old answers. Checked before admission so lagging replicas shed
    // instantly instead of queueing.
    uint64_t lag = replicator_->lag_batches();
    uint64_t max_lag = replicator_->options().max_lag_batches;
    if (lag > max_lag) {
      lag_sheds_.fetch_add(1, std::memory_order_relaxed);
      Response r;
      r.code = StatusCode::kOverloaded;
      r.retry_after_ms = options_.retry_after_ms;
      r.message = "replica lagging " + std::to_string(lag) +
                  " batches behind the primary (max " +
                  std::to_string(max_lag) + "); retry or read the primary";
      return r;
    }
  }
  sparql::QueryRequest local = query;
  if (local.deadline_ms == 0) {
    local.deadline_ms = options_.default_deadline_ms;
  }
  if (options_.max_deadline_ms != 0 &&
      (local.deadline_ms == 0 ||
       local.deadline_ms > options_.max_deadline_ms)) {
    local.deadline_ms = options_.max_deadline_ms;
  }

  if (!admission_.TryAdmit()) {
    metrics_.RecordRejected();
    Response r;
    r.code = StatusCode::kOverloaded;
    r.retry_after_ms = options_.retry_after_ms;
    r.message = "admission queue full (" +
                std::to_string(admission_.capacity()) +
                " requests in flight); retry later";
    return r;
  }

  // Pin the dataset version and start the deadline clock *now*, before
  // the pool handoff, so time spent waiting for a worker counts.
  std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  CancelToken token = stop_token_;
  if (local.deadline_ms != 0) {
    token = CancelToken::Child(stop_token_);
    token.SetDeadline(CancelToken::Clock::now() +
                      std::chrono::milliseconds(local.deadline_ms));
  }
  local.deadline_ms = 0;  // Carried by the token from here on.

  // The trace crosses the pool handoff with the response: the latch's
  // CountDown/Wait pair orders the worker's writes before our reads.
  Trace trace(next_request_id_.fetch_add(1, std::memory_order_relaxed));
  Response response;
  BatchLatch latch(1);
  std::chrono::steady_clock::time_point submitted =
      std::chrono::steady_clock::now();
  pool_.Submit([this, &response, &latch, &local, &trace, snapshot, token,
                submitted] {
    trace.Record(TraceStage::kQueueWait, ElapsedNs(submitted));
    response = ExecuteQuery(&engine_, *snapshot, local, token, &trace);
    latch.CountDown();
  });
  latch.Wait();
  admission_.Release();
  metrics_.RecordQuery(trace, local.mode, response.code);
  MaybeLogSlowQuery(trace, response.code);
  return response;
}

Response Server::HandleMetrics() {
  Response r;
  std::string text = MetricsText();
  // One response row per exposition line; the client reassembles with
  // newlines. Rows are the protocol's only multi-line channel.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    r.rows.emplace_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return r;
}

void Server::MaybeLogSlowQuery(const Trace& trace, StatusCode code) {
  if (options_.slow_query_ms == 0) return;
  uint64_t total_ns = trace.TotalNs();
  if (total_ns < options_.slow_query_ms * 1000000ull) return;
  std::string line = "slow query id=" + std::to_string(trace.request_id()) +
                     " status=" + StatusCodeName(code) + " mode=" +
                     trace.mode() + " class=" +
                     TractabilityClassName(trace.classification()) +
                     " total=" + std::to_string(total_ns / 1000000) + "ms " +
                     trace.BreakdownString();
  if (options_.slow_query_log) {
    options_.slow_query_log(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

Response Server::HandleReload(const std::string& triples) {
  Response r;
  if (storage_ != nullptr) {
    r.code = StatusCode::kInvalidArgument;
    r.message =
        "storage-backed server: RELOAD would bypass the WAL; use "
        "INGEST/CHECKPOINT";
    return r;
  }
  if (!options_.allow_reload) {
    r.code = StatusCode::kInvalidArgument;
    r.message = "reload is disabled on this server";
    return r;
  }
  uint64_t version = next_version_.fetch_add(1);
  Result<std::shared_ptr<const Snapshot>> snapshot =
      LoadSnapshot(triples, version);
  if (!snapshot.ok()) {
    r.code = snapshot.status().code();
    r.message = snapshot.status().ToString();
    return r;
  }
  size_t facts = (*snapshot)->db.TotalFacts();
  snapshot_.Store(std::move(*snapshot));
  reloads_.fetch_add(1, std::memory_order_relaxed);
  r.message = "reloaded: " + std::to_string(facts) + " facts, version " +
              std::to_string(version);
  return r;
}

Response Server::HandleIngest(const std::string& body) {
  Response r;
  if (storage_ == nullptr) {
    r.code = StatusCode::kInvalidArgument;
    r.message =
        "this server has no durable storage attached; start wdpt_server "
        "with --data-dir to accept INGEST";
    return r;
  }
  Result<std::vector<storage::TripleOp>> ops =
      storage::ParseIngestBody(body);
  if (!ops.ok()) {
    r.code = ops.status().code();
    r.message = ops.status().ToString();
    return r;
  }
  Trace trace(next_request_id_.fetch_add(1, std::memory_order_relaxed));
  trace.set_mode("ingest");
  Result<storage::IngestResult> applied = storage_->Ingest(*ops, &trace);
  if (!applied.ok()) {
    r.code = applied.status().code();
    r.message = applied.status().ToString();
    metrics_.RecordIngest(trace, r.code);
    MaybeLogSlowQuery(trace, r.code);
    return r;
  }
  ingests_.fetch_add(1, std::memory_order_relaxed);
  metrics_.RecordIngest(trace, StatusCode::kOk);
  MaybeLogSlowQuery(trace, StatusCode::kOk);
  r.message = "ingested: " + std::to_string(applied->added) + " adds, " +
              std::to_string(applied->removed) + " removes, version " +
              std::to_string(applied->version);
  r.stats_json = "{\"added\":" + std::to_string(applied->added) +
                 ",\"removed\":" + std::to_string(applied->removed) +
                 ",\"version\":" + std::to_string(applied->version) +
                 ",\"facts\":" + std::to_string(applied->facts) + "}";
  return r;
}

Response Server::HandleCheckpoint() {
  Response r;
  if (storage_ == nullptr) {
    r.code = StatusCode::kInvalidArgument;
    r.message =
        "this server has no durable storage attached; start wdpt_server "
        "with --data-dir to accept CHECKPOINT";
    return r;
  }
  Trace trace(next_request_id_.fetch_add(1, std::memory_order_relaxed));
  trace.set_mode("checkpoint");
  Result<storage::CheckpointResult> done = storage_->Checkpoint(&trace);
  if (!done.ok()) {
    r.code = done.status().code();
    r.message = done.status().ToString();
    return r;
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  MaybeLogSlowQuery(trace, StatusCode::kOk);
  r.message = "checkpointed: snapshot " + std::to_string(done->snapshot_seq) +
              ", " + std::to_string(done->facts) + " facts, compacted " +
              std::to_string(done->wal_bytes_compacted) + " WAL bytes";
  return r;
}

bool Server::PrepareSubscription(const Request& request, Response* ack,
                                 replication::Hub::Cursor* cursor) {
  if (storage_ == nullptr) {
    ack->code = StatusCode::kInvalidArgument;
    ack->message =
        replicator_ != nullptr
            ? "replicas do not serve subscriptions; subscribe to the "
              "primary at " +
                  replicator_->primary_address()
            : "this server has no durable storage attached; only a "
              "storage-backed primary ships WAL segments";
    return false;
  }
  replication::Hub& hub = storage_->hub();
  Status seek = hub.Seek(request.epoch, request.offset, cursor);
  if (!seek.ok()) {
    // The requested position predates the retained epoch (a checkpoint
    // compacted it away) or never existed. The replica's recovery path
    // is a fresh snapshot, so say so — the session stays in
    // request/response mode for the SNAPSHOT-FETCH that follows.
    hub.RecordStaleSubscribe();
    ack->code = StatusCode::kNotFound;
    ack->epoch = hub.epoch();
    ack->message = seek.ToString();
    return false;
  }
  ack->code = StatusCode::kOk;
  ack->epoch = request.epoch;
  ack->head_seq = hub.head_seq();
  ack->message = "subscribed at epoch " + std::to_string(request.epoch) +
                 " offset " + std::to_string(request.offset);
  return true;
}

void Server::StreamWalSegments(int fd, replication::Hub::Cursor cursor) {
  replication::Hub& hub = storage_->hub();
  hub.AddSubscriber();
  for (;;) {
    replication::BatchRecord record;
    replication::Hub::NextResult next = hub.Next(&cursor, &record, 250);
    if (next == replication::Hub::NextResult::kClosed ||
        next == replication::Hub::NextResult::kStale) {
      // Shutdown, or a checkpoint advanced the epoch past this stream's
      // position. Closing the socket is the signal: the replica
      // re-subscribes and (on kStale) lands in the snapshot-fetch path.
      break;
    }
    bool is_batch = next == replication::Hub::NextResult::kBatch;
    Request seg;
    seg.command = Command::kWalSeg;
    seg.epoch = record.epoch;
    seg.offset = record.offset;
    seg.next_offset = record.next_offset;
    seg.seq = record.seq;
    // Stamped at send time, not enqueue time, so a replica draining a
    // backlog still measures its true lag from each frame.
    seg.head_seq = hub.head_seq();
    seg.body = std::move(record.ops_text);
    std::string payload = SerializeRequest(seg);
    if (!WriteFrame(fd, payload, options_.max_frame_bytes).ok()) break;
    hub.RecordShipped(payload.size(), is_batch);
  }
  hub.RemoveSubscriber();
}

Response Server::HandleSnapshotFetch() {
  Response r;
  if (storage_ == nullptr) {
    r.code = StatusCode::kInvalidArgument;
    r.message =
        replicator_ != nullptr
            ? "replicas do not serve snapshots; fetch from the primary "
              "at " +
                  replicator_->primary_address()
            : "this server has no durable storage attached; only a "
              "storage-backed primary serves snapshots";
    return r;
  }
  Result<storage::ReplicaSnapshot> snapshot =
      storage_->FetchSnapshotForReplica();
  if (!snapshot.ok()) {
    r.code = snapshot.status().code();
    r.message = snapshot.status().ToString();
    return r;
  }
  storage_->hub().RecordSnapshotFetch();
  r.epoch = snapshot->epoch;
  r.message = "snapshot epoch " + std::to_string(snapshot->epoch) + ", " +
              std::to_string(snapshot->bytes.size()) + " bytes";
  r.body = std::move(snapshot->bytes);
  return r;
}

replication::ReplicaReplicationStats Server::ReplicaStats() const {
  replication::ReplicaReplicationStats stats = replicator_->stats();
  stats.redirects = redirects_.load(std::memory_order_relaxed);
  stats.lag_sheds = lag_sheds_.load(std::memory_order_relaxed);
  return stats;
}

Response Server::HandleStats() {
  Response r;
  r.stats_json = "{\"engine\":" + engine_.stats().ToJson() +
                 ",\"server\":" + counters().ToJson();
  if (storage_ != nullptr) {
    r.stats_json += ",\"storage\":" + storage_->stats().ToJson() +
                    ",\"replication\":" + storage_->hub().stats().ToJson();
  } else if (replicator_ != nullptr) {
    r.stats_json += ",\"replication\":" + ReplicaStats().ToJson();
  }
  r.stats_json += "}";
  return r;
}

}  // namespace wdpt::server
