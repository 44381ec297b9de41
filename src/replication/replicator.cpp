#include "src/replication/replicator.h"

#include <poll.h>

#include <chrono>
#include <deque>
#include <utility>

#include "src/common/trace.h"
#include "src/storage/apply.h"
#include "src/storage/snapshot_file.h"
#include "src/storage/wal.h"

namespace wdpt::replication {

Replicator::Replicator(const ReplicatorOptions& options, PublishFn publish,
                       LogFn log)
    : options_(options),
      publish_(std::move(publish)),
      log_(std::move(log)),
      backoff_rng_(options.retry.seed) {}

Replicator::~Replicator() { Stop(); }

Result<std::shared_ptr<const server::Snapshot>> Replicator::Bootstrap() {
  uint32_t max_attempts =
      options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
  Status last = Status::Ok();
  for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (stop_.load()) return Status::Cancelled("replicator stopped");
    last = EstablishSession();
    if (last.ok()) {
      // Subscribed from genesis without a snapshot: start empty, version 0.
      if (snapshot_ == nullptr) Publish(std::make_shared<server::Snapshot>());
      return snapshot_;
    }
    CloseConnection();
    if (attempt < max_attempts && !SleepBackoff(attempt)) {
      return Status::Cancelled("replicator stopped");
    }
  }
  return Status(last.code(), "replica bootstrap from " + primary_address() +
                                 " failed after " +
                                 std::to_string(max_attempts) +
                                 " attempt(s): " + last.message());
}

void Replicator::StartStreaming() {
  if (thread_.joinable() || stop_.load()) return;
  thread_ = std::thread(&Replicator::Run, this);
}

void Replicator::Stop() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    server::ShutdownSocket(fd_);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t Replicator::lag_batches() const {
  uint64_t head = head_seq_.load();
  uint64_t applied = applied_seq_.load();
  return head > applied ? head - applied : 0;
}

std::string Replicator::primary_address() const {
  return options_.primary_host + ":" + std::to_string(options_.primary_port);
}

ReplicaReplicationStats Replicator::stats() const {
  ReplicaReplicationStats s;
  s.batches_applied = batches_applied_.load();
  s.bytes_received = bytes_received_.load();
  s.resyncs = resyncs_.load();
  s.snapshot_fetches = snapshot_fetches_.load();
  s.lag_batches = lag_batches();
  s.applied_seq = applied_seq_.load();
  s.head_seq = head_seq_.load();
  s.epoch = epoch_.load();
  return s;
}

Status Replicator::EstablishSession() {
  CloseConnection();
  Result<int> fd =
      server::ConnectTcp(options_.primary_host, options_.primary_port,
                         options_.retry.connect_timeout_ms,
                         options_.retry.send_timeout_ms);
  if (!fd.ok()) return fd.status();
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    if (stop_.load()) {
      server::CloseSocket(*fd);
      return Status::Cancelled("replicator stopped");
    }
    fd_ = *fd;
  }
  if (options_.stream_recv_timeout_ms != 0) {
    Status armed = server::SetRecvTimeout(fd_, options_.stream_recv_timeout_ms);
    if (!armed.ok()) return armed;
  }

  // Subscribe at our position; one snapshot fetch if it was compacted.
  // A second kNotFound means a checkpoint raced the fetch — fail this
  // attempt and let the caller's retry loop take another run.
  for (int round = 0; round < 2; ++round) {
    server::Request subscribe;
    subscribe.command = server::Command::kSubscribe;
    subscribe.epoch = epoch_.load();
    subscribe.offset = offset_.load();
    Result<server::Response> ack = RoundTrip(subscribe);
    if (!ack.ok()) return ack.status();
    if (ack->code == StatusCode::kOk) {
      head_seq_.store(ack->head_seq);
      return Status::Ok();
    }
    if (ack->code == StatusCode::kNotFound && round == 0) {
      Status fetched = FetchSnapshot();
      if (!fetched.ok()) return fetched;
      continue;
    }
    return Status::Internal("primary refused subscription (" +
                            std::string(StatusCodeName(ack->code)) +
                            "): " + ack->message);
  }
  return Status::Internal(
      "subscription raced repeated checkpoints on the primary");
}

Status Replicator::FetchSnapshot() {
  server::Request fetch;
  fetch.command = server::Command::kSnapshotFetch;
  Result<server::Response> image = RoundTrip(fetch);
  if (!image.ok()) return image.status();
  if (image->code != StatusCode::kOk) {
    return Status::Internal("primary refused snapshot fetch (" +
                            std::string(StatusCodeName(image->code)) +
                            "): " + image->message);
  }
  auto snapshot = std::make_shared<server::Snapshot>();
  Status parsed = storage::ParseSnapshotBytes(
      image->body.data(), image->body.size(), "primary " + primary_address(),
      &snapshot->ctx, &snapshot->db);
  if (!parsed.ok()) return parsed;
  epoch_.store(image->epoch);
  offset_.store(0);
  applied_seq_.store(0);
  head_seq_.store(0);
  snapshot_fetches_.fetch_add(1);
  snapshot->version = image->epoch << 32;
  snapshot->db.Freeze();
  Publish(std::move(snapshot));
  return Status::Ok();
}

Result<server::Response> Replicator::RoundTrip(const server::Request& request) {
  Status sent = server::WriteFrame(fd_, server::SerializeRequest(request),
                                   options_.max_frame_bytes);
  if (!sent.ok()) return sent;
  Result<std::string> frame = server::ReadFrame(fd_, options_.max_frame_bytes);
  if (!frame.ok()) return frame.status();
  return server::ParseResponse(*frame);
}

void Replicator::Publish(std::shared_ptr<const server::Snapshot> snapshot) {
  // The previous version is released last, after the swap, and freed
  // here unless a reader still holds it.
  std::shared_ptr<const server::Snapshot> previous =
      std::exchange(snapshot_, std::move(snapshot));
  if (publish_) publish_(snapshot_);
}

Status Replicator::HandleSegment(const server::Request& seg) {
  if (seg.epoch != epoch_.load()) {
    return Status::Internal("stream epoch changed (primary checkpointed)");
  }
  if (seg.offset != offset_.load()) {
    return Status::Internal("stream gap: expected offset " +
                            std::to_string(offset_.load()) + ", got " +
                            std::to_string(seg.offset));
  }
  if (seg.body.empty()) return Status::Ok();  // Heartbeat.

  if (options_.apply_delay_ms != 0) {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.apply_delay_ms),
                      [&] { return stop_.load(); });
    if (stop_.load()) return Status::Cancelled("replicator stopped");
  }

  Trace trace;
  trace.set_mode("replicate");
  Result<std::vector<storage::TripleOp>> ops = [&] {
    Trace::Span span(&trace, TraceStage::kApply);
    return storage::ParseIngestBody(seg.body);
  }();
  if (!ops.ok()) return ops.status();
  std::shared_ptr<const server::Snapshot> next = storage::NextSnapshot(
      *snapshot_, *ops, (seg.epoch << 32) | seg.seq, &trace);
  applied_seq_.store(seg.seq);
  offset_.store(seg.next_offset);
  {
    Trace::Span span(&trace, TraceStage::kPublish);
    Publish(std::move(next));
  }
  batches_applied_.fetch_add(1);
  if (log_ && options_.slow_apply_ms != 0 &&
      trace.TotalNs() > options_.slow_apply_ms * 1000000ull) {
    log_("slow replication apply: seq=" + std::to_string(seg.seq) +
         " epoch=" + std::to_string(seg.epoch) +
         " total_ms=" + std::to_string(trace.TotalNs() / 1000000ull) + " " +
         trace.BreakdownString());
  }
  return Status::Ok();
}

bool Replicator::FrameReadable() {
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int ready = ::poll(&pfd, 1, 0);
  return ready > 0 && (pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0;
}

void Replicator::Run() {
  // Frames the primary has shipped but this replica has not applied
  // yet. Reading runs ahead of applying on purpose: head_seq_ advances
  // at read time, so lag_batches() measures true distance from the
  // primary's stamped head even while an apply is slow — which is what
  // the max-replica-lag shed rides on.
  std::deque<server::Request> pending;
  while (!stop_.load()) {
    bool broken = false;
    // Drain everything the kernel already buffered (plus one blocking
    // read when there is nothing to apply) before touching the queue.
    while (!stop_.load()) {
      if (!pending.empty() && !FrameReadable()) break;
      Result<std::string> frame =
          server::ReadFrame(fd_, options_.max_frame_bytes);
      if (!frame.ok()) {
        broken = true;
        break;
      }
      Result<server::Request> seg = server::ParseRequest(*frame);
      if (!seg.ok() || seg->command != server::Command::kWalSeg) {
        broken = true;  // Anything but a WALSEG is a corrupt stream.
        break;
      }
      bytes_received_.fetch_add(frame->size());
      head_seq_.store(seg->head_seq);
      if (!seg->body.empty()) pending.push_back(std::move(*seg));
    }
    if (!broken && !pending.empty()) {
      server::Request seg = std::move(pending.front());
      pending.pop_front();
      broken = !HandleSegment(seg).ok();
    }
    if (!broken) continue;
    if (stop_.load()) break;
    // Stream fault: torn frame, silence past the heartbeat budget, a
    // gap, or a primary checkpoint/restart. Already-read frames past
    // the last applied one are dropped — the new subscription re-ships
    // everything after (epoch_, offset_), the acked prefix.
    pending.clear();
    resyncs_.fetch_add(1);
    for (uint32_t attempt = 1; !stop_.load(); ++attempt) {
      if (EstablishSession().ok()) break;
      if (!SleepBackoff(attempt)) break;
    }
  }
  CloseConnection();
}

void Replicator::CloseConnection() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  server::CloseSocket(fd_);
  fd_ = -1;
}

bool Replicator::SleepBackoff(uint32_t attempt) {
  uint64_t delay_ms =
      server::BackoffDelayMs(options_.retry, attempt, 0, &backoff_rng_);
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait_for(lock, std::chrono::milliseconds(delay_ms),
                    [&] { return stop_.load(); });
  return !stop_.load();
}

}  // namespace wdpt::replication
