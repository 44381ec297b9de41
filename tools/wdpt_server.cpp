// wdpt_server: serve WDPT queries over a triples file or a durable
// data directory.
//
// Usage:
//   wdpt_server (--data FILE | --data-dir DIR [--data FILE])
//               [--port N] [--workers N] [--queue N]
//               [--cache-bytes N] [--default-deadline-ms N]
//               [--max-deadline-ms N] [--retry-after-ms N]
//               [--idle-timeout-ms N] [--slow-query-ms N] [--no-reload]
//               [--fsync] [--checkpoint-wal-bytes N] [--drain-ms N]
//               [--print-port] [--metrics-dump]
//
// Binds 127.0.0.1:<port> (0 = ephemeral; the chosen port is printed)
// and serves the framed protocol described in docs/SERVER.md: QUERY /
// STATS / PING / RELOAD / METRICS / INGEST / CHECKPOINT. The data file
// holds whitespace-separated triples, one per line, '#' comments — the
// same format wdpt_query reads. RELOAD swaps in a new dataset under
// live traffic without pausing readers. --cache-bytes N (default 0 =
// off) gives the engine an answer cache of N bytes: repeated identical
// queries against the same snapshot are served from memory, reloads
// and ingests invalidate by construction, and clients can opt out per
// request with `cache-control: bypass`.
//
// --data-dir DIR turns on durable storage (docs/STORAGE.md): the
// directory's binary snapshot is loaded, its write-ahead log replayed
// (torn tails truncated), and the server accepts INGEST (durable
// add/remove batches, acked after the WAL append) and CHECKPOINT (WAL
// compaction into a fresh snapshot file) instead of RELOAD. An empty
// directory can be seeded from --data. --fsync makes every acked
// ingest survive power loss, not just a killed process.
// --checkpoint-wal-bytes N auto-compacts once the log crosses N bytes
// (0 = only explicit CHECKPOINT).
//
// --idle-timeout-ms closes connections that go quiet; --slow-query-ms
// logs a per-stage trace breakdown to stderr for queries (and ingests)
// over the threshold; --metrics-dump prints the Prometheus exposition
// to stdout at shutdown. Runs until SIGINT/SIGTERM.
//
// --drain-ms N makes that shutdown graceful (docs/RESILIENCE.md):
// in-flight requests get up to N ms to finish while new work is
// answered kOverloaded with a retry hint; 0 (the default) keeps the
// immediate hard cut.
//
// --replica-of HOST:PORT starts the server as a read replica
// (docs/REPLICATION.md): it bootstraps from the primary's latest
// binary snapshot, subscribes to its WAL stream, and replays each
// committed batch through the same hot-swap publish path a local
// ingest uses. Replicas serve QUERY/PING/STATS/METRICS; writes are
// answered kRedirect naming the primary. --max-replica-lag N (default
// 0 = unbounded) sheds reads kOverloaded once the replica falls more
// than N batches behind. --replica-of excludes --data/--data-dir.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/storage/storage_manager.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--data FILE | --data-dir DIR [--data FILE] | "
               "--replica-of HOST:PORT) "
               "[--port N] [--workers N] [--queue N] "
               "[--cache-bytes N] [--default-deadline-ms N] "
               "[--max-deadline-ms N] [--retry-after-ms N] "
               "[--idle-timeout-ms N] [--slow-query-ms N] [--no-reload] "
               "[--fsync] [--checkpoint-wal-bytes N] [--drain-ms N] "
               "[--max-replica-lag N] [--print-port] [--metrics-dump]\n",
               argv0);
  return 2;
}

// Splits "host:port"; returns false when the port part is missing or
// not a number.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  char* end = nullptr;
  unsigned long value = std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

// Reads the whole triples file; exits the process on failure.
std::string ReadTriplesFileOrDie(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wdpt;
  std::string data_path;
  std::string data_dir;
  std::string replica_of;
  uint64_t max_replica_lag = 0;
  server::ServerOptions options;
  storage::StorageOptions storage_options;
  bool print_port = false;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--data" && i + 1 < argc) {
      data_path = argv[++i];
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--replica-of" && i + 1 < argc) {
      replica_of = argv[++i];
    } else if (arg == "--max-replica-lag" && i + 1 < argc) {
      max_replica_lag = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--fsync") {
      storage_options.fsync_wal = true;
    } else if (arg == "--checkpoint-wal-bytes" && i + 1 < argc) {
      storage_options.checkpoint_wal_bytes =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && i + 1 < argc) {
      options.num_workers =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--queue" && i + 1 < argc) {
      options.admission_capacity = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      options.engine.answer_cache_bytes =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--default-deadline-ms" && i + 1 < argc) {
      options.default_deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-deadline-ms" && i + 1 < argc) {
      options.max_deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--retry-after-ms" && i + 1 < argc) {
      options.retry_after_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      options.idle_timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--slow-query-ms" && i + 1 < argc) {
      options.slow_query_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--drain-ms" && i + 1 < argc) {
      options.drain_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-reload") {
      options.allow_reload = false;
    } else if (arg == "--print-port") {
      print_port = true;
    } else if (arg == "--metrics-dump") {
      metrics_dump = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (replica_of.empty()) {
    if (data_path.empty() && data_dir.empty()) return Usage(argv[0]);
  } else if (!data_path.empty() || !data_dir.empty()) {
    std::fprintf(stderr,
                 "error: --replica-of excludes --data/--data-dir; replicas "
                 "take their dataset from the primary\n");
    return 2;
  }

  server::Server srv(options);
  size_t facts = 0;
  if (!replica_of.empty()) {
    replication::ReplicatorOptions replica;
    if (!ParseHostPort(replica_of, &replica.primary_host,
                       &replica.primary_port)) {
      std::fprintf(stderr, "error: --replica-of wants HOST:PORT, got %s\n",
                   replica_of.c_str());
      return 2;
    }
    replica.max_frame_bytes = options.max_frame_bytes;
    replica.max_lag_batches = max_replica_lag;
    // Bootstrap survives a primary that is still coming up; streaming
    // reconnects forever regardless.
    replica.retry.max_attempts = 10;
    Status started = srv.StartReplica(replica);
    if (!started.ok()) {
      std::fprintf(stderr, "replica start error: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    facts = srv.CurrentSnapshot()->db.TotalFacts();
  } else if (!data_dir.empty()) {
    storage_options.dir = data_dir;
    Result<std::unique_ptr<storage::StorageManager>> manager =
        storage::StorageManager::Open(storage_options);
    if (!manager.ok()) {
      std::fprintf(stderr, "storage error: %s\n",
                   manager.status().ToString().c_str());
      return 1;
    }
    if (!data_path.empty() &&
        (*manager)->CurrentSnapshot()->db.TotalFacts() == 0) {
      // Seed an empty directory from the triples file; a non-empty
      // store ignores --data (the directory is the authority).
      Status seeded = (*manager)->ImportTriples(ReadTriplesFileOrDie(data_path));
      if (!seeded.ok()) {
        std::fprintf(stderr, "seed error: %s\n", seeded.ToString().c_str());
        return 1;
      }
    }
    facts = (*manager)->CurrentSnapshot()->db.TotalFacts();
    Status started = srv.StartWithStorage(std::move(*manager));
    if (!started.ok()) {
      std::fprintf(stderr, "start error: %s\n", started.ToString().c_str());
      return 1;
    }
  } else {
    Result<std::shared_ptr<const server::Snapshot>> snapshot =
        server::LoadSnapshot(ReadTriplesFileOrDie(data_path), /*version=*/1);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "data error: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    facts = (*snapshot)->db.TotalFacts();
    Status started = srv.Start(std::move(*snapshot));
    if (!started.ok()) {
      std::fprintf(stderr, "start error: %s\n", started.ToString().c_str());
      return 1;
    }
  }
  if (print_port) {
    std::printf("%u\n", static_cast<unsigned>(srv.port()));
    std::fflush(stdout);
  }
  std::string role_suffix;
  if (!replica_of.empty()) {
    role_suffix = " (replica of " + replica_of + ")";
  } else if (!data_dir.empty()) {
    role_suffix = " (durable)";
  }
  std::fprintf(stderr, "serving %zu facts on 127.0.0.1:%u%s\n", facts,
               static_cast<unsigned>(srv.port()), role_suffix.c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "shutting down\n");
  srv.Stop();
  if (metrics_dump) {
    std::fputs(srv.MetricsText().c_str(), stdout);
    std::fflush(stdout);
  }
  server::ServerCounters c = srv.counters();
  std::fprintf(stderr, "served %llu requests on %llu connections\n",
               static_cast<unsigned long long>(c.requests),
               static_cast<unsigned long long>(c.connections));
  return 0;
}
