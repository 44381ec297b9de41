// wdpt_loadgen: the two resilience gates of the WDPT query server.
//
// Usage:
//   wdpt_loadgen --chaos [--chaos-seed N] [--clients N] [--requests N]
//                [--bands N]
//   wdpt_loadgen --replicas N [--chaos] [--chaos-seed N] [--clients N]
//                [--requests N] [--bands N]
//
// Both gates serve the deterministic music catalog of
// gen::CatalogTriples (--bands bands, default 200) in process and read it
// through --clients retrying clients (default 1), each issuing
// --requests queries (default 50) of a fixed mix. Every response names
// the snapshot version it was served from, and its rows must be
// bit-identical to local execution (server::ExecuteQuery) of exactly
// that state. A gate exits nonzero on any mismatch, any unrecovered
// transport or status error, or when it issued no request. --chaos-seed
// seeds the fault schedule and every client's backoff jitter, so one
// seed replays one schedule.
//
// --chaos alone is the single-node gate (docs/RESILIENCE.md): seeded
// faults delay operations, tear frames and fail connects while the
// server is gracefully drained and restarted on the same port mid-load.
// The gate also fails unless wdpt_client_retries_total and
// wdpt_server_drained_requests are nonzero: the faults must both fire
// and be absorbed.
//
// --replicas N is the replication gate (docs/REPLICATION.md): a
// storage-backed primary takes a live INGEST stream while every reader
// pins one of N in-process replicas. Replicas may be stale, never wrong;
// without --chaos a replica also never serves an older state than it
// served before. With --chaos the faults also tear WAL streams, replica
// 0 is killed and restarted mid-load, and the primary is drained and
// restarted mid-stream; the gate then also demands at least one replica
// resync.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/gen/db_gen.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/fault.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/storage/storage_manager.h"

namespace {

using namespace wdpt;
using ServerPtr = std::unique_ptr<server::Server>;

// State k, the catalog plus the first k ingest batches, is served as
// snapshot version kBaseVersion + k: epoch 1, sequence k. The single-node
// server serves state 0. The primary's seed import checkpoints into
// epoch 1 and auto-checkpointing is off, so the epoch stays 1 for the
// whole replication run (a primary restart replays the WAL and
// recomputes the same version).
constexpr uint64_t kBaseVersion = 1ull << 32;
// Batches the replication gate's writer ingests.
constexpr uint64_t kIngestBatches = 16;
// The graceful drain window of every mid-load restart.
constexpr uint64_t kDrainMs = 200;

struct Args {
  bool chaos = false;
  uint64_t seed = 1;
  unsigned replicas = 0;
  unsigned clients = 1;
  uint64_t requests = 50;
  uint32_t bands = 200;
};

// expected[k][q]: the response to mix query q on state k.
using Expected = std::vector<std::vector<server::Response>>;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--chaos | --replicas N [--chaos]) "
               "[--chaos-seed N] [--clients N] [--requests N] [--bands N]\n",
               argv0);
  return 2;
}

// The fixed query mix: enumeration under both semantics, a truncated
// variant, a projection to the optional branch, and a membership check.
const std::vector<server::QueryCall>& QueryMix() {
  static const std::vector<server::QueryCall> mix = [] {
    const std::string base =
        "SELECT ?rec ?band ?rating WHERE "
        "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
        "OPT (?rec, NME_rating, ?rating))";
    const std::string fig1 =
        "SELECT ?band ?year WHERE "
        "((((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
        "OPT (?rec, NME_rating, ?rating)) OPT (?band, formed_in, ?year))";
    return std::vector<server::QueryCall>{
        server::QueryCall(base),
        server::QueryCall(base).Mode(sparql::RequestMode::kMax),
        server::QueryCall(base).MaxResults(10),
        server::QueryCall(fig1),
        server::QueryCall(base).Candidate("?rec=rec0_0 ?band=band0"),
    };
  }();
  return mix;
}

// Ingest batch k: a new recording that extends every query in the mix,
// so each applied batch visibly changes the answers replicas must
// reproduce. As "s p o" lines (the expected states) or as the INGEST
// body ("add s p o" lines).
std::string BatchTriples(uint64_t k) {
  std::string rec = "liverec" + std::to_string(k);
  return rec + " recorded_by band0\n" + rec + " published after_2010\n" +
         rec + " NME_rating " + std::to_string(1 + k % 10) + "\n";
}

std::string BatchOps(uint64_t k) {
  std::string ops;
  std::string triples = BatchTriples(k);
  size_t pos = 0;
  while (pos < triples.size()) {
    size_t eol = triples.find('\n', pos);
    ops += "add " + triples.substr(pos, eol - pos) + "\n";
    pos = eol + 1;
  }
  return ops;
}

// Fills `expected` with states 0..batches, executed through the path
// the server runs.
bool BuildExpected(const std::string& triples, uint64_t batches,
                   Expected* expected) {
  Engine engine(EngineOptions{1, 128});
  std::string state = triples;
  for (uint64_t k = 0; k <= batches; ++k) {
    if (k > 0) state += BatchTriples(k);
    Result<std::shared_ptr<const server::Snapshot>> snapshot =
        server::LoadSnapshot(state, kBaseVersion + k);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "data error: %s\n",
                   snapshot.status().ToString().c_str());
      return false;
    }
    std::vector<server::Response>& responses = expected->emplace_back();
    for (const server::QueryCall& q : QueryMix()) {
      responses.push_back(
          server::ExecuteQuery(&engine, **snapshot, q.ToRequest()));
      if (!responses.back().ok()) {
        std::fprintf(stderr, "query mix entry failed locally: %s\n",
                     responses.back().message.c_str());
        return false;
      }
    }
  }
  return true;
}

// The fault schedule both gates run under, installed process-wide for
// the guard's lifetime when `on`.
class FaultGuard {
 public:
  FaultGuard(bool on, uint64_t seed) : on_(on) {
    if (!on_) return;
    server::fault::Options faults;
    faults.seed = seed;
    faults.delay_prob = 0.05;
    faults.delay_ms = 1;
    faults.short_prob = 0.05;
    faults.reset_prob = 0.02;
    faults.connect_fail_prob = 0.01;
    server::fault::Install(faults);
  }
  ~FaultGuard() {
    if (on_) server::fault::Uninstall();
  }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;

  void Report(const char* gate) const {
    server::fault::Injector* injector = server::fault::Get();
    if (injector == nullptr) return;
    server::fault::Counters c = injector->counters();
    std::fprintf(stderr,
                 "%s: faults delays=%llu short_ops=%llu resets=%llu "
                 "connect_failures=%llu wal_failures=%llu\n",
                 gate, static_cast<unsigned long long>(c.delays),
                 static_cast<unsigned long long>(c.short_ops),
                 static_cast<unsigned long long>(c.resets),
                 static_cast<unsigned long long>(c.connect_failures),
                 static_cast<unsigned long long>(c.wal_failures));
  }

 private:
  bool on_;
};

// A fresh directory under /tmp, removed with its contents on
// destruction. path() is empty when it could not be created.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/wdpt_loadgen_replicas.XXXXXX";
    if (mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The retry policy of every gate client: bounded, seeded backoff.
server::RetryPolicy GatePolicy(uint64_t seed, uint32_t max_attempts) {
  server::RetryPolicy policy;
  policy.connect_timeout_ms = 2000;
  policy.send_timeout_ms = 2000;
  policy.max_attempts = max_attempts;
  policy.backoff_initial_ms = 2;
  policy.backoff_max_ms = 100;
  policy.seed = seed;
  return policy;
}

// Starts a server on a fixed port. A restart can race the old socket's
// teardown, so a few failed attempts are retried.
ServerPtr StartWithRetries(const std::function<ServerPtr()>& start) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (ServerPtr srv = start()) return srv;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return nullptr;
}

// The snapshot version a response's stats JSON names, or ~0.
uint64_t ServedVersion(const server::Response& response) {
  const std::string needle = "\"snapshot_version\":";
  size_t pos = response.stats_json.find(needle);
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(response.stats_json.c_str() + pos + needle.size(),
                       nullptr, 10);
}

struct Tally {
  uint64_t requests = 0;
  uint64_t transport_errors = 0;  ///< All attempts failed: unrecovered.
  uint64_t status_errors = 0;     ///< Non-OK statuses.
  uint64_t mismatches = 0;        ///< Rows differ, or an unknown state.
  uint64_t regressions = 0;       ///< A reader saw its version go back.
  server::ClientRetryStats retry;

  void Add(const Tally& other) {
    requests += other.requests;
    transport_errors += other.transport_errors;
    status_errors += other.status_errors;
    mismatches += other.mismatches;
    regressions += other.regressions;
    retry.attempts += other.retry.attempts;
    retry.retries += other.retry.retries;
    retry.reconnects += other.retry.reconnects;
    retry.overloaded_backoffs += other.retry.overloaded_backoffs;
    retry.backoff_ms += other.retry.backoff_ms;
  }
};

// Runs the gate's readers while `drive` runs on the calling thread;
// `drive` sees how many requests the readers have finished. Reader c
// reads from ports[c % ports.size()] and checks every OK answer against
// the expected rows of exactly the state the response names.
Tally RunReaders(
    const Args& args, const Expected& expected,
    const std::vector<uint16_t>& ports,
    const std::function<void(const std::atomic<uint64_t>&)>& drive) {
  const std::vector<server::QueryCall>& mix = QueryMix();
  std::atomic<uint64_t> completed{0};
  std::mutex mu;
  Tally total;
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < args.clients; ++c) {
    readers.emplace_back([&, c] {
      server::Client client;
      // Distinct jitter streams per client, all derived from the seed.
      client.set_retry_policy(
          GatePolicy(args.seed * 1315423911ull + c, args.chaos ? 12 : 5));
      // A failed first connect is fine: the target is remembered and the
      // retry loop brings the connection up.
      client.Connect("127.0.0.1", ports[c % ports.size()]);
      Tally tally;
      uint64_t last_version = 0;
      for (uint64_t r = 0; r < args.requests; ++r) {
        size_t qi = (c + r) % mix.size();
        Result<server::Response> response = client.Query(mix[qi]);
        ++tally.requests;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!response.ok()) {
          ++tally.transport_errors;
          continue;
        }
        if (response->code != StatusCode::kOk) {
          ++tally.status_errors;
          continue;
        }
        uint64_t version = ServedVersion(*response);
        if (version < kBaseVersion ||
            version - kBaseVersion >= expected.size()) {
          ++tally.mismatches;  // A state no server ever published.
          continue;
        }
        const server::Response& want = expected[version - kBaseVersion][qi];
        if (response->rows != want.rows ||
            response->truncated != want.truncated) {
          ++tally.mismatches;
        }
        // A chaos restart legitimately sends a replica back to its
        // bootstrap snapshot until it catches up.
        if (!args.chaos && version < last_version) ++tally.regressions;
        last_version = std::max(last_version, version);
      }
      tally.retry = client.retry_stats();
      std::lock_guard<std::mutex> lock(mu);
      total.Add(tally);
    });
  }
  drive(completed);
  for (std::thread& t : readers) t.join();
  return total;
}

// Prints the readers' totals and returns whether they pass: requests
// were issued, and every one was answered OK, bit-identical, and never
// from an older state than the same reader saw before.
bool ReadersPassed(const char* gate, const Args& args, const Tally& t) {
  std::fprintf(stderr,
               "%s: seed=%llu clients=%u requests=%llu transport_errors=%llu "
               "status_errors=%llu mismatches=%llu version_regressions=%llu\n",
               gate, static_cast<unsigned long long>(args.seed), args.clients,
               static_cast<unsigned long long>(t.requests),
               static_cast<unsigned long long>(t.transport_errors),
               static_cast<unsigned long long>(t.status_errors),
               static_cast<unsigned long long>(t.mismatches),
               static_cast<unsigned long long>(t.regressions));
  std::fprintf(stderr,
               "%s: wdpt_client_retries_total=%llu reconnects=%llu "
               "overloaded_backoffs=%llu backoff_ms=%llu\n",
               gate, static_cast<unsigned long long>(t.retry.retries),
               static_cast<unsigned long long>(t.retry.reconnects),
               static_cast<unsigned long long>(t.retry.overloaded_backoffs),
               static_cast<unsigned long long>(t.retry.backoff_ms));
  bool passed = t.requests > 0 && t.transport_errors == 0 &&
                t.status_errors == 0 && t.mismatches == 0 &&
                t.regressions == 0;
  if (!passed) {
    std::fprintf(stderr,
                 "FAILED: the readers saw an error, a mismatch or a version "
                 "regression, or issued no request\n");
  }
  return passed;
}

// The single-node gate: one server under faults, drained and restarted
// on its port while the readers run. Returns the exit code.
int RunChaos(const Args& args, const std::string& triples,
             const Expected& expected) {
  Result<std::shared_ptr<const server::Snapshot>> serving =
      server::LoadSnapshot(triples, kBaseVersion);
  if (!serving.ok()) {
    std::fprintf(stderr, "data error: %s\n",
                 serving.status().ToString().c_str());
    return 1;
  }
  FaultGuard faults(/*on=*/true, args.seed);
  server::ServerOptions options;
  options.drain_ms = kDrainMs;
  auto start = [&]() -> ServerPtr {
    auto srv = std::make_unique<server::Server>(options);
    if (!srv->Start(*serving).ok()) return nullptr;
    return srv;
  };
  ServerPtr srv = start();
  if (srv == nullptr) {
    std::fprintf(stderr, "server start error\n");
    return 1;
  }
  options.port = srv->port();  // Restarts rebind the same port.

  uint64_t drained = 0, drain_rejections = 0, restarts = 0;
  const uint64_t total_requests =
      static_cast<uint64_t>(args.clients) * args.requests;
  Tally tally = RunReaders(
      args, expected, {options.port},
      [&](const std::atomic<uint64_t>& completed) {
        // The drained count only rises when the drain catches a request
        // in flight, so in the rare cycle where every reader sat between
        // requests, drain again: bounded, and the gate still demands one.
        auto all_done = [&] { return completed.load() >= total_requests; };
        for (int cycle = 0; cycle < 5 && drained == 0 && !all_done();
             ++cycle) {
          // Let some load flow before pulling the plug.
          uint64_t target = completed.load() + 2ull * args.clients;
          while (completed.load() < target && !all_done()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (all_done()) break;
          srv->Drain(kDrainMs);
          server::ServerCounters counters = srv->counters();
          drained += counters.drained_requests;
          drain_rejections += counters.drain_rejections;
          srv.reset();
          srv = StartWithRetries(start);
          ++restarts;
          if (srv == nullptr) {
            std::fprintf(stderr, "chaos: could not restart server on port %u\n",
                         static_cast<unsigned>(options.port));
            break;
          }
        }
      });

  bool passed = ReadersPassed("chaos", args, tally);
  std::fprintf(stderr,
               "chaos: wdpt_server_drained_requests=%llu "
               "drain_rejections=%llu restarts=%llu\n",
               static_cast<unsigned long long>(drained),
               static_cast<unsigned long long>(drain_rejections),
               static_cast<unsigned long long>(restarts));
  faults.Report("chaos");
  if (tally.retry.retries == 0) {
    std::fprintf(stderr,
                 "FAILED: chaos run never retried; the fault schedule "
                 "proved nothing\n");
    passed = false;
  }
  if (drained == 0) {
    std::fprintf(stderr,
                 "FAILED: no request completed inside a drain window\n");
    passed = false;
  }
  return passed ? 0 : 1;
}

// The replication gate: a storage-backed primary under live ingest,
// with readers pinned round-robin to `args.replicas` replicas. Returns
// the exit code.
int RunReplicas(const Args& args, const std::string& triples,
                const Expected& expected) {
  // Declared first, so the servers and the faults are gone before the
  // data directory is removed.
  ScratchDir data_dir;
  if (data_dir.path().empty()) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 1;
  }
  FaultGuard faults(args.chaos, args.seed);

  // The primary: durable storage seeded by import (which checkpoints,
  // starting epoch 1 with an empty WAL), explicit checkpoints only.
  server::ServerOptions primary_options;
  storage::StorageOptions storage_options;
  storage_options.dir = data_dir.path();
  storage_options.checkpoint_wal_bytes = 0;
  auto open_primary = [&]() -> ServerPtr {
    Result<std::unique_ptr<storage::StorageManager>> manager =
        storage::StorageManager::Open(storage_options);
    if (!manager.ok()) {
      std::fprintf(stderr, "storage error: %s\n",
                   manager.status().ToString().c_str());
      return nullptr;
    }
    if ((*manager)->CurrentSnapshot()->db.TotalFacts() == 0) {
      Status seeded = (*manager)->ImportTriples(triples);
      if (!seeded.ok()) {
        std::fprintf(stderr, "seed error: %s\n", seeded.ToString().c_str());
        return nullptr;
      }
    }
    auto srv = std::make_unique<server::Server>(primary_options);
    Status started = srv->StartWithStorage(std::move(*manager));
    if (!started.ok()) {
      std::fprintf(stderr, "primary start error: %s\n",
                   started.ToString().c_str());
      return nullptr;
    }
    return srv;
  };
  ServerPtr primary = open_primary();
  if (primary == nullptr) return 1;
  const uint16_t primary_port = primary->port();
  primary_options.port = primary_port;  // Restarts rebind the same port.

  // Replicas; bootstrap retries ride out injected connect failures.
  auto start_replica = [&](uint16_t port) -> ServerPtr {
    replication::ReplicatorOptions replicator;
    replicator.primary_host = "127.0.0.1";
    replicator.primary_port = primary_port;
    replicator.retry.max_attempts = 10;
    replicator.retry.seed = args.seed * 2654435761ull + port;
    server::ServerOptions options;
    options.port = port;
    auto srv = std::make_unique<server::Server>(options);
    if (!srv->StartReplica(replicator).ok()) return nullptr;
    return srv;
  };
  std::vector<ServerPtr> fleet;
  std::vector<uint16_t> replica_ports;
  for (unsigned i = 0; i < args.replicas; ++i) {
    fleet.push_back(start_replica(0));
    if (fleet.back() == nullptr) {
      std::fprintf(stderr, "replica %u start error\n", i);
      return 1;
    }
    replica_ports.push_back(fleet.back()->port());
  }

  // The writer doubles as the chaos orchestrator: it feeds the primary
  // one batch at a time and, with --chaos, kills and restarts replica 0
  // a third of the way in and drains and restarts the primary at two
  // thirds. INGEST is never retried automatically (docs/RESILIENCE.md),
  // so a failed send is settled by asking the primary which state it
  // serves: the version is durable truth, counters are not.
  uint64_t resyncs = 0;  // Accumulated across replica incarnations.
  uint64_t replica_kills = 0, primary_restarts = 0;
  auto write = [&]() -> bool {
    server::Client writer;
    writer.set_retry_policy(GatePolicy(args.seed * 40503ull + 1, 12));
    writer.Connect("127.0.0.1", primary_port);
    auto primary_state = [&]() -> uint64_t {
      Result<server::Response> probe = writer.Query(QueryMix()[0]);
      if (!probe.ok() || probe->code != StatusCode::kOk) return ~0ull;
      uint64_t version = ServedVersion(*probe);
      return version == ~0ull ? version : version - kBaseVersion;
    };
    for (uint64_t k = 1; k <= kIngestBatches; ++k) {
      bool applied = false;
      for (int attempt = 0; attempt < 20 && !applied; ++attempt) {
        Result<server::Response> r = writer.Ingest(BatchOps(k));
        if (r.ok() && r->code == StatusCode::kOk) {
          applied = true;
          break;
        }
        uint64_t state = primary_state();
        if (state == k) {
          applied = true;  // The ack was torn; the batch landed.
        } else if (state != k - 1 && state != ~0ull) {
          break;  // Neither side of the batch: something is deeply off.
        }
      }
      if (!applied) {
        std::fprintf(stderr, "replicas: batch %llu never applied\n",
                     static_cast<unsigned long long>(k));
        return false;
      }
      // Spread the states across the readers' run.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (args.chaos && k == kIngestBatches / 3) {
        resyncs += fleet[0]->replicator()->stats().resyncs;
        fleet[0]->Stop();
        fleet[0] =
            StartWithRetries([&] { return start_replica(replica_ports[0]); });
        if (fleet[0] == nullptr) {
          std::fprintf(stderr, "replicas: replica 0 restart failed\n");
          return false;
        }
        ++replica_kills;
      }
      if (args.chaos && k == (2 * kIngestBatches) / 3) {
        primary->Drain(kDrainMs);
        primary.reset();
        primary = StartWithRetries(open_primary);
        if (primary == nullptr) {
          std::fprintf(stderr, "replicas: primary restart failed\n");
          return false;
        }
        ++primary_restarts;
      }
    }
    return true;
  };
  bool written = false;
  Tally tally =
      RunReaders(args, expected, replica_ports,
                 [&](const std::atomic<uint64_t>&) { written = write(); });
  for (const ServerPtr& srv : fleet) {
    if (srv != nullptr) resyncs += srv->replicator()->stats().resyncs;
  }

  bool passed = ReadersPassed("replicas", args, tally);
  std::fprintf(stderr,
               "replicas: n=%u batches=%llu "
               "wdpt_replication_resyncs_total=%llu replica_kills=%llu "
               "primary_restarts=%llu\n",
               args.replicas, static_cast<unsigned long long>(kIngestBatches),
               static_cast<unsigned long long>(resyncs),
               static_cast<unsigned long long>(replica_kills),
               static_cast<unsigned long long>(primary_restarts));
  faults.Report("replicas");
  if (!written) {
    std::fprintf(stderr, "FAILED: the writer did not apply every batch\n");
    passed = false;
  }
  if (args.chaos && resyncs == 0) {
    std::fprintf(stderr,
                 "FAILED: no replica ever resynced; the chaos schedule "
                 "never exercised torn-stream recovery\n");
    passed = false;
  }
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--chaos") {
      args.chaos = true;
    } else if (arg == "--chaos-seed" && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--replicas" && i + 1 < argc) {
      args.replicas =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--clients" && i + 1 < argc) {
      args.clients =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--requests" && i + 1 < argc) {
      args.requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--bands" && i + 1 < argc) {
      args.bands = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.clients == 0 || (!args.chaos && args.replicas == 0)) {
    return Usage(argv[0]);
  }

  const std::string triples = gen::CatalogTriples(args.bands);
  Expected expected;
  if (!BuildExpected(triples, args.replicas > 0 ? kIngestBatches : 0,
                     &expected)) {
    return 1;
  }
  return args.replicas > 0 ? RunReplicas(args, triples, expected)
                           : RunChaos(args, triples, expected);
}
