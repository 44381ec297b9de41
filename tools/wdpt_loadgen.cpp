// wdpt_loadgen: concurrent load generator for the WDPT query server.
//
// Usage:
//   wdpt_loadgen [--connect HOST:PORT] [--data FILE] [--bands N]
//                [--clients 1,2,4,8] [--requests N]
//                [--warmup N] [--deadline-ms N] [--workers N]
//                [--queue N] [--cache-bytes N] [--cache-bypass]
//                [--json FILE] [--no-verify] [--max-ping-p50-ms X]
//                [--chaos] [--chaos-seed N] [--drain-ms N]
//
// Drives a fixed query mix from N concurrent client connections and
// reports throughput and latency percentiles per client count. It also
// reports the server-side queue-wait and eval medians extracted from
// each response's per-request stats JSON — so client-observed latency can be
// split into transport, queueing, and evaluation. --warmup N issues N
// unrecorded requests per client before measurement so cold caches do
// not skew the percentiles. Without --connect it
// starts an in-process server (workers/queue set its options); with
// --connect it targets a running wdpt_server. Without --data it
// generates a deterministic music-catalog dataset of --bands bands in
// the spirit of the Figure 1 running example.
//
// Before the load runs, the PING round-trip median over one connection
// is measured and reported; --max-ping-p50-ms makes it an assertion
// (exit nonzero when exceeded), which catches small-frame latency
// regressions such as Nagle-delayed writes (~40ms on loopback).
//
// Unless --no-verify is given, every response is checked against the
// rows the shared execution path (server::ExecuteQuery) produces
// locally on the same snapshot — the server must be bit-identical to
// sequential evaluation. The local verification engine runs without an
// answer cache, so when the target serves with --cache-bytes every
// cached row is verified bit-identical against uncached execution.
// Any protocol error, unexpected status, or row mismatch makes the exit
// code nonzero. --cache-bytes N gives the in-process server an answer
// cache (0 = off); --cache-bypass stamps `cache-control: bypass` on
// every mix query, pinning the hit rate to zero for an uncached
// baseline. Each result row reports the fraction of responses the
// server answered from its cache (the `cached` response header).
// --json writes the measurements as a machine-readable report (the
// bench_server_json target captures it as BENCH_server.json).
//
// --chaos switches to the resilience gate (docs/RESILIENCE.md): an
// in-process server is hammered by retrying clients while a seeded
// fault injector (--chaos-seed) tears frames, delays operations, and
// fails connects, and mid-load the server is gracefully drained
// (--drain-ms) and restarted on the same port. The run must end with
// zero mismatches against sequential evaluation, zero unrecovered
// transport or status errors, a nonzero wdpt_client_retries_total, and
// a nonzero wdpt_server_drained_requests — faults must both fire and
// be absorbed, bit-identically.
//
// --replicas N switches to the replication gate (docs/REPLICATION.md):
// a storage-backed primary plus N in-process replicas, with every
// reader pinned round-robin to a replica while the primary takes a
// live INGEST stream. Each response names the snapshot version it was
// served from; the reader checks its rows bit-identical against local
// execution of exactly that cumulative state, so replicas
// may be stale but never wrong. Combined with --chaos the fault
// injector tears WAL streams, one replica is killed and restarted
// mid-load, and the primary is drained and restarted mid-stream — the
// gate additionally demands at least one replica resync, proving the
// torn-stream recovery path actually ran.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/percentile.h"
#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/fault.h"
#include "src/server/exec.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/storage/storage_manager.h"

namespace {

using namespace wdpt;
using Clock = std::chrono::steady_clock;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--connect HOST:PORT] [--data FILE] [--bands N] "
               "[--clients 1,2,4,8] [--requests N] "
               "[--warmup N] [--deadline-ms N] "
               "[--workers N] [--queue N] [--cache-bytes N] "
               "[--cache-bypass] [--json FILE] [--no-verify] "
               "[--max-ping-p50-ms X] [--chaos] [--chaos-seed N] "
               "[--drain-ms N] [--replicas N]\n",
               argv0);
  return 2;
}

// Deterministic catalog in the shape of the Figure 1 running example:
// every band records four titles; ratings, recency and formation years
// appear with fixed-pattern gaps so the OPT branches bind only
// sometimes.
std::string MakeCatalogTriples(uint32_t bands) {
  std::string out;
  for (uint32_t b = 0; b < bands; ++b) {
    std::string band = "band" + std::to_string(b);
    if (b % 2 == 0) {
      out += band + " formed_in year" + std::to_string(1960 + b % 60) + "\n";
    }
    for (uint32_t r = 0; r < 4; ++r) {
      std::string rec = "rec" + std::to_string(b) + "_" + std::to_string(r);
      out += rec + " recorded_by " + band + "\n";
      if ((b * 31 + r) % 10 < 8) {
        out += rec + " published after_2010\n";
      }
      if ((b * 17 + r) % 10 < 5) {
        out += rec + " NME_rating " + std::to_string(1 + (b + r) % 10) + "\n";
      }
    }
  }
  return out;
}

// The fixed query mix: enumeration under both semantics, a truncated
// variant, a projection to the optional branch, and a membership check.
std::vector<server::QueryCall> MakeQueryMix(uint64_t deadline_ms) {
  const std::string base =
      "SELECT ?rec ?band ?rating WHERE "
      "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
      "OPT (?rec, NME_rating, ?rating))";
  const std::string fig1 =
      "SELECT ?band ?year WHERE "
      "((((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
      "OPT (?rec, NME_rating, ?rating)) OPT (?band, formed_in, ?year))";
  std::vector<server::QueryCall> mix(5, server::QueryCall(""));
  mix[0].text = base;
  mix[1].text = base;
  mix[1].mode = sparql::RequestMode::kMax;
  mix[2].text = base;
  mix[2].max_results = 10;
  mix[3].text = fig1;
  mix[4].text = base;
  mix[4].candidate = "?rec=rec0_0 ?band=band0";
  for (server::QueryCall& q : mix) q.deadline_ms = deadline_ms;
  return mix;
}

struct RunResult {
  unsigned clients = 0;
  uint64_t requests = 0;
  uint64_t transport_errors = 0;  ///< Framing / connection failures.
  uint64_t status_errors = 0;     ///< Non-OK, non-overloaded statuses.
  uint64_t overloaded = 0;        ///< kOverloaded rejections (retried).
  uint64_t mismatches = 0;        ///< Rows differ from sequential eval.
  uint64_t cache_hits = 0;        ///< Responses served from the answer cache.
  double cache_hit_rate = 0;      ///< cache_hits / requests.
  double wall_ms = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  // Server-reported trace spans, from the per-request stats JSON.
  double srv_queue_p50_ms = 0;  ///< Median worker-pool queue wait.
  double srv_eval_p50_ms = 0;   ///< Median evaluation span.
};

// Extracts an unsigned numeric field from the single-line per-request
// stats JSON ("\"key\":123"). Returns false when absent (e.g. an old
// server or a non-query response).
bool JsonField(const std::string& json, const std::string& key,
               uint64_t* value) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *value = std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

RunResult RunLoad(const std::string& host, uint16_t port, unsigned clients,
                  uint64_t requests_per_client, uint64_t warmup_per_client,
                  const std::vector<server::QueryCall>& mix,
                  const std::vector<server::Response>* expected) {
  RunResult result;
  result.clients = clients;
  std::vector<uint64_t> latencies_ns;
  std::vector<uint64_t> srv_queue_ns;
  std::vector<uint64_t> srv_eval_ns;
  std::mutex mu;
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect(host, port).ok()) {
        std::lock_guard<std::mutex> lock(mu);
        result.transport_errors += requests_per_client;
        return;
      }
      std::vector<uint64_t> local_ns;
      std::vector<uint64_t> local_queue_ns;
      std::vector<uint64_t> local_eval_ns;
      uint64_t transport = 0, status = 0, overload = 0, mismatch = 0,
               issued = 0, cache_hit = 0;
      // Warmup requests are issued but never recorded: they exist to
      // fill the plan cache and touch the indexes. A dead connection
      // during warmup still fails the client.
      bool warm_ok = true;
      for (uint64_t r = 0; r < warmup_per_client; ++r) {
        Result<server::Response> response =
            client.Query(mix[(c + r) % mix.size()]);
        if (!response.ok()) {
          ++transport;
          warm_ok = false;
          break;
        }
      }
      for (uint64_t r = 0; warm_ok && r < requests_per_client; ++r) {
        size_t qi = (c + r) % mix.size();
        Clock::time_point t0 = Clock::now();
        Result<server::Response> response = client.Query(mix[qi]);
        // An overloaded response is correct behavior under pressure:
        // back off briefly and retry the same request (bounded).
        int retries = 0;
        while (response.ok() &&
               response->code == StatusCode::kOverloaded && retries < 100) {
          ++overload;
          ++retries;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              response->retry_after_ms ? response->retry_after_ms : 1));
          response = client.Query(mix[qi]);
        }
        uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++issued;
        if (!response.ok()) {
          ++transport;
          break;  // Connection is gone; stop this client.
        }
        local_ns.push_back(ns);
        if (response->cached) ++cache_hit;
        uint64_t span = 0;
        if (JsonField(response->stats_json, "queue_ns", &span)) {
          local_queue_ns.push_back(span);
        }
        if (JsonField(response->stats_json, "eval_ns", &span)) {
          local_eval_ns.push_back(span);
        }
        if (response->code != StatusCode::kOk) {
          ++status;
        } else if (expected != nullptr) {
          const server::Response& want = (*expected)[qi];
          if (response->rows != want.rows ||
              response->truncated != want.truncated) {
            ++mismatch;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.requests += issued;
      result.transport_errors += transport;
      result.status_errors += status;
      result.overloaded += overload;
      result.mismatches += mismatch;
      result.cache_hits += cache_hit;
      latencies_ns.insert(latencies_ns.end(), local_ns.begin(),
                          local_ns.end());
      srv_queue_ns.insert(srv_queue_ns.end(), local_queue_ns.begin(),
                          local_queue_ns.end());
      srv_eval_ns.insert(srv_eval_ns.end(), local_eval_ns.begin(),
                         local_eval_ns.end());
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  result.wall_ms = wall_ns / 1e6;
  result.throughput_rps =
      wall_ns > 0 ? static_cast<double>(result.requests) / (wall_ns / 1e9)
                  : 0;
  result.cache_hit_rate =
      result.requests > 0
          ? static_cast<double>(result.cache_hits) /
                static_cast<double>(result.requests)
          : 0;
  result.p50_ms = PercentileMs(latencies_ns, 0.50);
  result.p90_ms = PercentileMs(latencies_ns, 0.90);
  result.p99_ms = PercentileMs(latencies_ns, 0.99);
  result.srv_queue_p50_ms = PercentileMs(srv_queue_ns, 0.50);
  result.srv_eval_p50_ms = PercentileMs(srv_eval_ns, 0.50);
  return result;
}

// The PING round-trip median over one connection: the floor of the
// protocol's per-frame cost, independent of query evaluation.
double MeasurePingP50Ms(const std::string& host, uint16_t port, int count) {
  server::Client client;
  if (!client.Connect(host, port).ok()) return -1;
  std::vector<uint64_t> ns;
  ns.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Clock::time_point t0 = Clock::now();
    Result<server::Response> r = client.Ping();
    if (!r.ok() || r->code != StatusCode::kOk) return -1;
    ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
  }
  return PercentileMs(ns, 0.50);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Chaos mode: seeded fault injection plus a mid-load graceful drain and
// same-port restart, driven by retrying clients. Returns the process
// exit code; nonzero when any answer mismatched sequential evaluation,
// any error went unrecovered, no retry ever fired (the schedule was too
// tame to prove anything), or no request drained gracefully.
int RunChaos(const std::string& triples, unsigned clients,
             uint64_t requests_per_client, unsigned workers, size_t queue,
             size_t cache_bytes, const std::vector<server::QueryCall>& mix,
             const std::vector<server::Response>* expected,
             uint64_t chaos_seed, uint64_t drain_ms,
             const std::string& json_path, size_t facts,
             const std::string& dataset_name) {
  server::fault::Options faults;
  faults.seed = chaos_seed;
  faults.delay_prob = 0.05;
  faults.delay_ms = 1;
  faults.short_prob = 0.05;
  faults.reset_prob = 0.02;
  faults.connect_fail_prob = 0.01;
  server::fault::Install(faults);

  server::ServerOptions options;
  options.num_workers = workers;
  options.admission_capacity = queue;
  options.engine.answer_cache_bytes = cache_bytes;
  options.drain_ms = drain_ms;

  Result<std::shared_ptr<const server::Snapshot>> serving =
      server::LoadSnapshot(triples, /*version=*/1);
  if (!serving.ok()) {
    std::fprintf(stderr, "data error: %s\n",
                 serving.status().ToString().c_str());
    server::fault::Uninstall();
    return 1;
  }

  auto srv = std::make_unique<server::Server>(options);
  Status started = srv->Start(*serving);
  if (!started.ok()) {
    std::fprintf(stderr, "server start error: %s\n",
                 started.ToString().c_str());
    server::fault::Uninstall();
    return 1;
  }
  const uint16_t port = srv->port();
  const uint64_t total_requests =
      static_cast<uint64_t>(clients) * requests_per_client;

  std::atomic<uint64_t> completed{0};
  std::mutex totals_mu;
  uint64_t requests = 0, transport_errors = 0, status_errors = 0,
           mismatches = 0;
  server::ClientRetryStats retry_totals;

  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      server::RetryPolicy policy;
      policy.connect_timeout_ms = 2000;
      policy.send_timeout_ms = 2000;
      policy.max_attempts = 12;
      policy.backoff_initial_ms = 2;
      policy.backoff_max_ms = 100;
      // Distinct per-client jitter streams, all derived from the run
      // seed so the whole schedule replays from --chaos-seed alone.
      policy.seed = chaos_seed * 1315423911ull + c;
      client.set_retry_policy(policy);
      // A failed first connect is fine: the target is remembered and
      // the retry loop brings the connection up.
      client.Connect("127.0.0.1", port);
      uint64_t transport = 0, status = 0, mismatch = 0, issued = 0;
      for (uint64_t r = 0; r < requests_per_client; ++r) {
        size_t qi = (c + r) % mix.size();
        Result<server::Response> response = client.Query(mix[qi]);
        ++issued;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!response.ok()) {
          // All attempts exhausted without a response: unrecovered.
          ++transport;
          continue;
        }
        if (response->code != StatusCode::kOk) {
          ++status;
          continue;
        }
        if (expected != nullptr) {
          const server::Response& want = (*expected)[qi];
          if (response->rows != want.rows ||
              response->truncated != want.truncated) {
            ++mismatch;
          }
        }
      }
      server::ClientRetryStats stats = client.retry_stats();
      std::lock_guard<std::mutex> lock(totals_mu);
      requests += issued;
      transport_errors += transport;
      status_errors += status;
      mismatches += mismatch;
      retry_totals.attempts += stats.attempts;
      retry_totals.retries += stats.retries;
      retry_totals.reconnects += stats.reconnects;
      retry_totals.overloaded_backoffs += stats.overloaded_backoffs;
      retry_totals.backoff_ms += stats.backoff_ms;
    });
  }

  // Drive the graceful drain + restart from here while the clients
  // hammer. The drained-request count only rises when the drain flag
  // catches a request mid-flight, so in the (rare) cycle where every
  // client happened to be between requests, drain again — bounded, and
  // deterministic in outcome: the gate below still demands >= 1.
  uint64_t drained = 0, drain_rejections = 0, restarts = 0;
  auto all_done = [&] { return completed.load() >= total_requests; };
  for (int cycle = 0; cycle < 5 && drained == 0 && !all_done(); ++cycle) {
    // Let some load flow before pulling the plug.
    uint64_t target = completed.load() + static_cast<uint64_t>(clients) * 2;
    while (completed.load() < target && !all_done()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (all_done()) break;
    srv->Drain(drain_ms);
    server::ServerCounters counters = srv->counters();
    drained += counters.drained_requests;
    drain_rejections += counters.drain_rejections;
    srv.reset();
    // Restart on the same port (the listener checks SO_REUSEADDR for
    // exactly this); a few bind retries absorb scheduler noise.
    options.port = port;
    for (int attempt = 0; attempt < 50; ++attempt) {
      srv = std::make_unique<server::Server>(options);
      if (srv->Start(*serving).ok()) break;
      srv.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ++restarts;
    if (srv == nullptr) {
      std::fprintf(stderr, "chaos: could not restart server on port %u\n",
                   static_cast<unsigned>(port));
      break;
    }
  }

  for (std::thread& t : threads) t.join();
  server::fault::Counters fault_counts;
  if (server::fault::Injector* injector = server::fault::Get()) {
    fault_counts = injector->counters();
  }
  if (srv != nullptr) {
    srv->Stop();
    srv.reset();
  }
  server::fault::Uninstall();

  std::fprintf(stderr,
               "chaos: seed=%llu requests=%llu transport_errors=%llu "
               "status_errors=%llu mismatches=%llu\n",
               static_cast<unsigned long long>(chaos_seed),
               static_cast<unsigned long long>(requests),
               static_cast<unsigned long long>(transport_errors),
               static_cast<unsigned long long>(status_errors),
               static_cast<unsigned long long>(mismatches));
  std::fprintf(stderr,
               "chaos: wdpt_client_retries_total=%llu reconnects=%llu "
               "overloaded_backoffs=%llu backoff_ms=%llu\n",
               static_cast<unsigned long long>(retry_totals.retries),
               static_cast<unsigned long long>(retry_totals.reconnects),
               static_cast<unsigned long long>(
                   retry_totals.overloaded_backoffs),
               static_cast<unsigned long long>(retry_totals.backoff_ms));
  std::fprintf(stderr,
               "chaos: wdpt_server_drained_requests=%llu "
               "drain_rejections=%llu restarts=%llu\n",
               static_cast<unsigned long long>(drained),
               static_cast<unsigned long long>(drain_rejections),
               static_cast<unsigned long long>(restarts));
  std::fprintf(stderr,
               "chaos: faults delays=%llu short_ops=%llu resets=%llu "
               "connect_failures=%llu wal_failures=%llu\n",
               static_cast<unsigned long long>(fault_counts.delays),
               static_cast<unsigned long long>(fault_counts.short_ops),
               static_cast<unsigned long long>(fault_counts.resets),
               static_cast<unsigned long long>(fault_counts.connect_failures),
               static_cast<unsigned long long>(fault_counts.wal_failures));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"benchmark\":\"wdpt_server_chaos\",\"dataset\":\""
        << dataset_name << "\",\"facts\":" << facts
        << ",\"chaos_seed\":" << chaos_seed << ",\"drain_ms\":" << drain_ms
        << ",\"clients\":" << clients << ",\"requests\":" << requests
        << ",\"transport_errors\":" << transport_errors
        << ",\"status_errors\":" << status_errors
        << ",\"mismatches\":" << mismatches
        << ",\"retries\":" << retry_totals.retries
        << ",\"reconnects\":" << retry_totals.reconnects
        << ",\"backoff_ms\":" << retry_totals.backoff_ms
        << ",\"drained_requests\":" << drained
        << ",\"drain_rejections\":" << drain_rejections
        << ",\"restarts\":" << restarts << ",\"faults\":{\"delays\":"
        << fault_counts.delays << ",\"short_ops\":" << fault_counts.short_ops
        << ",\"resets\":" << fault_counts.resets << ",\"connect_failures\":"
        << fault_counts.connect_failures << ",\"wal_failures\":"
        << fault_counts.wal_failures << "}}\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  bool failed = transport_errors != 0 || status_errors != 0 ||
                mismatches != 0 || requests == 0;
  if (retry_totals.retries == 0) {
    std::fprintf(stderr,
                 "FAILED: chaos run never retried; the fault schedule "
                 "proved nothing\n");
    failed = true;
  }
  if (drained == 0) {
    std::fprintf(stderr,
                 "FAILED: no request completed inside a drain window\n");
    failed = true;
  }
  if (failed &&
      (transport_errors != 0 || status_errors != 0 || mismatches != 0 ||
       requests == 0)) {
    std::fprintf(stderr,
                 "FAILED: %llu mismatches, %llu status errors, %llu "
                 "transport errors\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(status_errors),
                 static_cast<unsigned long long>(transport_errors));
  }
  return failed ? 1 : 0;
}

// One live-ingest batch: new recordings that extend every query in the
// mix, so each applied batch visibly changes the answer sets replicas
// must reproduce. Triples form ("s p o" lines) feeds the expected-state
// snapshots; ops form prefixes "add " for the INGEST body.
std::string ReplicaBatchTriples(uint64_t k) {
  std::string rec = "liverec" + std::to_string(k);
  return rec + " recorded_by band0\n" + rec + " published after_2010\n" +
         rec + " NME_rating " + std::to_string(1 + k % 10) + "\n";
}

std::string ReplicaBatchOps(uint64_t k) {
  std::string ops;
  std::string triples = ReplicaBatchTriples(k);
  size_t pos = 0;
  while (pos < triples.size()) {
    size_t eol = triples.find('\n', pos);
    ops += "add " + triples.substr(pos, eol - pos) + "\n";
    pos = eol + 1;
  }
  return ops;
}

// Replication gate: a storage-backed primary streaming to N in-process
// replicas under live ingest, readers pinned round-robin and verified
// bit-identical per served snapshot version. With `chaos`, faults are
// injected process-wide, replica 0 is killed and restarted mid-load,
// and the primary is drained and restarted mid-stream; the gate then
// also demands at least one resync. Returns the process exit code.
int RunReplicas(const std::string& triples, unsigned replicas,
                unsigned clients, uint64_t requests_per_client,
                unsigned workers, size_t queue, size_t cache_bytes,
                const std::vector<server::QueryCall>& mix, bool verify,
                bool chaos, uint64_t chaos_seed, uint64_t drain_ms,
                const std::string& json_path, size_t facts,
                const std::string& dataset_name) {
  constexpr uint64_t kEpochShift = 32;  // version = (epoch << 32) | seq.
  const uint64_t total_batches = 16;

  char tmpl[] = "/tmp/wdpt_loadgen_replicas.XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 1;
  }
  std::string data_dir = dir;
  auto cleanup_dir = [&data_dir] {
    std::string cmd = "rm -rf '" + data_dir + "'";
    std::system(cmd.c_str());
  };

  // Expected answers per cumulative state k (seed + first k batches),
  // via the same local execution path every other loadgen mode
  // verifies against. State k serves as version (1<<32)|k: the
  // seed import checkpoints into snapshot 1, and auto-checkpointing is
  // off, so the epoch stays 1 for the whole run (a primary restart
  // replays the WAL and recomputes the identical version).
  std::vector<std::vector<server::Response>> expected;
  if (verify) {
    Engine local_engine(EngineOptions{1, 128});
    std::string cumulative = triples;
    for (uint64_t k = 0; k <= total_batches; ++k) {
      if (k > 0) cumulative += ReplicaBatchTriples(k);
      Result<std::shared_ptr<const server::Snapshot>> state =
          server::LoadSnapshot(cumulative, (1ull << kEpochShift) | k);
      if (!state.ok()) {
        std::fprintf(stderr, "data error: %s\n",
                     state.status().ToString().c_str());
        cleanup_dir();
        return 1;
      }
      std::vector<server::Response> per_state;
      for (const server::QueryCall& q : mix) {
        per_state.push_back(
            server::ExecuteQuery(&local_engine, **state, q.ToRequest()));
        if (!per_state.back().ok()) {
          std::fprintf(stderr, "query mix entry failed locally: %s\n",
                       per_state.back().message.c_str());
          cleanup_dir();
          return 1;
        }
      }
      expected.push_back(std::move(per_state));
    }
  }

  if (chaos) {
    server::fault::Options faults;
    faults.seed = chaos_seed;
    faults.delay_prob = 0.05;
    faults.delay_ms = 1;
    faults.short_prob = 0.05;
    faults.reset_prob = 0.02;
    faults.connect_fail_prob = 0.01;
    server::fault::Install(faults);
  }

  // The primary: durable storage seeded via import (which checkpoints,
  // starting epoch 1 with an empty WAL), explicit checkpoints only.
  server::ServerOptions primary_options;
  primary_options.num_workers = workers;
  primary_options.admission_capacity = queue;
  primary_options.drain_ms = 0;  // Drained explicitly in the chaos path.
  storage::StorageOptions storage_options;
  storage_options.dir = data_dir;
  storage_options.checkpoint_wal_bytes = 0;
  auto open_primary = [&]() -> std::unique_ptr<server::Server> {
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
  std::unique_ptr<server::Server> primary = open_primary();
  if (primary == nullptr) {
    if (chaos) server::fault::Uninstall();
    cleanup_dir();
    return 1;
  }
  const uint16_t primary_port = primary->port();

  // N replicas on ephemeral ports; bootstrap retries ride out injected
  // connect failures.
  server::ServerOptions replica_options;
  replica_options.num_workers = workers;
  replica_options.admission_capacity = queue;
  replica_options.engine.answer_cache_bytes = cache_bytes;
  auto start_replica = [&](uint16_t port) -> std::unique_ptr<server::Server> {
    replication::ReplicatorOptions ropts;
    ropts.primary_host = "127.0.0.1";
    ropts.primary_port = primary_port;
    ropts.retry.max_attempts = 10;
    ropts.retry.seed = chaos_seed * 2654435761ull + port;
    server::ServerOptions opts = replica_options;
    opts.port = port;
    // A fixed-port restart can race the old socket's teardown; a few
    // bind retries absorb it (same pattern as the chaos restart).
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto srv = std::make_unique<server::Server>(opts);
      if (srv->StartReplica(ropts).ok()) return srv;
      if (port == 0) break;  // Ephemeral bind never races; real error.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return nullptr;
  };
  std::vector<std::unique_ptr<server::Server>> fleet;
  std::vector<uint16_t> replica_ports;
  for (unsigned i = 0; i < replicas; ++i) {
    fleet.push_back(start_replica(0));
    if (fleet.back() == nullptr) {
      std::fprintf(stderr, "replica %u start error\n", i);
      for (auto& srv : fleet) {
        if (srv != nullptr) srv->Stop();
      }
      primary->Stop();
      if (chaos) server::fault::Uninstall();
      cleanup_dir();
      return 1;
    }
    replica_ports.push_back(fleet.back()->port());
  }

  // Readers: each pins one replica and hammers the query mix, checking
  // every OK answer against the expected rows of exactly the state the
  // response claims to serve. Replicas may be stale, never wrong.
  std::mutex totals_mu;
  uint64_t requests = 0, transport_errors = 0, status_errors = 0,
           mismatches = 0, regressions = 0, overloaded = 0;
  server::ClientRetryStats retry_totals;
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < clients; ++c) {
    readers.emplace_back([&, c] {
      server::Client client;
      server::RetryPolicy policy;
      policy.connect_timeout_ms = 2000;
      policy.send_timeout_ms = 2000;
      policy.max_attempts = chaos ? 12 : 5;
      policy.backoff_initial_ms = 2;
      policy.backoff_max_ms = 100;
      policy.seed = chaos_seed * 1315423911ull + c;
      client.set_retry_policy(policy);
      client.Connect("127.0.0.1", replica_ports[c % replicas]);
      uint64_t transport = 0, status = 0, mismatch = 0, regress = 0,
               overload = 0, issued = 0, last_version = 0;
      for (uint64_t r = 0; r < requests_per_client; ++r) {
        size_t qi = (c + r) % mix.size();
        Result<server::Response> response = client.Query(mix[qi]);
        int retries = 0;
        while (response.ok() &&
               response->code == StatusCode::kOverloaded && retries < 100) {
          ++overload;
          ++retries;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              response->retry_after_ms ? response->retry_after_ms : 1));
          response = client.Query(mix[qi]);
        }
        ++issued;
        if (!response.ok()) {
          ++transport;
          continue;
        }
        if (response->code != StatusCode::kOk) {
          ++status;
          continue;
        }
        uint64_t version = 0;
        if (!JsonField(response->stats_json, "snapshot_version", &version)) {
          ++mismatch;  // Every replica answer must name its state.
          continue;
        }
        if (verify) {
          uint64_t state = version - (1ull << kEpochShift);
          if (version < (1ull << kEpochShift) ||
              state >= expected.size()) {
            ++mismatch;  // A version no primary state ever published.
          } else {
            const server::Response& want = expected[state][qi];
            if (response->rows != want.rows ||
                response->truncated != want.truncated) {
              ++mismatch;
            }
          }
        }
        // A single replica only moves forward — except across a chaos
        // restart, where a rebooted replica legitimately serves the
        // bootstrap snapshot until catch-up.
        if (!chaos && version < last_version) ++regress;
        if (version > last_version) last_version = version;
      }
      server::ClientRetryStats stats = client.retry_stats();
      std::lock_guard<std::mutex> lock(totals_mu);
      requests += issued;
      transport_errors += transport;
      status_errors += status;
      mismatches += mismatch;
      regressions += regress;
      overloaded += overload;
      retry_totals.attempts += stats.attempts;
      retry_totals.retries += stats.retries;
      retry_totals.reconnects += stats.reconnects;
    });
  }

  // The writer doubles as the chaos orchestrator: it feeds the primary
  // one batch at a time and, in chaos mode, kills/restarts replica 0
  // a third of the way in and drains/restarts the primary at two
  // thirds. INGEST is never auto-retried (docs/RESILIENCE.md), so a
  // failed send is resolved by asking the primary which state it
  // actually reached — the version is durable truth, counters are not.
  uint64_t resyncs = 0;       // Accumulated across replica incarnations.
  uint64_t replica_kills = 0, primary_restarts = 0;
  bool orchestration_failed = false;
  {
    server::Client writer;
    server::RetryPolicy policy;
    policy.connect_timeout_ms = 2000;
    policy.send_timeout_ms = 2000;
    policy.max_attempts = 12;
    policy.backoff_initial_ms = 2;
    policy.backoff_max_ms = 100;
    policy.seed = chaos_seed * 40503ull + 1;
    writer.set_retry_policy(policy);
    writer.Connect("127.0.0.1", primary_port);
    auto primary_state = [&]() -> uint64_t {
      // Cheap read with client-side retry; the served version names
      // the last applied batch.
      Result<server::Response> probe = writer.Query(mix[0]);
      if (!probe.ok() || probe->code != StatusCode::kOk) return ~0ull;
      uint64_t version = 0;
      if (!JsonField(probe->stats_json, "snapshot_version", &version)) {
        return ~0ull;
      }
      return version - (1ull << kEpochShift);
    };
    for (uint64_t k = 1; k <= total_batches && !orchestration_failed; ++k) {
      bool applied = false;
      for (int attempt = 0; attempt < 20 && !applied; ++attempt) {
        Result<server::Response> r = writer.Ingest(ReplicaBatchOps(k));
        if (r.ok() && r->code == StatusCode::kOk) {
          applied = true;
          break;
        }
        uint64_t state = primary_state();
        if (state == k) {
          applied = true;  // The ack was torn, the batch landed.
        } else if (state != k - 1 && state != ~0ull) {
          break;  // Neither side of the batch: something is deeply off.
        }
      }
      if (!applied) {
        std::fprintf(stderr, "replicas: batch %llu never applied\n",
                     static_cast<unsigned long long>(k));
        orchestration_failed = true;
        break;
      }
      // Spread the states across the readers' run.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (chaos && k == total_batches / 3) {
        resyncs += fleet[0]->replicator()->stats().resyncs;
        fleet[0]->Stop();
        fleet[0] = start_replica(replica_ports[0]);
        if (fleet[0] == nullptr) {
          std::fprintf(stderr, "replicas: replica 0 restart failed\n");
          orchestration_failed = true;
          break;
        }
        ++replica_kills;
      }
      if (chaos && k == (2 * total_batches) / 3) {
        primary->Drain(drain_ms);
        primary.reset();
        primary_options.port = primary_port;
        for (int attempt = 0; attempt < 50 && primary == nullptr;
             ++attempt) {
          primary = open_primary();
          if (primary == nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
        if (primary == nullptr) {
          std::fprintf(stderr, "replicas: primary restart failed\n");
          orchestration_failed = true;
          break;
        }
        ++primary_restarts;
      }
    }
  }
  for (std::thread& t : readers) t.join();

  for (auto& srv : fleet) {
    if (srv != nullptr) {
      resyncs += srv->replicator()->stats().resyncs;
      srv->Stop();
    }
  }
  if (primary != nullptr) primary->Stop();
  if (chaos) server::fault::Uninstall();
  cleanup_dir();

  std::fprintf(stderr,
               "replicas: n=%u clients=%u batches=%llu requests=%llu "
               "transport_errors=%llu status_errors=%llu mismatches=%llu "
               "version_regressions=%llu overloaded=%llu\n",
               replicas, clients,
               static_cast<unsigned long long>(total_batches),
               static_cast<unsigned long long>(requests),
               static_cast<unsigned long long>(transport_errors),
               static_cast<unsigned long long>(status_errors),
               static_cast<unsigned long long>(mismatches),
               static_cast<unsigned long long>(regressions),
               static_cast<unsigned long long>(overloaded));
  std::fprintf(stderr,
               "replicas: wdpt_replication_resyncs_total=%llu "
               "replica_kills=%llu primary_restarts=%llu retries=%llu "
               "reconnects=%llu\n",
               static_cast<unsigned long long>(resyncs),
               static_cast<unsigned long long>(replica_kills),
               static_cast<unsigned long long>(primary_restarts),
               static_cast<unsigned long long>(retry_totals.retries),
               static_cast<unsigned long long>(retry_totals.reconnects));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"benchmark\":\"wdpt_server_replicas\",\"dataset\":\""
        << dataset_name << "\",\"facts\":" << facts
        << ",\"replicas\":" << replicas << ",\"clients\":" << clients
        << ",\"chaos\":" << (chaos ? "true" : "false")
        << ",\"chaos_seed\":" << chaos_seed
        << ",\"batches\":" << total_batches << ",\"requests\":" << requests
        << ",\"transport_errors\":" << transport_errors
        << ",\"status_errors\":" << status_errors
        << ",\"mismatches\":" << mismatches
        << ",\"version_regressions\":" << regressions
        << ",\"resyncs\":" << resyncs
        << ",\"replica_kills\":" << replica_kills
        << ",\"primary_restarts\":" << primary_restarts
        << ",\"retries\":" << retry_totals.retries << "}\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  bool failed = orchestration_failed || transport_errors != 0 ||
                status_errors != 0 || mismatches != 0 || regressions != 0 ||
                requests == 0;
  if (failed) {
    std::fprintf(stderr,
                 "FAILED: %llu mismatches, %llu status errors, %llu "
                 "transport errors, %llu version regressions\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(status_errors),
                 static_cast<unsigned long long>(transport_errors),
                 static_cast<unsigned long long>(regressions));
  }
  if (chaos && resyncs == 0) {
    std::fprintf(stderr,
                 "FAILED: no replica ever resynced; the chaos schedule "
                 "never exercised torn-stream recovery\n");
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  std::string data_path;
  std::string json_path;
  uint32_t bands = 200;
  std::string clients_list = "1,2,4,8";
  uint64_t requests_per_client = 50;
  uint64_t warmup_per_client = 0;
  uint64_t deadline_ms = 0;
  unsigned workers = 0;
  size_t queue = 64;
  size_t cache_bytes = 0;
  bool cache_bypass = false;
  bool verify = true;
  double max_ping_p50_ms = 0;  // 0 = report only, no assertion.
  bool chaos = false;
  uint64_t chaos_seed = 1;
  uint64_t drain_ms = 200;
  unsigned replicas = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--data" && i + 1 < argc) {
      data_path = argv[++i];
    } else if (arg == "--bands" && i + 1 < argc) {
      bands = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--clients" && i + 1 < argc) {
      clients_list = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      requests_per_client = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--warmup" && i + 1 < argc) {
      warmup_per_client = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--queue" && i + 1 < argc) {
      queue = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      cache_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--cache-bypass") {
      cache_bypass = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--max-ping-p50-ms" && i + 1 < argc) {
      max_ping_p50_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--chaos-seed" && i + 1 < argc) {
      chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--drain-ms" && i + 1 < argc) {
      drain_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }

  std::vector<unsigned> client_counts;
  {
    std::stringstream ss(clients_list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      unsigned n = static_cast<unsigned>(std::strtoul(item.c_str(), nullptr, 10));
      if (n > 0) client_counts.push_back(n);
    }
  }
  if (client_counts.empty()) return Usage(argv[0]);

  // Dataset: a file, or the deterministic builtin catalog.
  std::string triples;
  std::string dataset_name;
  if (!data_path.empty()) {
    std::ifstream file(data_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", data_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    triples = buffer.str();
    dataset_name = data_path;
  } else {
    triples = MakeCatalogTriples(bands);
    dataset_name = "builtin-catalog(" + std::to_string(bands) + " bands)";
  }

  // A local snapshot always exists: it anchors verification even when
  // targeting an external server (which must serve the same data).
  Result<std::shared_ptr<const server::Snapshot>> snapshot =
      server::LoadSnapshot(triples, /*version=*/1);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "data error: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  size_t facts = (*snapshot)->db.TotalFacts();

  std::vector<server::QueryCall> mix = MakeQueryMix(deadline_ms);
  if (cache_bypass) {
    for (server::QueryCall& q : mix) q.cache_bypass = true;
  }

  // Expected responses via the exact code path the server runs.
  std::vector<server::Response> expected;
  if (verify) {
    Engine local_engine(EngineOptions{1, 128});
    for (const server::QueryCall& q : mix) {
      expected.push_back(
          server::ExecuteQuery(&local_engine, **snapshot, q.ToRequest()));
      if (!expected.back().ok()) {
        std::fprintf(stderr, "query mix entry failed locally: %s\n",
                     expected.back().message.c_str());
        return 1;
      }
    }
  }

  if (replicas > 0) {
    // The replication gate owns the whole fleet (primary + replicas),
    // so an external target makes no sense here.
    if (!connect.empty()) {
      std::fprintf(stderr,
                   "error: --replicas needs the in-process fleet (drop "
                   "--connect)\n");
      return 1;
    }
    return RunReplicas(triples, replicas, client_counts.front(),
                       requests_per_client, workers, queue, cache_bytes, mix,
                       verify, chaos, chaos_seed, drain_ms, json_path, facts,
                       dataset_name);
  }

  if (chaos) {
    // The chaos gate owns its server (it must drain and restart it) and
    // injects faults process-wide, so an external target is off-limits.
    if (!connect.empty()) {
      std::fprintf(stderr,
                   "error: --chaos needs the in-process server (drop "
                   "--connect)\n");
      return 1;
    }
    unsigned chaos_clients = client_counts.front();
    return RunChaos(triples, chaos_clients, requests_per_client, workers,
                    queue, cache_bytes, mix, verify ? &expected : nullptr,
                    chaos_seed, drain_ms, json_path, facts, dataset_name);
  }

  // Target: external server or in-process.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::unique_ptr<server::Server> in_process;
  if (!connect.empty()) {
    size_t colon = connect.rfind(':');
    if (colon == std::string::npos) return Usage(argv[0]);
    host = connect.substr(0, colon);
    port = static_cast<uint16_t>(
        std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
  } else {
    server::ServerOptions options;
    options.num_workers = workers;
    options.admission_capacity = queue;
    options.engine.answer_cache_bytes = cache_bytes;
    in_process = std::make_unique<server::Server>(options);
    Status started = in_process->Start(*snapshot);
    if (!started.ok()) {
      std::fprintf(stderr, "server start error: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    port = in_process->port();
  }

  std::fprintf(stderr,
               "loadgen: %s, %zu facts, %llu requests/client (%llu "
               "warmup), mix of %zu queries\n",
               dataset_name.c_str(), facts,
               static_cast<unsigned long long>(requests_per_client),
               static_cast<unsigned long long>(warmup_per_client),
               mix.size());

  bool failed = false;
  double ping_p50_ms = MeasurePingP50Ms(host, port, 50);
  if (ping_p50_ms < 0) {
    std::fprintf(stderr, "ping probe failed\n");
    failed = true;
  } else {
    std::fprintf(stderr, "ping p50=%sms\n", FormatDouble(ping_p50_ms).c_str());
    if (max_ping_p50_ms > 0 && ping_p50_ms > max_ping_p50_ms) {
      std::fprintf(stderr,
                   "FAILED: ping p50 %sms exceeds --max-ping-p50-ms %s\n",
                   FormatDouble(ping_p50_ms).c_str(),
                   FormatDouble(max_ping_p50_ms).c_str());
      failed = true;
    }
  }

  std::vector<RunResult> results;
  for (unsigned clients : client_counts) {
    RunResult r = RunLoad(host, port, clients, requests_per_client,
                          warmup_per_client, mix, verify ? &expected : nullptr);
    std::fprintf(stderr,
                 "clients=%2u requests=%llu rps=%s p50=%sms "
                 "p90=%sms p99=%sms srv_queue_p50=%sms "
                 "srv_eval_p50=%sms cache_hit_rate=%s overloaded=%llu "
                 "transport_errors=%llu status_errors=%llu "
                 "mismatches=%llu\n",
                 clients, static_cast<unsigned long long>(r.requests),
                 FormatDouble(r.throughput_rps).c_str(),
                 FormatDouble(r.p50_ms).c_str(),
                 FormatDouble(r.p90_ms).c_str(),
                 FormatDouble(r.p99_ms).c_str(),
                 FormatDouble(r.srv_queue_p50_ms).c_str(),
                 FormatDouble(r.srv_eval_p50_ms).c_str(),
                 FormatDouble(r.cache_hit_rate).c_str(),
                 static_cast<unsigned long long>(r.overloaded),
                 static_cast<unsigned long long>(r.transport_errors),
                 static_cast<unsigned long long>(r.status_errors),
                 static_cast<unsigned long long>(r.mismatches));
    // Any verification mismatch, unexpected status, transport error, or
    // a run that issued no requests at all makes the process exit
    // nonzero — CI treats this tool as a differential gate.
    if (r.transport_errors != 0 || r.status_errors != 0 ||
        r.mismatches != 0 || r.requests == 0) {
      failed = true;
    }
    results.push_back(r);
  }
  if (in_process != nullptr) in_process->Stop();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"benchmark\":\"wdpt_server_loadgen\",\"dataset\":\""
        << dataset_name << "\",\"facts\":" << facts
        << ",\"requests_per_client\":" << requests_per_client
        << ",\"warmup_per_client\":" << warmup_per_client
        << ",\"mix_size\":" << mix.size() << ",\"verified\":"
        << (verify ? "true" : "false")
        << ",\"cache_bytes\":" << cache_bytes
        << ",\"cache_bypass\":" << (cache_bypass ? "true" : "false")
        << ",\"ping_p50_ms\":" << FormatDouble(ping_p50_ms)
        << ",\"results\":[";
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      if (i > 0) out << ",";
      out << "{\"clients\":" << r.clients
          << ",\"requests\":" << r.requests
          << ",\"wall_ms\":" << FormatDouble(r.wall_ms)
          << ",\"throughput_rps\":" << FormatDouble(r.throughput_rps)
          << ",\"p50_ms\":" << FormatDouble(r.p50_ms)
          << ",\"p90_ms\":" << FormatDouble(r.p90_ms)
          << ",\"p99_ms\":" << FormatDouble(r.p99_ms)
          << ",\"srv_queue_p50_ms\":" << FormatDouble(r.srv_queue_p50_ms)
          << ",\"srv_eval_p50_ms\":" << FormatDouble(r.srv_eval_p50_ms)
          << ",\"cache_hits\":" << r.cache_hits
          << ",\"cache_hit_rate\":" << FormatDouble(r.cache_hit_rate)
          << ",\"overloaded\":" << r.overloaded
          << ",\"transport_errors\":" << r.transport_errors
          << ",\"status_errors\":" << r.status_errors
          << ",\"mismatches\":" << r.mismatches << "}";
    }
    out << "]}\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  if (failed) {
    uint64_t mismatches = 0, status_errors = 0, transport_errors = 0;
    for (const RunResult& r : results) {
      mismatches += r.mismatches;
      status_errors += r.status_errors;
      transport_errors += r.transport_errors;
    }
    std::fprintf(stderr,
                 "FAILED: %llu mismatches, %llu status errors, %llu "
                 "transport errors\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(status_errors),
                 static_cast<unsigned long long>(transport_errors));
    return 1;
  }
  return 0;
}
