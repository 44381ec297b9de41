// perfbench_loadgen: the serving benchmark's one command.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --work-dir DIR
//
// Starts the shipped wdpt_server as a child process (so its peak RSS and
// STATS counters are its own), drives the workload's seeded,
// count-based, closed-loop operation streams over loopback with
// server::Client, verifies every response against the reference answers
// computed before the timed phase, and prints one JSON line with
// {"correct", "attempted", "failed", "metrics"} last on stdout.
//
// --trace 0 reports the end-to-end metrics; set-up (spawn, ready, one
// warm-up pass over every distinct request shape) runs three or five
// times and its median is reported. --trace 1 runs the same end-to-end
// pass once, then replays the operations in-process with one engine
// working at a time and reports the per-layer metrics (traced.cpp). The operation
// counts scale with --seconds (10 s is scale 1; every kind keeps at
// least 100 samples), so a run is a fixed amount of work, not a
// duration. See perfbench/NOTES.md for the reasoning.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/percentile.h"
#include "src/server/client.h"
#include "src/storage/apply.h"
#include "src/storage/storage_manager.h"

namespace perfbench {
namespace {

constexpr double kSecondsAtScale1 = 10.0;
constexpr int kOverloadRetries = 20;
constexpr uint64_t kFailedNs = ~uint64_t{0};  // +inf in every percentile.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kSecondsAtScale1;
  bool trace = false;
  std::string server;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--server") {
      args->server = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->server.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------
// The wdpt_server child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Spawns the server and waits for the port it prints when ready.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error) {
    int out[2];
    if (::pipe(out) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Die with the load generator, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(out[1], 1);
      int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, 2);
      ::close(out[0]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 120000) <= 0) break;
      char buf[64];
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str(), nullptr, 10));
    if (port_ == 0) {
      *error = "server did not report a port (see " + log_path + ")";
      Stop();
      return false;
    }
    return true;
  }

  // Peak resident set (VmHWM) in KiB, or 0 when unreadable.
  uint64_t PeakRssKib() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtoull(line.c_str() + 6, nullptr, 10);
      }
    }
    return 0;
  }

  // SIGINT (clean shutdown), SIGKILL after 30 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGINT);
      int status = 0;
      for (int waited = 0; waited < 3000; ++waited) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        ::usleep(10000);
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------
// Issuing and verifying operations.

Sample Send(wdpt::server::Client* client, const Op& op) {
  Sample s;
  s.kind = op.kind;
  uint64_t t0 = NowNs();
  wdpt::Result<wdpt::server::Response> r =
      op.kind == Kind::kIngest
          ? client->Ingest(wdpt::storage::FormatIngestBody(op.ingest))
          : client->Query(op.call);
  for (int retry = 0; op.kind != Kind::kIngest && retry < kOverloadRetries &&
                      r.ok() && r->code == wdpt::StatusCode::kOverloaded;
       ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        r->retry_after_ms != 0 ? r->retry_after_ms : 1));
    r = client->Query(op.call);
  }
  s.latency_ns = NowNs() - t0;
  if (!r.ok()) {
    s.failed = true;
    s.error = r.status().ToString();
    return s;
  }
  if (r->code != wdpt::StatusCode::kOk) {
    s.failed = true;
    s.error = r->message;
    return s;
  }
  JsonUint(r->stats_json, "wall_ns", &s.wall_ns);
  JsonUint(r->stats_json, "queue_ns", &s.queue_ns);
  s.truncated = r->truncated;
  if (op.kind == Kind::kIngest) {
    JsonUint(r->stats_json, "facts", &s.facts);
  } else if (op.kind == Kind::kEnum || op.kind == Kind::kMaxEnum) {
    for (const std::string& row : r->rows) s.digest.Add(row);
  } else {
    s.rows = std::move(r->rows);
  }
  return s;
}

bool Matches(const Op& op, const Sample& s) {
  const Expected& e = op.expected;
  switch (op.kind) {
    case Kind::kEnum:
    case Kind::kMaxEnum:
      return s.digest == e.digest;
    case Kind::kLimit: {
      uint64_t n = e.row_set->size();
      if (s.truncated != (n > kLimitRows)) return false;
      if (s.rows.size() != std::min(n, kLimitRows)) return false;
      std::set<std::string> distinct(s.rows.begin(), s.rows.end());
      if (distinct.size() != s.rows.size()) return false;
      for (const std::string& row : s.rows) {
        if (e.row_set->count(row) == 0) return false;
      }
      return true;
    }
    case Kind::kEval:
    case Kind::kPartial:
    case Kind::kMax:
      return s.rows.size() == 1 && s.rows[0] == (e.verdict ? "true" : "false");
    case Kind::kIngest:
      return s.facts == e.facts;
  }
  return false;
}

// A numeric field inside one top-level section of the STATS JSON.
uint64_t StatsField(const std::string& json, const std::string& section,
                    const std::string& key) {
  size_t at = json.find("\"" + section + "\":");
  uint64_t value = 0;
  if (at != std::string::npos) JsonUint(json.substr(at), key, &value);
  return value;
}

struct PhaseResult {
  std::vector<Sample> samples;
  uint64_t wall_ns = 0;
  std::string stats_before, stats_after;
  uint64_t peak_rss_kib = 0;
  double ping_p50_ms = 0;
};

struct Runner {
  const Args& args;
  const Workload& w;
  std::string store_dir;
  std::string prepared_dir;
  std::string triples_path;
  std::string log_path;
  std::vector<std::string> problems;

  std::vector<std::string> ServerArgs() const {
    std::vector<std::string> a = {"--port", "0", "--print-port", "--data-dir",
                                  store_dir};
    if (w.wal_tail.empty()) {
      a.push_back("--data");
      a.push_back(triples_path);
    }
    a.insert(a.end(), w.server_flags.begin(), w.server_flags.end());
    return a;
  }

  // One set-up: fresh store, spawn, connect, warm-up. Returns seconds.
  bool SetUp(ServerProcess* server,
             std::vector<std::unique_ptr<wdpt::server::Client>>* clients,
             double* seconds, std::string* error) {
    if (!CopyDir(prepared_dir, store_dir)) {
      *error = "cannot copy the prepared store";
      return false;
    }
    uint64_t t0 = NowNs();
    if (!server->Start(args.server, ServerArgs(), log_path, error)) return false;
    clients->clear();
    for (size_t c = 0; c < w.streams.size(); ++c) {
      auto client = std::make_unique<wdpt::server::Client>();
      wdpt::Status connected = client->Connect("127.0.0.1", server->port());
      if (!connected.ok()) {
        *error = connected.ToString();
        return false;
      }
      clients->push_back(std::move(client));
    }
    for (const Op& op : w.warmup) {
      Sample s = Send((*clients)[0].get(), op);
      if (s.failed) {
        *error = std::string("warm-up ") + KindName(op.kind) + ": " + s.error;
        return false;
      }
    }
    *seconds = Seconds(NowNs() - t0);
    return true;
  }

  bool TimedPhase(ServerProcess* server,
                  std::vector<std::unique_ptr<wdpt::server::Client>>* clients,
                  PhaseResult* out) {
    wdpt::server::Client& c0 = *(*clients)[0];
    std::vector<uint64_t> pings;
    for (int i = 0; i < 200; ++i) {
      uint64_t t0 = NowNs();
      wdpt::Result<wdpt::server::Response> r = c0.Ping();
      if (!r.ok()) return false;
      pings.push_back(NowNs() - t0);
    }
    out->ping_p50_ms = wdpt::PercentileMs(pings, 0.5);
    wdpt::Result<wdpt::server::Response> before = c0.Stats();
    if (!before.ok()) return false;
    out->stats_before = before->stats_json;

    std::vector<std::vector<Sample>> per_stream(w.streams.size());
    uint64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w.streams.size(); ++c) {
      threads.emplace_back([&, c] {
        for (const Op& op : w.streams[c]) {
          per_stream[c].push_back(Send((*clients)[c].get(), op));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out->wall_ns = NowNs() - t0;

    wdpt::Result<wdpt::server::Response> after = c0.Stats();
    if (!after.ok()) return false;
    out->stats_after = after->stats_json;
    out->peak_rss_kib = server->PeakRssKib();
    for (size_t c = 0; c < per_stream.size(); ++c) {
      for (size_t i = 0; i < per_stream[c].size(); ++i) {
        Sample& s = per_stream[c][i];
        if (!s.failed && !Matches(w.streams[c][i], s)) {
          s.mismatch = true;
          if (s.kind == Kind::kIngest) {
            s.error = "acked |D| " + std::to_string(s.facts) + ", expected " +
                      std::to_string(w.streams[c][i].expected.facts);
          }
        }
        out->samples.push_back(std::move(s));
      }
    }
    return true;
  }

  // Reopens the store the server left and compares it with the state
  // every acknowledged batch implies.
  void CheckDurableState() {
    wdpt::storage::StorageOptions options;
    options.dir = store_dir;
    auto manager = wdpt::storage::StorageManager::Open(options);
    if (!manager.ok()) {
      problems.push_back("reopen failed: " + manager.status().ToString());
      return;
    }
    auto snapshot = (*manager)->CurrentSnapshot();
    uint64_t facts = snapshot->db.TotalFacts();
    if (facts != w.final_facts ||
        FactDigest(snapshot->ctx, snapshot->db) != w.final_fact_digest) {
      problems.push_back("reopened store holds " + std::to_string(facts) +
                         " facts, not the acknowledged " +
                         std::to_string(w.final_facts));
    }
  }
};

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<uint64_t> Latencies(const std::vector<Sample>& samples,
                                bool (*want)(Kind)) {
  std::vector<uint64_t> ns;
  for (const Sample& s : samples) {
    if (want(s.kind)) ns.push_back(s.failed || s.mismatch ? kFailedNs : s.latency_ns);
  }
  return ns;
}

double Pct(std::vector<uint64_t> ns, double p) {
  if (std::find(ns.begin(), ns.end(), kFailedNs) != ns.end()) {
    // A failed request is +inf: it counts when it lands at or above p.
    uint64_t v = wdpt::PercentileValue(ns, p);
    if (v == kFailedNs) return INFINITY;
    return static_cast<double>(v) / 1e6;
  }
  return wdpt::PercentileMs(ns, p);
}

template <Kind K>
bool IsKind(Kind k) {
  return k == K;
}

// Size invariants, printed and enforced; returns the violations.
std::vector<std::string> CheckInvariants(const Workload& w,
                                         const PhaseResult& phase) {
  std::vector<std::string> bad;
  const SizeFacts& z = w.sizes;
  std::fprintf(stderr, "invariant facts=%llu",
               static_cast<unsigned long long>(z.facts));
  if (z.pinned_facts != 0 && z.facts != z.pinned_facts) {
    bad.push_back("facts drifted from " + std::to_string(z.pinned_facts));
  }
  uint64_t total = 0, total_max = 0;
  for (size_t i = 0; i < z.answers.size(); ++i) {
    total += z.answers[i];
    total_max += z.maximal_answers[i];
  }
  std::fprintf(stderr, " answers=%llu maximal_answers=%llu shapes=%zu",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(total_max), z.answers.size());
  for (size_t i = 0; i < z.pinned_answers.size(); ++i) {
    std::fprintf(stderr, " %s:|p(D)|=%llu,|p_m(D)|=%llu",
                 z.shape_names[i].c_str(),
                 static_cast<unsigned long long>(z.answers[i]),
                 static_cast<unsigned long long>(z.maximal_answers[i]));
    if (z.answers[i] != z.pinned_answers[i] ||
        z.maximal_answers[i] != z.pinned_maximal_answers[i]) {
      bad.push_back(z.shape_names[i] + " answer counts drifted");
    }
  }
  std::fprintf(stderr, "\n");

  std::map<Kind, uint64_t> per_kind;
  for (const Sample& s : phase.samples) ++per_kind[s.kind];
  std::fprintf(stderr, "invariant samples");
  for (int k = 0; k < kKindCount; ++k) {
    uint64_t n = per_kind[static_cast<Kind>(k)];
    std::fprintf(stderr, " %s=%llu", KindName(static_cast<Kind>(k)),
                 static_cast<unsigned long long>(n));
    if (n < 100) bad.push_back(std::string("fewer than 100 ") +
                               KindName(static_cast<Kind>(k)) + " samples");
  }
  std::fprintf(stderr, "\n");

  const std::string& a = phase.stats_after;
  const std::string& b = phase.stats_before;
  uint64_t lookups = StatsField(a, "engine", "plan_cache_lookups") -
                     StatsField(b, "engine", "plan_cache_lookups");
  uint64_t hits = StatsField(a, "engine", "plan_cache_hits") -
                  StatsField(b, "engine", "plan_cache_hits");
  double plan_hit = lookups ? static_cast<double>(hits) / lookups : 0;
  uint64_t ahits = StatsField(a, "engine", "answer_cache_hits") -
                   StatsField(b, "engine", "answer_cache_hits");
  uint64_t amiss = StatsField(a, "engine", "answer_cache_misses") -
                   StatsField(b, "engine", "answer_cache_misses");
  double answer_hit = ahits + amiss ? static_cast<double>(ahits) / (ahits + amiss) : 0;
  uint64_t checkpoints = StatsField(a, "storage", "checkpoints") -
                         StatsField(b, "storage", "checkpoints");
  double checkpoint_share =
      per_kind[Kind::kIngest]
          ? static_cast<double>(checkpoints) / per_kind[Kind::kIngest]
          : 0;
  std::fprintf(stderr,
               "invariant plan_cache_hit_share=%.4f answer_cache_hit_share=%.4f "
               "checkpoint_share=%.4f |D|_drift=%lld\n",
               plan_hit, answer_hit, checkpoint_share,
               static_cast<long long>(w.final_facts) -
                   static_cast<long long>(z.facts));
  if (w.plan_cache_always_hits && plan_hit != 1.0) {
    bad.push_back("plan cache missed in the timed phase");
  }
  if (w.expect_answer_hit_share >= 0 &&
      std::fabs(answer_hit - w.expect_answer_hit_share) > 0.02) {
    bad.push_back("answer-cache hit share drifted");
  }
  if (w.expect_checkpoints && checkpoint_share <= 0.1) {
    bad.push_back("checkpoint share not above 1/10");
  }
  if (w.final_facts != z.facts) bad.push_back("|D| drifted across the run");
  return bad;
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    double setup_s) {
  const std::vector<Sample>& s = phase.samples;
  uint64_t completed = 0;
  for (const Sample& x : s) completed += !x.failed;
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mb", static_cast<double>(phase.peak_rss_kib) / 1024.0,
               "MiB"});
  m.push_back({"throughput_rps",
               static_cast<double>(completed) / Seconds(phase.wall_ns), "1/s"});
  m.push_back({"enum_p50_ms", Pct(Latencies(s, IsKind<Kind::kEnum>), 0.5), "ms"});
  m.push_back({"enum_p90_ms", Pct(Latencies(s, IsKind<Kind::kEnum>), 0.9), "ms"});
  m.push_back({"maxenum_p50_ms", Pct(Latencies(s, IsKind<Kind::kMaxEnum>), 0.5),
               "ms"});
  m.push_back({"maxenum_p90_ms", Pct(Latencies(s, IsKind<Kind::kMaxEnum>), 0.9),
               "ms"});
  m.push_back({"limit_p50_ms", Pct(Latencies(s, IsKind<Kind::kLimit>), 0.5), "ms"});
  m.push_back({"check_eval_p50_ms", Pct(Latencies(s, IsKind<Kind::kEval>), 0.5),
               "ms"});
  m.push_back({"check_partial_p50_ms",
               Pct(Latencies(s, IsKind<Kind::kPartial>), 0.5), "ms"});
  m.push_back({"check_max_p50_ms", Pct(Latencies(s, IsKind<Kind::kMax>), 0.5),
               "ms"});
  m.push_back({"check_p90_ms", Pct(Latencies(s, IsCheck), 0.9), "ms"});
  m.push_back({"ingest_p50_ms", Pct(Latencies(s, IsKind<Kind::kIngest>), 0.5),
               "ms"});
  m.push_back({"ingest_p90_ms", Pct(Latencies(s, IsKind<Kind::kIngest>), 0.9),
               "ms"});
  return m;
}

// Per-layer metrics read from the end-to-end pass: response headers and
// STATS deltas.
void E2eLayerMetrics(const Runner& r, const PhaseResult& phase,
                     std::map<std::string, double>* out) {
  std::vector<uint64_t> wire, queue;
  for (const Sample& s : phase.samples) {
    if (s.failed || s.kind == Kind::kIngest) continue;
    wire.push_back(s.latency_ns > s.wall_ns ? s.latency_ns - s.wall_ns : 0);
    queue.push_back(s.queue_ns);
  }
  (*out)["server.ping_rtt_ms"] = phase.ping_p50_ms;
  (*out)["server.wire_ms"] = wdpt::PercentileMs(wire, 0.5);
  (*out)["server.queue_p50_ms"] = wdpt::PercentileMs(queue, 0.5);
  (*out)["server.queue_p90_ms"] = wdpt::PercentileMs(queue, 0.9);
  const std::string& a = phase.stats_after;
  const std::string& b = phase.stats_before;
  auto delta = [&](const char* section, const char* key) {
    return static_cast<double>(StatsField(a, section, key) -
                               StatsField(b, section, key));
  };
  double lookups = delta("engine", "plan_cache_lookups");
  (*out)["engine.plan_cache_hit_rate"] =
      lookups > 0 ? delta("engine", "plan_cache_hits") / lookups : 0;
  double ahits = delta("engine", "answer_cache_hits");
  double amiss = delta("engine", "answer_cache_misses");
  (*out)["engine.answer_cache_hit_rate"] =
      ahits + amiss > 0 ? ahits / (ahits + amiss) : 0;
  (*out)["storage.checkpoints"] = delta("storage", "checkpoints");
  uint64_t ops = 0;
  for (const auto& stream : r.w.streams) {
    for (const Op& op : stream) ops += op.ingest.size();
  }
  (*out)["storage.wal_bytes_per_op"] =
      ops > 0 ? delta("storage", "wal_bytes") / static_cast<double>(ops) : 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server PATH --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  uint64_t t_gen = NowNs();
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.seconds / kSecondsAtScale1,
                    &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "generated %s (seed %llu) with references in %.2f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               Seconds(NowNs() - t_gen));

  ::mkdir(args.work_dir.c_str(), 0755);
  Runner r{args,
           w,
           args.work_dir + "/store",
           args.work_dir + "/prepared",
           args.work_dir + "/data.triples",
           args.work_dir + "/server.log",
           {}};
  ::unlink(r.log_path.c_str());
  {
    std::ofstream triples(r.triples_path);
    triples << w.triples;
    if (!triples) {
      std::fprintf(stderr, "cannot write %s\n", r.triples_path.c_str());
      return 1;
    }
  }
  std::string error;
  if (!w.wal_tail.empty()) {
    if (!PrepareStore(r.prepared_dir, w.triples, w.wal_tail, &error)) {
      std::fprintf(stderr, "prepare store: %s\n", error.c_str());
      return 1;
    }
  } else {
    RemoveDir(r.prepared_dir);
    ::mkdir(r.prepared_dir.c_str(), 0755);
  }

  // Short set-ups (under a second) repeat five times, long ones three:
  // the median then rests on enough samples without dominating the run.
  int repeats = 1;
  std::vector<double> setups;
  ServerProcess server;
  std::vector<std::unique_ptr<wdpt::server::Client>> clients;
  for (int k = 0; k < repeats; ++k) {
    if (k != 0) {
      clients.clear();
      server.Stop();
    }
    double seconds = 0;
    if (!r.SetUp(&server, &clients, &seconds, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(seconds);
    if (k == 0 && !args.trace) repeats = seconds < 1.0 ? 5 : 3;
  }
  std::sort(setups.begin(), setups.end());
  double setup_s = setups[setups.size() / 2];
  std::fprintf(stderr, "setup_s runs:");
  for (double s : setups) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");

  PhaseResult phase;
  if (!r.TimedPhase(&server, &clients, &phase)) {
    std::fprintf(stderr, "timed phase lost the connection\n");
    return 1;
  }
  // Verification-only requests, untimed, after the timed phase's STATS
  // snapshot and peak RSS were read.
  std::vector<Sample> probes;
  for (const Op& op : w.probes) {
    Sample s = Send(clients[0].get(), op);
    s.mismatch = !s.failed && !Matches(op, s);
    probes.push_back(std::move(s));
  }
  clients.clear();
  server.Stop();
  r.CheckDurableState();

  uint64_t failed = 0, mismatches = 0;
  std::map<std::string, int> first_errors;
  for (const std::vector<Sample>* samples : {&phase.samples, &probes}) {
    for (const Sample& s : *samples) {
      failed += s.failed || s.mismatch;
      mismatches += s.mismatch;
      if ((s.failed || s.mismatch) && first_errors.size() < 5) {
        first_errors[std::string(KindName(s.kind)) + ": " +
                     (s.failed ? s.error : "mismatch " + s.error)]++;
      }
    }
  }
  for (const auto& [what, n] : first_errors) {
    std::fprintf(stderr, "FAILED %s (x%d)\n", what.c_str(), n);
  }
  std::vector<std::string> bad = CheckInvariants(w, phase);
  bad.insert(bad.end(), r.problems.begin(), r.problems.end());
  for (const std::string& b : bad) std::fprintf(stderr, "VIOLATION %s\n", b.c_str());
  std::fprintf(stderr,
               "timed phase: %zu ops in %.3f s; %zu probes; %llu failed, %llu "
               "mismatches\n",
               phase.samples.size(), Seconds(phase.wall_ns), probes.size(),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatches));
  bool correct = failed == 0 && bad.empty();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(phase, setup_s);
  } else {
    std::map<std::string, double> layer;
    E2eLayerMetrics(r, phase, &layer);
    layer["storage.snapshot_bytes_per_fact"] =
        static_cast<double>(SnapshotFileBytes(r.store_dir)) /
        static_cast<double>(w.final_facts);
    TracedInputs in;
    in.workload = &w;
    in.prepared_dir = r.prepared_dir;
    in.work_dir = args.work_dir;
    if (!RunTraced(in, &layer, &error)) {
      std::fprintf(stderr, "traced run failed: %s\n", error.c_str());
      correct = false;
    }
    for (const auto& [name, value] : layer) {
      metrics.push_back({name, value, PerLayerUnit(name)});
    }
  }
  PrintResult(correct, phase.samples.size() + probes.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
