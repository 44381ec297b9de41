// Fault-injection differential tests (ctest label `resilience`): the
// server/client pair must stay *bit-identical* to sequential evaluation
// under injected transport and storage faults. Covered: a hard server
// kill + same-port restart mid-load recovered by the retrying client, a
// graceful drain under live load that finishes in-flight work and sheds
// new arrivals, torn response writes that surface as transport errors
// (never as a parsed-but-wrong response), INGEST's no-implicit-retry
// contract with WAL recovery of exactly the acked prefix, and the
// injector's seed determinism that makes all of the above replayable.

#include <gtest/gtest.h>

#include <cstdlib>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/fault.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"
#include "src/storage/storage_manager.h"

namespace wdpt::server {
namespace {

constexpr const char* kFig1Triples =
    "Our_love recorded_by Caribou\n"
    "Our_love published after_2010\n"
    "Swim recorded_by Caribou\n"
    "Swim published after_2010\n"
    "Swim NME_rating 2\n"
    "Caribou formed_in 2007\n";

constexpr const char* kFig1Query =
    "SELECT ?rec ?band ?rating WHERE "
    "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating))";

// A projection-free 4-way cross product (~10^10 homomorphisms): a timed
// request reliably runs until its deadline, which is how the drain test
// pins a request in flight for a known, bounded window.
std::string SlowGraphTriples() {
  std::string out;
  for (int i = 0; i < 40; ++i) {
    for (int k = 0; k < 8; ++k) {
      out += "n" + std::to_string(i) + " e n" +
             std::to_string((i * 7 + k) % 40) + "\n";
    }
  }
  return out;
}

constexpr const char* kSlowQuery =
    "(((?a, e, ?b) AND (?c, e, ?d)) AND ((?f, e, ?g) AND (?h, e, ?i)))";

std::shared_ptr<const Snapshot> MustLoad(std::string_view triples) {
  Result<std::shared_ptr<const Snapshot>> snapshot =
      LoadSnapshot(triples, /*version=*/1);
  WDPT_CHECK(snapshot.ok());
  return *snapshot;
}

// The reference rows: the shared execution path run locally on an
// identical snapshot, no server and no faults in the way.
std::vector<std::string> ExpectedRows(std::string_view triples,
                                      const std::string& query) {
  Engine engine(EngineOptions{1, 16});
  sparql::QueryRequest request;
  request.query = query;
  Response response = ExecuteQuery(&engine, *MustLoad(triples), request);
  WDPT_CHECK(response.code == StatusCode::kOk);
  return response.rows;
}

// Uninstalls the process-global injector even when an ASSERT bails out
// of the test body, so one failure cannot poison later tests.
struct InjectorGuard {
  explicit InjectorGuard(const fault::Options& options) {
    fault::Install(options);
  }
  ~InjectorGuard() { fault::Uninstall(); }
};

TEST(FaultInjector, SameSeedSameSchedule) {
  fault::Options options;
  options.seed = 99;
  options.delay_prob = 0.2;
  options.short_prob = 0.2;
  options.reset_prob = 0.1;
  fault::Injector a(options);
  fault::Injector b(options);
  for (int i = 0; i < 200; ++i) {
    fault::Op op = static_cast<fault::Op>(i % fault::kOpCount);
    fault::Decision da = a.Next(op);
    fault::Decision db = b.Next(op);
    EXPECT_EQ(da.delay_ms, db.delay_ms);
    EXPECT_EQ(da.cap_bytes, db.cap_bytes);
    EXPECT_EQ(da.reset, db.reset);
    EXPECT_EQ(da.fail, db.fail);
  }
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  fault::Options options;
  options.seed = 1;
  options.reset_prob = 0.5;
  fault::Options other = options;
  other.seed = 2;
  fault::Injector a(options);
  fault::Injector b(other);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.Next(fault::Op::kSend).reset != b.Next(fault::Op::kSend).reset;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, EveryNthSendIsDeterministic) {
  fault::Options options;
  options.reset_send_every = 3;
  fault::Injector injector(options);
  for (int i = 1; i <= 12; ++i) {
    fault::Decision d = injector.Next(fault::Op::kSend);
    EXPECT_EQ(d.reset, i % 3 == 0) << "send " << i;
    if (d.reset) {
      EXPECT_GE(d.cap_bytes, 1u);
      EXPECT_LE(d.cap_bytes, 3u);
    }
  }
  EXPECT_EQ(injector.counters().resets, 4u);
}

// Hard kill + same-port restart mid-load: every query the retrying
// client issues must eventually succeed bit-identically — the kill
// surfaces as kCancelled or a transport error, both retry-safe, and the
// reconnect lands on the restarted server.
TEST(Resilience, KillAndRestartMidLoadRecoversBitIdentical) {
  std::vector<std::string> expected = ExpectedRows(kFig1Triples, kFig1Query);

  auto srv = std::make_unique<Server>(ServerOptions());
  ASSERT_TRUE(srv->Start(MustLoad(kFig1Triples)).ok());
  const uint16_t port = srv->port();

  constexpr int kQueries = 40;
  std::atomic<int> progress{0};
  std::atomic<bool> restarted{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  uint64_t retries = 0, reconnects = 0;
  std::thread load([&] {
    Client client;
    RetryPolicy policy;
    policy.max_attempts = 30;
    policy.backoff_initial_ms = 1;
    policy.backoff_max_ms = 20;
    policy.seed = 7;
    client.set_retry_policy(policy);
    client.Connect("127.0.0.1", port);
    // At least kQueries, and at least one begun after the restart: a
    // descheduled main thread must not let the load finish before the
    // kill it is meant to ride out.
    bool queried_after_restart = false;
    for (int i = 0; i < kQueries || !queried_after_restart; ++i) {
      queried_after_restart = restarted.load();
      Result<Response> response = client.Query(QueryCall(kFig1Query));
      if (!response.ok() || response->code != StatusCode::kOk) {
        failures.fetch_add(1);
      } else if (response->rows != expected) {
        mismatches.fetch_add(1);
      }
      progress.fetch_add(1);
    }
    retries = client.retry_stats().retries;
    reconnects = client.retry_stats().reconnects;
  });

  // Kill once the load is demonstrably mid-stream, then restart on the
  // very same port (ListenLoopback's SO_REUSEADDR exists for this).
  while (progress.load() < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  srv->Stop();
  srv.reset();
  ServerOptions options;
  options.port = port;
  srv = std::make_unique<Server>(options);
  Status started = Status::Internal("never started");
  for (int attempt = 0; attempt < 100; ++attempt) {
    started = srv->Start(MustLoad(kFig1Triples));
    if (started.ok()) break;
    srv = std::make_unique<Server>(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  restarted.store(true);
  ASSERT_TRUE(started.ok()) << started.ToString();

  load.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // The kill must actually have been felt: at least one retry, and the
  // reconnect that carried the load across the restart.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(reconnects, 0u);
}

// Graceful drain under live load: the in-flight request finishes (its
// response reaches the wire untorn, inside the drain window), new
// arrivals are shed with kOverloaded + the retry hint, and the counters
// record both.
TEST(Resilience, DrainUnderLoadFinishesInFlightAndShedsArrivals) {
  ServerOptions options;
  options.retry_after_ms = 25;
  options.num_workers = 4;  // The probe must not queue behind the slow query.
  Server srv(options);
  ASSERT_TRUE(srv.Start(MustLoad(SlowGraphTriples())).ok());

  Client slow_client;
  ASSERT_TRUE(slow_client.Connect("127.0.0.1", srv.port()).ok());
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", srv.port()).ok());

  // Pin one request in flight: the cross-product query runs until its
  // 300ms deadline, far longer than the handful of milliseconds the
  // drain needs to start.
  std::atomic<bool> slow_started{false};
  Result<Response> slow = Status::Internal("not run");
  std::thread in_flight([&] {
    slow_started.store(true);
    slow = slow_client.Query(QueryCall(kSlowQuery).DeadlineMs(300));
  });
  while (!slow_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread drainer([&] { srv.Drain(5000); });

  // A new arrival on an existing connection is shed, not evaluated.
  // Poll: the first probe or two may race ahead of the drain flag.
  Result<Response> shed = Status::Internal("not run");
  bool saw_shed = false;
  for (int i = 0; i < 200 && !saw_shed; ++i) {
    shed = probe.Query(QueryCall(kFig1Query));
    if (!shed.ok()) break;  // Drain finished; connection cut.
    if (shed->code == StatusCode::kOverloaded) saw_shed = true;
  }
  ASSERT_TRUE(saw_shed);
  EXPECT_EQ(shed->retry_after_ms, 25u);
  EXPECT_NE(shed->message.find("draining"), std::string::npos);
  // Control commands stay served mid-drain so operators can watch.
  Result<Response> ping = probe.Ping();
  if (ping.ok()) {
    EXPECT_EQ(ping->code, StatusCode::kOk);
  }

  drainer.join();
  in_flight.join();
  // The pinned request completed through the drain: a parsed response
  // (deadline or success — never torn, never cancelled by a hard cut).
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_TRUE(slow->code == StatusCode::kOk ||
              slow->code == StatusCode::kDeadlineExceeded)
      << StatusCodeName(slow->code);

  ServerCounters counters = srv.counters();
  EXPECT_GE(counters.drained_requests, 1u);
  EXPECT_GE(counters.drain_rejections, 1u);
  std::string metrics = srv.MetricsText();
  EXPECT_NE(metrics.find("wdpt_server_drained_requests"), std::string::npos);
  EXPECT_NE(metrics.find("wdpt_server_drain_rejections_total"),
            std::string::npos);
}

// A torn response write must surface as a transport error the client
// can see — never as a parseable (and therefore possibly wrong)
// response. Framing is what guarantees this: the peer reads a short
// frame and tears the connection down.
TEST(Resilience, TornResponseIsNeverParsedAsWrongAnswer) {
  std::vector<std::string> expected = ExpectedRows(kFig1Triples, kFig1Query);
  Server srv{ServerOptions()};
  ASSERT_TRUE(srv.Start(MustLoad(kFig1Triples)).ok());

  {
    // Sends strictly alternate request/response on one connection, so
    // every 2nd send — every server response — is torn.
    fault::Options faults;
    faults.reset_send_every = 2;
    InjectorGuard guard(faults);
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
    Result<Response> torn = client.Query(QueryCall(kFig1Query));
    // The only acceptable outcome is a transport-level failure; a
    // parsed response here would mean a torn frame decoded cleanly.
    ASSERT_FALSE(torn.ok());
  }

  {
    // Same tear, now probabilistic and seeded, against a retrying
    // client: some attempt gets a whole frame through, and that answer
    // must be bit-identical to sequential evaluation.
    fault::Options faults;
    faults.seed = 42;
    faults.reset_prob = 0.35;
    InjectorGuard guard(faults);
    Client client;
    RetryPolicy policy;
    policy.max_attempts = 20;
    policy.backoff_initial_ms = 1;
    policy.backoff_max_ms = 10;
    policy.seed = 42;
    client.set_retry_policy(policy);
    client.Connect("127.0.0.1", srv.port());
    for (int i = 0; i < 10; ++i) {
      Result<Response> response = client.Query(QueryCall(kFig1Query));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->code, StatusCode::kOk) << response->message;
      EXPECT_EQ(response->rows, expected);
    }
    EXPECT_GT(client.retry_stats().retries, 0u);
  }
}

class ResilienceStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/wdpt_resilience_test.XXXXXX";
    char* made = mkdtemp(tmpl);
    ASSERT_NE(made, nullptr);
    dir_ = made;
  }

  void TearDown() override {
    fault::Uninstall();
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  std::string dir_;
};

// INGEST is never retried implicitly (a transport-ambiguous failure may
// have committed), a WAL torn mid-append poisons the writer until
// recovery reopens it, and recovery restores exactly the acked prefix.
TEST_F(ResilienceStorageTest, IngestNeverAutoRetriedAndWalRecoversAckedPrefix) {
  storage::StorageOptions storage_options;
  storage_options.dir = dir_ + "/store";
  Result<std::unique_ptr<storage::StorageManager>> manager =
      storage::StorageManager::Open(storage_options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());

  auto srv = std::make_unique<Server>(ServerOptions());
  ASSERT_TRUE(srv->StartWithStorage(std::move(*manager)).ok());

  Client client;
  RetryPolicy policy;
  policy.max_attempts = 10;  // Applies to idempotent commands only.
  policy.backoff_initial_ms = 1;
  client.set_retry_policy(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());

  Result<Response> baseline = client.Query(QueryCall(kFig1Query));
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->code, StatusCode::kOk);

  // Tear the very next WAL append mid-entry.
  fault::Options faults;
  faults.wal_fail_nth = 1;
  fault::Install(faults);

  uint64_t attempts_before = client.retry_stats().attempts;
  Result<Response> ingest =
      client.Ingest("add Odessa recorded_by Caribou\n");
  ASSERT_TRUE(ingest.ok());  // Transport held; the *operation* failed.
  EXPECT_EQ(ingest->code, StatusCode::kInternal);
  // Exactly one wire attempt: a mutation is never retried implicitly,
  // no matter the policy.
  EXPECT_EQ(client.retry_stats().attempts, attempts_before + 1);

  fault::Uninstall();

  // The torn append poisoned the writer: even fault-free, the next
  // ingest is refused until recovery truncates the tail.
  Result<Response> poisoned =
      client.Ingest("add Odessa recorded_by Caribou\n");
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(poisoned->code, StatusCode::kInternal);
  EXPECT_NE(poisoned->message.find("poisoned"), std::string::npos);

  // The failed batch must not be visible.
  Result<Response> mid = client.Query(QueryCall(kFig1Query));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->rows, baseline->rows);

  srv->Stop();
  srv.reset();

  // Recovery: reopen the directory. The torn tail is truncated, the
  // acked prefix (the import, nothing more) is served bit-identically,
  // and the log accepts appends again.
  Result<std::unique_ptr<storage::StorageManager>> reopened =
      storage::StorageManager::Open(storage_options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->stats().truncated_bytes, 0u);

  Engine engine(EngineOptions{1, 16});
  sparql::QueryRequest request;
  request.query = kFig1Query;
  Response recovered =
      ExecuteQuery(&engine, *(*reopened)->CurrentSnapshot(), request);
  ASSERT_EQ(recovered.code, StatusCode::kOk);
  EXPECT_EQ(recovered.rows, baseline->rows);

  std::vector<storage::TripleOp> batch = {{storage::TripleOpKind::kAdd,
                                           "Odessa", "recorded_by",
                                           "Caribou"}};
  EXPECT_TRUE((*reopened)->Ingest(batch).ok());
}

}  // namespace
}  // namespace wdpt::server
