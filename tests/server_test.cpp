// Tests for the query server subsystem (ctest label `server`):
// protocol round-trips, wire evaluation of the Figure 1 running
// example bit-identical to the shared execution path, concurrent
// clients, deadlines surfacing kDeadlineExceeded over the wire,
// admission-control overload shedding, hot snapshot swaps with no torn
// reads, the stats JSON schema, strict numeric request headers, LIMIT
// answers that are prefixes of the uncapped answer at a homomorphism
// count flat in |D|, and requests compiled against the snapshot's
// vocabulary in place: bit-identical to compiling against a copy, safe
// under concurrency, and at a cost flat in |D|.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/percentile.h"
#include "src/engine/answer_cache.h"
#include "src/engine/engine.h"
#include "src/engine/plan.h"
#include "src/gen/db_gen.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/frame.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"

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

// A projection-free 4-way cross product over a dense-ish edge relation:
// ~10^10 homomorphisms, far beyond any deadline used below, so a timed
// request reliably dies by deadline (cooperatively, long before the
// enumeration caps trigger).
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

std::shared_ptr<const Snapshot> MustLoad(std::string_view triples,
                                         uint64_t version) {
  Result<std::shared_ptr<const Snapshot>> snapshot =
      LoadSnapshot(triples, version);
  WDPT_CHECK(snapshot.ok());
  return *snapshot;
}

// Starts a server on an ephemeral port over `triples`.
std::unique_ptr<Server> StartServer(std::string_view triples,
                                    ServerOptions options = ServerOptions()) {
  auto server = std::make_unique<Server>(options);
  Status started = server->Start(MustLoad(triples, 1));
  WDPT_CHECK(started.ok());
  return server;
}

// The reference answer for a request: the shared execution path run
// locally on an identical snapshot.
Response LocalExpected(std::string_view triples,
                       const sparql::QueryRequest& request) {
  Engine engine(EngineOptions{1, 16});
  return ExecuteQuery(&engine, *MustLoad(triples, 1), request);
}

// The QueryCall equivalent of a transport-layer request, so tests can
// hand one struct both to LocalExpected and to Client::Query.
QueryCall AsCall(const sparql::QueryRequest& request) {
  QueryCall call(request.query);
  call.mode = request.mode;
  call.deadline_ms = request.deadline_ms;
  call.max_results = request.max_results;
  call.candidate = request.candidate;
  call.cache_bypass = request.cache_bypass;
  return call;
}

// Minimal structural JSON sanity: non-empty, balanced braces/quotes,
// starts/ends as an object.
void ExpectLooksLikeJsonObject(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  int quotes = 0;
  for (char c : json) {
    if (c == '"') ++quotes;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(Protocol, QueryRequestRoundTrip) {
  Request request;
  request.command = Command::kQuery;
  request.query.query = kFig1Query;
  request.query.mode = sparql::RequestMode::kMax;
  request.query.deadline_ms = 250;
  request.query.max_results = 7;
  request.query.candidate = "?rec=Swim ?band=Caribou";

  Result<Request> parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->command, Command::kQuery);
  EXPECT_EQ(parsed->query.query, request.query.query);
  EXPECT_EQ(parsed->query.mode, sparql::RequestMode::kMax);
  EXPECT_EQ(parsed->query.deadline_ms, 250u);
  EXPECT_EQ(parsed->query.max_results, 7u);
  EXPECT_EQ(parsed->query.candidate, request.query.candidate);
}

TEST(Protocol, ReloadAndControlRequestsRoundTrip) {
  Request reload;
  reload.command = Command::kReload;
  reload.body = kFig1Triples;
  Result<Request> parsed = ParseRequest(SerializeRequest(reload));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->command, Command::kReload);
  EXPECT_EQ(parsed->body, kFig1Triples);

  for (Command command :
       {Command::kPing, Command::kStats, Command::kMetrics}) {
    Request request;
    request.command = command;
    Result<Request> back = ParseRequest(SerializeRequest(request));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->command, command);
  }
}

TEST(Protocol, ResponseRoundTrip) {
  Response response;
  response.code = StatusCode::kOverloaded;
  response.message = "busy";
  response.rows = {"{x -> a}", "{x -> b, y -> c}", "{}"};
  response.truncated = true;
  response.retry_after_ms = 25;
  response.stats_json = "{\"rows\":3}";

  Result<Response> parsed = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->code, StatusCode::kOverloaded);
  EXPECT_EQ(parsed->message, "busy");
  EXPECT_EQ(parsed->rows, response.rows);
  EXPECT_TRUE(parsed->truncated);
  EXPECT_EQ(parsed->retry_after_ms, 25u);
  EXPECT_EQ(parsed->stats_json, response.stats_json);
}

TEST(Protocol, MalformedPayloadsAreRejected) {
  EXPECT_EQ(ParseRequest("garbage").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseRequest("WDPT/1 FROB\n\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("WDPT/1 QUERY\nno-colon-line\n\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseResponse("WDPT/1 ok\nrows: 3\n\nonly one row\n")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(Protocol, MalformedNumericHeadersAreRejected) {
  const char* const headers[] = {"deadline-ms", "max-results", "epoch",
                                 "offset",      "next-offset", "seq",
                                 "head-seq"};
  const char* const values[] = {"ten",  "10x", "-1",   "soon",
                                "",     " 10", "+10",  "0x10",
                                "99999999999999999999999"};
  for (const char* header : headers) {
    for (const char* value : values) {
      std::string payload = std::string("WDPT/1 QUERY\n") + header + ": " +
                            value + "\n\n" + kFig1Query;
      Result<Request> parsed = ParseRequest(payload);
      ASSERT_FALSE(parsed.ok()) << header << ": '" << value << "'";
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(std::string("'") + header +
                                                "'"),
                std::string::npos)
          << parsed.status().ToString();
    }
  }

  // Well-formed values still parse, up to the largest uint64.
  Result<Request> query = ParseRequest(
      std::string("WDPT/1 QUERY\nmax-results: 10\n"
                  "deadline-ms: 18446744073709551615\n\n") +
      kFig1Query);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->query.max_results, 10u);
  EXPECT_EQ(query->query.deadline_ms, UINT64_MAX);
  Result<Request> genesis =
      ParseRequest("WDPT/1 SUBSCRIBE\nepoch: 0\noffset: 0\n\n");
  ASSERT_TRUE(genesis.ok()) << genesis.status().ToString();
  EXPECT_EQ(genesis->epoch, 0u);
  EXPECT_EQ(genesis->offset, 0u);

  // On the wire the bad header gets invalid-argument, and the session
  // serves the next request.
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Result<int> fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  auto roundtrip = [&](const std::string& payload) {
    EXPECT_TRUE(WriteFrame(*fd, payload).ok());
    Result<std::string> frame = ReadFrame(*fd);
    EXPECT_TRUE(frame.ok());
    return frame.ok() ? ParseResponse(*frame)
                      : Result<Response>(frame.status());
  };
  Result<Response> rejected = roundtrip(
      std::string("WDPT/1 QUERY\nmax-results: ten\n\n") + kFig1Query);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->code, StatusCode::kInvalidArgument);
  EXPECT_NE(rejected->message.find("max-results"), std::string::npos);
  Result<Response> served = roundtrip(
      std::string("WDPT/1 QUERY\nmax-results: 1\n\n") + kFig1Query);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->code, StatusCode::kOk);
  EXPECT_EQ(served->rows.size(), 1u);
  EXPECT_TRUE(served->truncated);
  CloseSocket(*fd);
}

TEST(RequestCompiler, LimitAsksForOneRowPastTheCap) {
  RdfContext ctx;
  sparql::QueryRequest request;
  request.query = kFig1Query;
  for (uint64_t cap : {uint64_t{0}, uint64_t{1}, uint64_t{10}, UINT64_MAX}) {
    request.max_results = cap;
    Result<sparql::CompiledRequest> compiled =
        sparql::CompileRequest(request, &ctx);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(compiled->max_results, cap);
    // No cap asks for every row, and so does the largest one, whose
    // extra row would not fit in 64 bits.
    EXPECT_EQ(compiled->options.first_rows,
              cap == 0 || cap == UINT64_MAX ? 0 : cap + 1);
  }
}

TEST(RequestCompiler, PartialModeRequiresCandidate) {
  RdfContext ctx;
  sparql::QueryRequest request;
  request.query = kFig1Query;
  request.mode = sparql::RequestMode::kPartial;
  Result<sparql::CompiledRequest> compiled =
      sparql::CompileRequest(request, &ctx);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestCompiler, CandidateParsing) {
  RdfContext ctx;
  Result<Mapping> mapping = sparql::ParseCandidate("?x=a  ?y=b", &ctx);
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(mapping->size(), 2u);
  EXPECT_FALSE(sparql::ParseCandidate("x=a", &ctx).ok());
  EXPECT_FALSE(sparql::ParseCandidate("?x", &ctx).ok());
  EXPECT_FALSE(sparql::ParseCandidate("?x=a ?x=b", &ctx).ok());
  // A repeated binding is malformed even when the constants agree.
  Result<Mapping> duplicate = sparql::ParseCandidate("?x=a ?x=a", &ctx);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerWire, Figure1RoundTripMatchesSharedExecutionPath) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  Result<Response> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->code, StatusCode::kOk);

  for (sparql::RequestMode mode :
       {sparql::RequestMode::kEval, sparql::RequestMode::kMax}) {
    sparql::QueryRequest request;
    request.query = kFig1Query;
    request.mode = mode;
    Response expected = LocalExpected(kFig1Triples, request);
    ASSERT_TRUE(expected.ok());
    ASSERT_FALSE(expected.rows.empty());

    Result<Response> response = client.Query(AsCall(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk);
    EXPECT_EQ(response->rows, expected.rows);
    EXPECT_FALSE(response->truncated);
  }

  // Membership checks under all three semantics.
  for (sparql::RequestMode mode :
       {sparql::RequestMode::kEval, sparql::RequestMode::kPartial,
        sparql::RequestMode::kMax}) {
    sparql::QueryRequest request;
    request.query = kFig1Query;
    request.mode = mode;
    request.candidate = "?rec=Swim ?band=Caribou ?rating=2";
    Response expected = LocalExpected(kFig1Triples, request);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(expected.rows.size(), 1u);

    Result<Response> response = client.Query(AsCall(request));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kOk);
    EXPECT_EQ(response->rows, expected.rows);
    EXPECT_EQ(response->rows[0], "true");
  }

  // Truncation is explicit, never silent.
  sparql::QueryRequest capped;
  capped.query = kFig1Query;
  capped.max_results = 1;
  Result<Response> truncated = client.Query(AsCall(capped));
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->code, StatusCode::kOk);
  EXPECT_EQ(truncated->rows.size(), 1u);
  EXPECT_TRUE(truncated->truncated);

  // A bad query is an application-level error on a healthy connection.
  sparql::QueryRequest bad;
  bad.query = "SELECT ?x WHERE ((?x, p)";
  Result<Response> error = client.Query(AsCall(bad));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kParseError);
  ASSERT_TRUE(client.Ping().ok());  // Session survives the error.
}

TEST(ServerWire, DeeplyNestedQueryIsAParseErrorAndTheServerSurvives) {
  // 100,000 nested groups (a 200 KB frame) would overflow the stack of a
  // parser without a depth cap and take the whole server down.
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  sparql::QueryRequest deep;
  deep.query = std::string(100000, '(') + "(?x, p, ?y)" +
               std::string(100000, ')');
  Result<Response> error = client.Query(AsCall(deep));
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kParseError);

  Result<Response> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->code, StatusCode::kOk);
  sparql::QueryRequest fig1;
  fig1.query = kFig1Query;
  Response expected = LocalExpected(kFig1Triples, fig1);
  ASSERT_TRUE(expected.ok());
  Result<Response> response = client.Query(AsCall(fig1));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->rows, expected.rows);
}

TEST(ServerWire, MalformedFrameGetsErrorResponseAndSessionSurvives) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Result<int> fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(*fd, "totally not a request").ok());
  Result<std::string> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<Response> response = ParseResponse(*frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kParseError);

  // Framing stayed intact: a valid request on the same connection works.
  Request ping;
  ping.command = Command::kPing;
  ASSERT_TRUE(WriteFrame(*fd, SerializeRequest(ping)).ok());
  frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok());
  response = ParseResponse(*frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(server->counters().protocol_errors, 1u);
  CloseSocket(*fd);
}

TEST(ServerWire, ConcurrentClientsAreBitIdenticalToSequentialEval) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);

  std::vector<sparql::QueryRequest> mix(3);
  mix[0].query = kFig1Query;
  mix[1].query = kFig1Query;
  mix[1].mode = sparql::RequestMode::kMax;
  mix[2].query =
      "SELECT ?band ?year WHERE "
      "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
      "OPT (?band, formed_in, ?year))";
  std::vector<Response> expected;
  for (const sparql::QueryRequest& q : mix) {
    expected.push_back(LocalExpected(kFig1Triples, q));
    ASSERT_TRUE(expected.back().ok());
    ASSERT_FALSE(expected.back().rows.empty());
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        size_t qi = static_cast<size_t>(c + r) % mix.size();
        Result<Response> response = client.Query(AsCall(mix[qi]));
        if (!response.ok() || response->code != StatusCode::kOk ||
            response->rows != expected[qi].rows) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->counters().queries,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(server->counters().protocol_errors, 0u);
}

TEST(ServerWire, ExpiredDeadlineSurfacesDeadlineExceeded) {
  std::unique_ptr<Server> server = StartServer(SlowGraphTriples());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  sparql::QueryRequest request;
  request.query = kSlowQuery;
  request.deadline_ms = 20;
  Result<Response> response = client.Query(AsCall(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response->rows.empty());  // Never a partial answer.
  EXPECT_GE(server->engine_stats().deadline_exceeded, 1u);
}

TEST(ServerWire, ServerDefaultDeadlineAppliesWhenRequestHasNone) {
  ServerOptions options;
  options.default_deadline_ms = 20;
  std::unique_ptr<Server> server = StartServer(SlowGraphTriples(), options);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  sparql::QueryRequest request;
  request.query = kSlowQuery;  // No deadline of its own.
  Result<Response> response = client.Query(AsCall(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
}

TEST(ServerWire, OverloadShedsWithRetryAfterAndRecovers) {
  ServerOptions options;
  options.num_workers = 1;
  options.admission_capacity = 1;
  options.retry_after_ms = 5;
  std::unique_ptr<Server> server = StartServer(SlowGraphTriples(), options);

  // Occupy the single admission slot with a query that runs for its
  // whole 400ms deadline.
  std::thread slow([&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    sparql::QueryRequest request;
    request.query = kSlowQuery;
    request.deadline_ms = 400;
    Result<Response> response = client.Query(AsCall(request));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  sparql::QueryRequest quick;
  quick.query = "(?a, e, ?b)";
  quick.max_results = 1;
  Result<Response> rejected = client.Query(AsCall(quick));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->code, StatusCode::kOverloaded);
  EXPECT_EQ(rejected->retry_after_ms, 5u);
  EXPECT_TRUE(rejected->rows.empty());
  slow.join();

  // Once the slot frees, the same request succeeds.
  Result<Response> accepted = client.Query(AsCall(quick));
  for (int attempt = 0;
       attempt < 200 && accepted.ok() &&
       accepted->code == StatusCode::kOverloaded;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    accepted = client.Query(AsCall(quick));
  }
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->code, StatusCode::kOk);
  EXPECT_GE(server->counters().rejected_overload, 1u);
}

TEST(ServerWire, SnapshotSwapUnderTrafficNeverTearsReads) {
  auto make_triples = [](const std::string& color) {
    std::string out;
    for (int i = 0; i < 10; ++i) {
      out += "item" + std::to_string(i) + " color " + color + "\n";
    }
    return out;
  };
  const std::string red = make_triples("red");
  const std::string blue = make_triples("blue");

  std::unique_ptr<Server> server = StartServer(red);
  const char* kColorQuery = "SELECT ?i ?c WHERE (?i, color, ?c)";

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
      sparql::QueryRequest request;
      request.query = kColorQuery;
      while (!done.load()) {
        Result<Response> response = client.Query(AsCall(request));
        if (!response.ok() || response->code != StatusCode::kOk) {
          torn.fetch_add(1);
          break;
        }
        reads.fetch_add(1);
        // Every response must be entirely one dataset version: exactly
        // 10 rows, all the same color.
        if (response->rows.size() != 10) {
          torn.fetch_add(1);
          continue;
        }
        bool all_red = true, all_blue = true;
        for (const std::string& row : response->rows) {
          if (row.find("red") == std::string::npos) all_red = false;
          if (row.find("blue") == std::string::npos) all_blue = false;
        }
        if (!all_red && !all_blue) torn.fetch_add(1);
      }
    });
  }

  // Swap the dataset 20 times under live traffic, both over the wire
  // (RELOAD) and through the in-process accessor.
  Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server->port()).ok());
  for (int swap = 0; swap < 20; ++swap) {
    if (swap % 2 == 0) {
      Result<Response> reloaded = admin.Reload(swap % 4 == 0 ? blue : red);
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(reloaded->code, StatusCode::kOk);
    } else {
      server->SwapSnapshot(
          MustLoad(swap % 4 == 1 ? red : blue, 100 + swap));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_GE(server->counters().reloads, 10u);
}

TEST(ServerWire, StatsJsonHasTheDocumentedShape) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  sparql::QueryRequest request;
  request.query = kFig1Query;
  Result<Response> query = client.Query(AsCall(request));
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->code, StatusCode::kOk);

  // Per-request stats ride on every QUERY response.
  ExpectLooksLikeJsonObject(query->stats_json);
  for (const char* key : {"\"status\":\"ok\"", "\"mode\":\"eval\"",
                          "\"rows\":", "\"wall_ns\":",
                          "\"snapshot_version\":1"}) {
    EXPECT_NE(query->stats_json.find(key), std::string::npos)
        << "missing " << key << " in " << query->stats_json;
  }

  // Aggregate STATS: engine counters (EngineStats::ToJson) + server
  // counters under separate keys.
  Result<Response> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->code, StatusCode::kOk);
  ExpectLooksLikeJsonObject(stats->stats_json);
  for (const char* key :
       {"\"engine\":{", "\"server\":{", "\"enumerate_calls\":",
        "\"plan_cache_hits\":", "\"queries\":", "\"admitted\":",
        "\"rejected_overload\":", "\"connections\":"}) {
    EXPECT_NE(stats->stats_json.find(key), std::string::npos)
        << "missing " << key << " in " << stats->stats_json;
  }

  // The engine half is EngineStats::ToJson verbatim; check the schema
  // directly too.
  EngineStats engine_stats = server->engine_stats();
  ExpectLooksLikeJsonObject(engine_stats.ToJson());
  EXPECT_GE(engine_stats.enumerate_calls, 1u);
}

TEST(FrameIO, DribbledBytesReassembleIntoOneFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "WDPT/1 PING\n\n";
  uint32_t len_be = htonl(static_cast<uint32_t>(payload.size()));
  std::string wire(reinterpret_cast<const char*>(&len_be), sizeof(len_be));
  wire += payload;

  // One byte at a time: every recv inside ReadFrame comes back short.
  std::thread writer([&] {
    for (char c : wire) {
      ASSERT_EQ(::send(fds[1], &c, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Result<std::string> frame = ReadFrame(fds[0]);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, payload);
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
}

TEST(FrameIO, EofAtBoundaryIsNotFoundButMidFrameIsAnError) {
  // Clean EOF before any byte: the orderly end of a session.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  CloseSocket(fds[1]);
  Result<std::string> clean = ReadFrame(fds[0]);
  ASSERT_FALSE(clean.ok());
  EXPECT_EQ(clean.status().code(), StatusCode::kNotFound);
  CloseSocket(fds[0]);

  // EOF after the prefix announced more bytes than ever arrive.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint32_t announced = htonl(10);
  ASSERT_EQ(::send(fds[1], &announced, sizeof(announced), 0),
            static_cast<ssize_t>(sizeof(announced)));
  ASSERT_EQ(::send(fds[1], "abc", 3, 0), 3);
  CloseSocket(fds[1]);
  Result<std::string> torn = ReadFrame(fds[0]);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kInternal);
  CloseSocket(fds[0]);
}

TEST(FrameIO, LargeFrameSurvivesPartialWrites) {
  // A frame much larger than the socket buffers forces WriteFrame
  // through its partial-send resume path while a reader drains
  // concurrently.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload(4 * 1024 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 23);
  }
  Result<std::string> frame = Status::Internal("unset");
  std::thread reader([&] { frame = ReadFrame(fds[0]); });
  Status written = WriteFrame(fds[1], payload);
  reader.join();
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, payload);
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
}

TEST(ServerWire, IdleSessionTimesOutCleanlyWhileActiveOnesSurvive) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  std::unique_ptr<Server> server = StartServer(kFig1Triples, options);

  // A client pinging faster than the idle window must never be
  // disconnected while the idle one is reaped.
  std::atomic<bool> stop{false};
  std::atomic<int> active_failures{0};
  std::thread active([&] {
    Client client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) {
      active_failures.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      Result<Response> pong = client.Ping();
      if (!pong.ok() || pong->code != StatusCode::kOk) {
        active_failures.fetch_add(1);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  Result<int> idle = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(idle.ok());
  // Say nothing: the server must announce the timeout, then hang up.
  Result<std::string> frame = ReadFrame(*idle);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<Response> response = ParseResponse(*frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(response->message.find("idle timeout"), std::string::npos)
      << response->message;
  EXPECT_FALSE(ReadFrame(*idle).ok());  // EOF follows, not a hang.
  CloseSocket(*idle);

  stop.store(true);
  active.join();
  EXPECT_EQ(active_failures.load(), 0);
  EXPECT_GE(server->counters().idle_timeouts, 1u);
}

TEST(ServerWire, MetricsExpositionCountsQueriesPerStageAndClass) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // Three enumerations, then two candidate checks.
  constexpr uint64_t kQueries = 5;
  constexpr uint64_t kChecks = 2;
  for (uint64_t i = 0; i < kQueries; ++i) {
    sparql::QueryRequest request;
    request.query = kFig1Query;
    if (i % 2 == 1) request.mode = sparql::RequestMode::kMax;
    if (i >= kQueries - kChecks) {
      request.candidate = "?rec=Swim ?band=Caribou ?rating=2";
    }
    Result<Response> response = client.Query(AsCall(request));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, StatusCode::kOk);
  }

  Result<Response> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->code, StatusCode::kOk);
  ASSERT_FALSE(metrics->rows.empty());

  // The rows are the exposition text, one line per row.
  std::string text;
  for (const std::string& row : metrics->rows) {
    text += row;
    text += '\n';
  }

  // Every line parses: a # comment, or `name{labels} value` with a
  // numeric value and a wdpt_-prefixed name.
  uint64_t parsed_lines = 0;
  for (const std::string& line : metrics->rows) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("wdpt_", 0), 0u) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    ++parsed_lines;
  }
  EXPECT_GT(parsed_lines, 20u);

  // Scalar counters reflect exactly the served queries.
  EXPECT_NE(text.find("wdpt_server_queries_total 5\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wdpt_server_responses_total{status=\"ok\"} 5\n"),
            std::string::npos)
      << text;

  // For every stage, histogram counts summed across modes — and,
  // independently, across tractability classes — equal the number of
  // QUERY requests served. Checks run a plan and carry its class;
  // enumerations build none and carry "unknown".
  auto count_sum = [&metrics](const std::string& prefix) {
    uint64_t sum = 0;
    for (const std::string& line : metrics->rows) {
      if (line.rfind(prefix, 0) != 0) continue;
      size_t space = line.rfind(' ');
      sum += std::strtoull(line.c_str() + space + 1, nullptr, 10);
    }
    return sum;
  };
  for (const char* stage :
       {"queue", "parse", "plan_lookup", "plan_build", "eval", "serialize"}) {
    EXPECT_EQ(count_sum("wdpt_stage_duration_seconds_count{stage=\"" +
                        std::string(stage) + "\","),
              kQueries)
        << stage;
    EXPECT_EQ(count_sum("wdpt_class_stage_duration_seconds_count{stage=\"" +
                        std::string(stage) + "\","),
              kQueries)
        << stage;
    EXPECT_EQ(count_sum("wdpt_class_stage_duration_seconds_count{stage=\"" +
                        std::string(stage) + "\",class=\"unknown\"}"),
              kQueries - kChecks)
        << stage;  // So the kChecks others carry a real class.
  }

  // Both request modes show up as labels.
  EXPECT_NE(text.find("mode=\"eval\""), std::string::npos);
  EXPECT_NE(text.find("mode=\"max\""), std::string::npos);
}

TEST(ServerWire, DuplicateCandidateBindingIsRejected) {
  std::unique_ptr<Server> server = StartServer(kFig1Triples);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  sparql::QueryRequest request;
  request.query = kFig1Query;
  request.candidate = "?rec=Swim ?rec=Swim";
  Result<Response> response = client.Query(AsCall(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  EXPECT_NE(response->message.find("more than once"), std::string::npos)
      << response->message;
  EXPECT_TRUE(response->rows.empty());
  ASSERT_TRUE(client.Ping().ok());  // Session survives the rejection.
}

TEST(ServerWire, SlowQueryLogCapturesTraceBreakdown) {
  ServerOptions options;
  options.slow_query_ms = 1;
  std::mutex mu;
  std::vector<std::string> lines;
  options.slow_query_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  std::unique_ptr<Server> server = StartServer(SlowGraphTriples(), options);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  sparql::QueryRequest request;
  request.query = kSlowQuery;
  request.deadline_ms = 20;  // Runs for ~20ms, far over the 1ms bar.
  Result<Response> response = client.Query(AsCall(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(lines.empty());
  const std::string& line = lines.front();
  EXPECT_NE(line.find("slow query id="), std::string::npos) << line;
  EXPECT_NE(line.find("status=deadline-exceeded"), std::string::npos) << line;
  EXPECT_NE(line.find("queue="), std::string::npos) << line;
  EXPECT_NE(line.find("eval="), std::string::npos) << line;
}

sparql::QueryRequest MakeRequest(
    std::string query,
    sparql::RequestMode mode = sparql::RequestMode::kEval,
    std::string candidate = "", uint64_t max_results = 0) {
  sparql::QueryRequest request;
  request.query = std::move(query);
  request.mode = mode;
  request.candidate = std::move(candidate);
  request.max_results = max_results;
  return request;
}

// The reference for ExecuteQuery: `request` compiled against a full copy
// of the snapshot's context, run on a fresh engine and rendered the way
// ExecuteQuery renders.
Response ExecuteOnACopy(const Snapshot& snapshot,
                        const sparql::QueryRequest& request) {
  RdfContext copy(snapshot.ctx);
  Response response;
  Result<sparql::CompiledRequest> compiled =
      sparql::CompileRequest(request, &copy);
  if (!compiled.ok()) {
    response.code = compiled.status().code();
    response.message = compiled.status().ToString();
    return response;
  }
  Engine engine(EngineOptions{1, 16});
  if (compiled->check) {
    Result<bool> verdict = engine.Eval(compiled->tree, snapshot.db,
                                       compiled->candidate, compiled->options);
    if (!verdict.ok()) {
      response.code = verdict.status().code();
      response.message = verdict.status().ToString();
    } else {
      response.rows.push_back(*verdict ? "true" : "false");
    }
    return response;
  }
  Result<std::vector<Mapping>> answers =
      engine.Enumerate(compiled->tree, snapshot.db, compiled->options);
  if (!answers.ok()) {
    response.code = answers.status().code();
    response.message = answers.status().ToString();
    return response;
  }
  for (const Mapping& answer : *answers) {
    if (compiled->max_results != 0 &&
        response.rows.size() == compiled->max_results) {
      response.truncated = true;
      break;
    }
    response.rows.push_back(answer.ToString(copy.vocab()));
  }
  return response;
}

void ExpectSameAnswer(const Response& actual, const Response& expected) {
  EXPECT_EQ(actual.code, expected.code);
  EXPECT_EQ(actual.message, expected.message);
  EXPECT_EQ(actual.rows, expected.rows);
  EXPECT_EQ(actual.truncated, expected.truncated);
}

TEST(ServerExec, LayeredCompileMatchesACopyAndNeverTouchesTheSnapshot) {
  std::shared_ptr<const Snapshot> snapshot = MustLoad(kFig1Triples, 1);
  const Vocabulary& vocab = snapshot->ctx.vocab();
  const size_t constants = vocab.num_constants();
  const size_t variables = vocab.num_variables();
  using sparql::RequestMode;
  const std::string unknown_body =
      "((?rec, recorded_by, Nobody) OPT (?rec, NME_rating, ?rating))";
  const sparql::QueryRequest unknown_enum = MakeRequest(unknown_body);
  const sparql::QueryRequest unknown_check =
      MakeRequest(unknown_body, RequestMode::kPartial, "?rec=Swim");
  const sparql::QueryRequest unknown_candidate = MakeRequest(
      kFig1Query, RequestMode::kPartial, "?rec=Nowhere ?band=Caribou");
  const std::vector<sparql::QueryRequest> requests = {
      MakeRequest(kFig1Query),
      MakeRequest(kFig1Query, RequestMode::kMax),
      MakeRequest(kFig1Query, RequestMode::kEval, "", 1),
      MakeRequest(kFig1Query, RequestMode::kEval,
                  "?rec=Swim ?band=Caribou ?rating=2"),
      MakeRequest(kFig1Query, RequestMode::kPartial, "?rec=Swim"),
      MakeRequest(kFig1Query, RequestMode::kMax,
                  "?rec=Our_love ?band=Caribou"),
      unknown_enum,
      unknown_check,
      unknown_candidate,
      MakeRequest(kFig1Query, RequestMode::kEval, "?rec=Swim ?song=Swim"),
      MakeRequest("SELECT ?x WHERE ((?x, p)"),
  };

  Engine engine(EngineOptions{1, 16});
  for (const sparql::QueryRequest& request : requests) {
    SCOPED_TRACE(request.query + " | " + request.candidate);
    RdfContext layered(&snapshot->ctx);
    RdfContext copy(snapshot->ctx);
    Result<sparql::CompiledRequest> a =
        sparql::CompileRequest(request, &layered);
    Result<sparql::CompiledRequest> b = sparql::CompileRequest(request, &copy);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      // Equal ids everywhere, so neither cache key moves.
      PlanOptions plan{a->options.width_bound, a->options.algorithm};
      EXPECT_EQ(CanonicalPlanKey(a->tree, plan),
                CanonicalPlanKey(b->tree, plan));
      EXPECT_EQ(a->candidate, b->candidate);
      uint8_t tag = static_cast<uint8_t>(a->options.semantics);
      EXPECT_EQ(EvalCacheKey(a->tree, tag, a->candidate, 1),
                EvalCacheKey(b->tree, tag, b->candidate, 1));
      EXPECT_EQ(layered.vocab().num_constants(), copy.vocab().num_constants());
      EXPECT_EQ(layered.vocab().num_variables(), copy.vocab().num_variables());
    } else {
      EXPECT_EQ(a.status().ToString(), b.status().ToString());
    }
    ExpectSameAnswer(ExecuteQuery(&engine, *snapshot, request),
                     ExecuteOnACopy(*snapshot, request));
    EXPECT_EQ(vocab.num_constants(), constants);
    EXPECT_EQ(vocab.num_variables(), variables);
  }

  // Constants the snapshot lacks match no fact.
  Response empty = ExecuteQuery(&engine, *snapshot, unknown_enum);
  EXPECT_TRUE(empty.ok());
  EXPECT_TRUE(empty.rows.empty());
  for (const sparql::QueryRequest& check : {unknown_check, unknown_candidate}) {
    Response verdict = ExecuteQuery(&engine, *snapshot, check);
    EXPECT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.rows, std::vector<std::string>{"false"});
  }
}

TEST(ServerExec, ConcurrentRequestsShareOneSnapshotBase) {
  // Every worker parses against its own layer over one snapshot, with
  // symbols of its own the snapshot lacks; the base is only read.
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 100;
  std::shared_ptr<const Snapshot> snapshot = MustLoad(kFig1Triples, 1);
  const size_t constants = snapshot->ctx.vocab().num_constants();
  const size_t variables = snapshot->ctx.vocab().num_variables();
  auto requests_of = [](int thread) {
    using sparql::RequestMode;
    const std::string r = "?r" + std::to_string(thread);
    const std::string b = "?b" + std::to_string(thread);
    const std::string ghost = "ghost" + std::to_string(thread);
    return std::vector<sparql::QueryRequest>{
        MakeRequest(kFig1Query),
        MakeRequest("SELECT " + r + " " + b + " WHERE ((" + r +
                        ", recorded_by, " + b + ") OPT (" + r +
                        ", NME_rating, ?z" + std::to_string(thread) + "))",
                    RequestMode::kMax),
        MakeRequest(kFig1Query, RequestMode::kPartial,
                    "?rec=Swim ?band=" + ghost),
        MakeRequest("((?rec, recorded_by, " + ghost +
                    ") OPT (?rec, NME_rating, ?rating))"),
        MakeRequest(kFig1Query, RequestMode::kEval,
                    "?rec=Swim ?band=Caribou ?rating=2"),
    };
  };
  std::vector<std::vector<Response>> expected(kThreads);
  {
    Engine engine(EngineOptions{1, 16});
    for (int t = 0; t < kThreads; ++t) {
      for (const sparql::QueryRequest& request : requests_of(t)) {
        expected[t].push_back(ExecuteQuery(&engine, *snapshot, request));
      }
    }
  }

  // A shared engine with its answer cache on, as in the server.
  Engine engine(EngineOptions{1, 16, size_t{1} << 20});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &expected, &requests_of, snapshot, t] {
      std::vector<sparql::QueryRequest> requests = requests_of(t);
      for (int i = 0; i < kCallsPerThread; ++i) {
        size_t k = static_cast<size_t>(i + t) % requests.size();
        ExpectSameAnswer(ExecuteQuery(&engine, *snapshot, requests[k]),
                         expected[t][k]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(snapshot->ctx.vocab().num_constants(), constants);
  EXPECT_EQ(snapshot->ctx.vocab().num_variables(), variables);
}

TEST(ServerExec, PerRequestCostIsFlatInDatabaseSize) {
  // A band-anchored enumeration reads a handful of facts, so its
  // end-to-end cost must not follow |D|: over catalogs of 500 and 8,000
  // bands, the larger one's median call may cost at most 2x the
  // smaller one's. The bound is relative, so it holds under sanitizers.
  constexpr int kCalls = 200;
  using Clock = std::chrono::steady_clock;
  std::shared_ptr<const Snapshot> snapshots[2] = {
      MustLoad(gen::CatalogTriples(500), 1),
      MustLoad(gen::CatalogTriples(8000), 1)};
  sparql::QueryRequest request = MakeRequest(
      "SELECT ?rec ?rating ?year WHERE ((((?rec, recorded_by, band7) AND "
      "(?rec, published, after_2010)) OPT (?rec, NME_rating, ?rating)) "
      "OPT (band7, formed_in, ?year))");
  Engine engine(EngineOptions{1, 16});
  Response small = ExecuteQuery(&engine, *snapshots[0], request);
  ASSERT_TRUE(small.ok());
  ASSERT_FALSE(small.rows.empty());
  ExpectSameAnswer(ExecuteQuery(&engine, *snapshots[1], request), small);

  std::vector<uint64_t> ns[2];
  for (int i = 0; i < kCalls; ++i) {
    for (int k = 0; k < 2; ++k) {
      int which = (i + k) % 2;  // Alternate which snapshot goes first.
      Clock::time_point start = Clock::now();
      Response response = ExecuteQuery(&engine, *snapshots[which], request);
      ns[which].push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()));
      ASSERT_TRUE(response.ok());
    }
  }
  double small_median = static_cast<double>(PercentileValue(ns[0], 0.5));
  double large_median = static_cast<double>(PercentileValue(ns[1], 0.5));
  EXPECT_LE(large_median, 2.0 * small_median)
      << "median ns at 500 bands: " << small_median
      << ", at 8,000 bands: " << large_median;
}

// Figure 1 over the generated catalog, projected by `select`.
std::string CatalogQuery(const std::string& select) {
  return select +
         " WHERE ((((?rec, recorded_by, ?band) AND "
         "(?rec, published, after_2010)) OPT (?rec, NME_rating, ?rating)) "
         "OPT (?band, formed_in, ?year))";
}

TEST(ServerExec, LimitReturnsAPrefixAndTruncatesExactlyWhenRowsAreLeft) {
  // {rec, band, rating} puts the smallest variable, ?rec, at the root,
  // so capped calls complete root blocks; {rating, band} puts it in an
  // optional child, so they enumerate everything and cut.
  std::shared_ptr<const Snapshot> snapshot =
      MustLoad(gen::CatalogTriples(50), 1);
  Engine engine(EngineOptions{1, 16});
  for (const char* select :
       {"SELECT ?rec ?band ?rating", "SELECT ?rating ?band"}) {
    for (sparql::RequestMode mode :
         {sparql::RequestMode::kEval, sparql::RequestMode::kMax}) {
      SCOPED_TRACE(std::string(select) + " | " +
                   sparql::RequestModeName(mode));
      const std::string query = CatalogQuery(select);
      Response full =
          ExecuteQuery(&engine, *snapshot, MakeRequest(query, mode));
      ASSERT_TRUE(full.ok()) << full.message;
      ASSERT_FALSE(full.truncated);
      const uint64_t n = full.rows.size();
      ASSERT_GT(n, 2u);
      for (uint64_t k : {uint64_t{1}, uint64_t{2}, n - 1, n, n + 1,
                         UINT64_MAX}) {
        Response capped =
            ExecuteQuery(&engine, *snapshot, MakeRequest(query, mode, "", k));
        ASSERT_TRUE(capped.ok()) << capped.message;
        size_t shown = static_cast<size_t>(std::min(k, n));
        EXPECT_EQ(capped.rows, std::vector<std::string>(
                                   full.rows.begin(),
                                   full.rows.begin() + shown))
            << "LIMIT " << k;
        EXPECT_EQ(capped.truncated, n > k) << "LIMIT " << k;
      }
    }
  }
}

TEST(ServerExec, LimitWorkIsFlatInDatabaseSize) {
  // LIMIT 10 of Figure 1 {rec, band, rating} completes only the first
  // root blocks in ?rec order. The 500-band catalog's triples are a
  // prefix of the 8,000-band one's, so those blocks are the same facts
  // under the same ids, and both requests must make the same number of
  // homomorphism searches, and few. Counts are exact, so the gate holds
  // on any host and under the sanitizers.
  const sparql::QueryRequest request = MakeRequest(
      CatalogQuery("SELECT ?rec ?band ?rating"), sparql::RequestMode::kEval,
      "", 10);
  std::vector<std::string> rows[2];
  uint64_t calls[2] = {0, 0};
  const uint32_t bands[2] = {500, 8000};
  for (int k = 0; k < 2; ++k) {
    std::shared_ptr<const Snapshot> snapshot =
        MustLoad(gen::CatalogTriples(bands[k]), 1);
    Engine engine(EngineOptions{1, 16});
    uint64_t before = metrics::Load(metrics::HomomorphismCalls());
    Response response = ExecuteQuery(&engine, *snapshot, request);
    calls[k] = metrics::Load(metrics::HomomorphismCalls()) - before;
    ASSERT_TRUE(response.ok()) << response.message;
    EXPECT_EQ(response.rows.size(), 10u);
    EXPECT_TRUE(response.truncated);
    rows[k] = response.rows;
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(calls[0], calls[1]) << "homomorphism searches at 500 bands: "
                                << calls[0] << ", at 8,000: " << calls[1];
  EXPECT_LT(calls[1], 100u);
}

}  // namespace
}  // namespace wdpt::server
