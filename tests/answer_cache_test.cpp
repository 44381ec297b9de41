// Tests for the answer cache (ctest label `cache`): byte-budgeted LRU
// eviction order, single-flight collapsing of concurrent identical
// misses, waiter deadlines that never poison the owner's entry,
// differential cache-on vs cache-off evaluation on generated
// workloads, generation-keyed invalidation (including RELOAD under
// live traffic), row caps in the key, and the `cache-control: bypass`
// request header.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/engine/answer_cache.h"
#include "src/engine/engine.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"

namespace wdpt {
namespace {

using Lease = AnswerCache::Lease;
using Value = AnswerCache::Value;

Value VerdictValue(bool verdict) {
  Value value;
  value.is_verdict = true;
  value.verdict = verdict;
  return value;
}

// Publishes `value` under `key`, asserting the caller is the owner.
void MustInsert(AnswerCache* cache, const std::string& key, Value value) {
  Lease lease = cache->Acquire(key, CancelToken());
  ASSERT_EQ(lease.state(), Lease::State::kOwner) << key;
  lease.Publish(std::move(value));
}

TEST(AnswerCacheLru, ByteBudgetEvictsLeastRecentlyUsed) {
  // Equal-size verdict entries with 3-byte keys; a single shard makes
  // the eviction order deterministic.
  const std::string ka = "ka!", kb = "kb!", kc = "kc!";
  size_t sz = AnswerCacheValueBytes(ka, VerdictValue(true));
  ASSERT_EQ(sz, AnswerCacheValueBytes(kb, VerdictValue(false)));
  AnswerCache cache(2 * sz, /*num_shards=*/1);

  MustInsert(&cache, ka, VerdictValue(true));
  MustInsert(&cache, kb, VerdictValue(false));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes, 2 * sz);

  // Touch `ka` so `kb` becomes least recently used, then overflow.
  {
    Lease hit = cache.Acquire(ka, CancelToken());
    ASSERT_EQ(hit.state(), Lease::State::kHit);
    EXPECT_TRUE(hit.value()->verdict);
  }
  MustInsert(&cache, kc, VerdictValue(true));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  {
    Lease a = cache.Acquire(ka, CancelToken());
    EXPECT_EQ(a.state(), Lease::State::kHit);
  }
  {
    Lease c = cache.Acquire(kc, CancelToken());
    EXPECT_EQ(c.state(), Lease::State::kHit);
  }
  // The evicted key misses again (the lease is dropped, abandoning the
  // flight without publishing).
  Lease b = cache.Acquire(kb, CancelToken());
  EXPECT_EQ(b.state(), Lease::State::kOwner);
}

TEST(AnswerCacheLru, OversizedValueIsServedButNotResident) {
  AnswerCache cache(/*max_bytes=*/1, /*num_shards=*/1);
  MustInsert(&cache, "huge", VerdictValue(true));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  // Not resident: the next Acquire owns the flight again.
  Lease again = cache.Acquire("huge", CancelToken());
  EXPECT_EQ(again.state(), Lease::State::kOwner);
}

TEST(AnswerCacheFlight, ConcurrentMissesCollapseToOneOwner) {
  AnswerCache cache(1 << 20, /*num_shards=*/1);
  std::optional<Lease> owner(cache.Acquire("k", CancelToken()));
  ASSERT_EQ(owner->state(), Lease::State::kOwner);

  constexpr int kWaiters = 4;
  std::atomic<int> arrived{0};
  std::atomic<int> served{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      arrived.fetch_add(1);
      Lease lease = cache.Acquire("k", CancelToken());
      if (lease.state() == Lease::State::kHit && lease.value()->verdict) {
        served.fetch_add(1);
      }
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  // Give the waiters time to park on the in-flight entry before the
  // owner publishes (a late arrival still hits the LRU).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  owner->Publish(VerdictValue(true));
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(served.load(), kWaiters);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kWaiters));
}

// Satellite: a waiter whose deadline fires mid-single-flight-wait gets
// kDeadlineExceeded immediately, and the owner's later publish is not
// poisoned — the entry serves subsequent lookups with the full value.
TEST(AnswerCacheFlight, WaiterDeadlineDoesNotPoisonOwnersEntry) {
  AnswerCache cache(1 << 20, /*num_shards=*/1);
  std::optional<Lease> owner(cache.Acquire("k", CancelToken()));
  ASSERT_EQ(owner->state(), Lease::State::kOwner);

  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    CancelToken token = CancelToken::WithDeadline(
        CancelToken::Clock::now() + std::chrono::milliseconds(30));
    Lease lease = cache.Acquire("k", token);
    EXPECT_EQ(lease.state(), Lease::State::kMiss);
    EXPECT_EQ(lease.wait_status().code(), StatusCode::kDeadlineExceeded);
    waiter_done.store(true);
  });
  // Publish only after the waiter's deadline has long fired.
  waiter.join();
  ASSERT_TRUE(waiter_done.load());
  ASSERT_EQ(owner->state(), Lease::State::kOwner);
  owner->Publish(VerdictValue(true));

  Lease hit = cache.Acquire("k", CancelToken());
  ASSERT_EQ(hit.state(), Lease::State::kHit);
  EXPECT_TRUE(hit.value()->verdict);
}

TEST(AnswerCacheFlight, OwnerAbandonWakesWaitersToEvaluateThemselves) {
  AnswerCache cache(1 << 20, /*num_shards=*/1);
  std::optional<Lease> owner(cache.Acquire("k", CancelToken()));
  ASSERT_EQ(owner->state(), Lease::State::kOwner);

  std::atomic<int> fell_through{0};
  std::thread waiter([&] {
    Lease lease = cache.Acquire("k", CancelToken());
    // Abandonment: a miss with an OK wait status — the waiter
    // evaluates for itself instead of re-entering the cache.
    if (lease.state() == Lease::State::kMiss && lease.wait_status().ok()) {
      fell_through.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  owner.reset();  // Destroyed without Publish: the flight is abandoned.
  waiter.join();
  EXPECT_EQ(fell_through.load(), 1);
  // Nothing was inserted.
  Lease again = cache.Acquire("k", CancelToken());
  EXPECT_EQ(again.state(), Lease::State::kOwner);
}

// --- Engine-level behavior -------------------------------------------

TEST(EngineCache, DifferentialCacheOnVsOffOnGeneratedWorkloads) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    Schema schema;
    Vocabulary vocab;
    // Small instances: the differential check enumerates p(D) and
    // p_m(D) in full, which blows up combinatorially on larger random
    // trees/graphs.
    gen::RandomWdptOptions topts;
    topts.depth = 1;
    topts.branching = 2;
    topts.atoms_per_node = 1;
    topts.interface_size = 1;
    topts.free_fraction = 0.5;
    topts.seed = seed;
    PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, topts);
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 8;
    gopts.num_edges = 12;
    gopts.seed = seed * 7 + 1;
    RelationId e;
    Database db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);

    EngineOptions cached_opts;
    cached_opts.answer_cache_bytes = 4 << 20;
    Engine cached(cached_opts);
    Engine plain;

    for (EvalSemantics semantics :
         {EvalSemantics::kStandard, EvalSemantics::kMaximal}) {
      CallOptions options;
      options.semantics = semantics;
      options.cache.generation = 1;
      Result<std::vector<Mapping>> reference =
          plain.Enumerate(tree, db, options);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      Result<std::vector<Mapping>> cold = cached.Enumerate(tree, db, options);
      Result<std::vector<Mapping>> warm = cached.Enumerate(tree, db, options);
      ASSERT_TRUE(cold.ok() && warm.ok());
      // Cached answers are bit-identical to uncached evaluation.
      EXPECT_EQ(*cold, *reference);
      EXPECT_EQ(*warm, *reference);
    }
    EXPECT_GE(cached.stats().answer_cache_hits, 2u) << "seed " << seed;
  }
}

TEST(EngineCache, GenerationChangeInvalidatesAndZeroBypasses) {
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "rb", "?y"));
  tree.AddChild(PatternTree::kRoot, {ctx.TriplePattern("?x", "nr", "?z")});
  tree.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                         ctx.vocab().Variable("y").variable_id(),
                         ctx.vocab().Variable("z").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "a", "rb", "b");
  ctx.AddTriple(&db, "a", "nr", "2");

  EngineOptions eopts;
  eopts.answer_cache_bytes = 1 << 20;
  Engine engine(eopts);

  CallOptions gen1;
  gen1.cache.generation = 1;
  ASSERT_TRUE(engine.Enumerate(tree, db, gen1).ok());  // Miss.
  ASSERT_TRUE(engine.Enumerate(tree, db, gen1).ok());  // Hit.
  CallOptions gen2;
  gen2.cache.generation = 2;
  ASSERT_TRUE(engine.Enumerate(tree, db, gen2).ok());  // New generation: miss.
  // No generation (bare-Database callers): the cache does not
  // participate at all.
  ASSERT_TRUE(engine.Enumerate(tree, db).ok());
  // Explicit bypass with a generation set: also counted as a bypass.
  CallOptions bypass = gen1;
  bypass.cache.mode = CacheMode::kBypass;
  ASSERT_TRUE(engine.Enumerate(tree, db, bypass).ok());

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.answer_cache_hits, 1u);
  EXPECT_EQ(stats.answer_cache_misses, 2u);
  EXPECT_EQ(stats.answer_cache_bypasses, 2u);
  EXPECT_EQ(stats.answer_cache_inserts, 2u);
}

TEST(EngineCache, FirstRowsAreKeyedSoEachCapGetsItsOwnPrefix) {
  // Ten records over three bands, every other one rated: more than five
  // rows under both semantics. The root binds ?x, the smallest free
  // variable, so capped calls take the root-block path.
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "rb", "?y"));
  tree.AddChild(PatternTree::kRoot, {ctx.TriplePattern("?x", "nr", "?z")});
  tree.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                         ctx.vocab().Variable("y").variable_id(),
                         ctx.vocab().Variable("z").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  for (int i = 0; i < 10; ++i) {
    std::string rec = "r" + std::to_string(i);
    ctx.AddTriple(&db, rec, "rb", "b" + std::to_string(i % 3));
    if (i % 2 == 0) ctx.AddTriple(&db, rec, "nr", std::to_string(i));
  }

  for (EvalSemantics semantics :
       {EvalSemantics::kStandard, EvalSemantics::kMaximal}) {
    CallOptions plain;
    plain.semantics = semantics;
    Result<std::vector<Mapping>> all = Engine().Enumerate(tree, db, plain);
    ASSERT_TRUE(all.ok());
    ASSERT_GT(all->size(), 5u);
    auto prefix = [&](size_t k) {
      return std::vector<Mapping>(all->begin(), all->begin() + k);
    };

    EngineOptions eopts;
    eopts.answer_cache_bytes = 1 << 20;
    Engine engine(eopts);
    CallOptions options = plain;
    options.cache.generation = 1;
    // One tree, one generation: caps 3, none, 5, then 3 again.
    const uint64_t caps[] = {3, 0, 5, 3};
    for (uint64_t cap : caps) {
      options.first_rows = cap;
      Result<std::vector<Mapping>> rows = engine.Enumerate(tree, db, options);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(*rows, cap == 0 ? *all : prefix(cap)) << "cap " << cap;
    }
    // Only the repeated cap hits; the uncapped call was never served
    // the three-row entry.
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.answer_cache_misses, 3u);
    EXPECT_EQ(stats.answer_cache_hits, 1u);
    EXPECT_EQ(stats.answer_cache_inserts, 3u);
  }
}

TEST(EngineCache, EvalVerdictsAreCachedPerSemantics) {
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "rb", "?y"));
  tree.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                         ctx.vocab().Variable("y").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "a", "rb", "b");

  EngineOptions eopts;
  eopts.answer_cache_bytes = 1 << 20;
  Engine engine(eopts);

  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  Mapping h = (*answers)[0];

  for (EvalSemantics semantics :
       {EvalSemantics::kStandard, EvalSemantics::kPartial,
        EvalSemantics::kMaximal}) {
    CallOptions options;
    options.semantics = semantics;
    options.cache.generation = 1;
    Result<bool> cold = engine.Eval(tree, db, h, options);
    Result<bool> warm = engine.Eval(tree, db, h, options);
    ASSERT_TRUE(cold.ok() && warm.ok());
    EXPECT_EQ(*cold, *warm);
  }
  EngineStats stats = engine.stats();
  // One miss + one hit per semantics; the three keys are distinct.
  EXPECT_EQ(stats.answer_cache_hits, 3u);
  EXPECT_EQ(stats.answer_cache_misses, 3u);
}

// Stampede: N threads enumerate the same query concurrently; exactly
// one engine evaluation happens (single flight), verified both by the
// hit/miss counters and by the homomorphism-call budget matching a
// single uncached run. Run under tsan via the `cache` label filter.
TEST(EngineCache, StampedeCollapsesToExactlyOneEvaluation) {
  RdfContext ctx;
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "e", "?y"));
  tree.AddChild(PatternTree::kRoot, {ctx.TriplePattern("?y", "e", "?z")});
  tree.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                         ctx.vocab().Variable("y").variable_id(),
                         ctx.vocab().Variable("z").variable_id()});
  ASSERT_TRUE(tree.Validate().ok());
  Database db = ctx.MakeDatabase();
  for (int i = 0; i < 24; ++i) {
    ctx.AddTriple(&db, "n" + std::to_string(i), "e",
                  "n" + std::to_string((i * 5 + 1) % 24));
  }

  CallOptions options;
  options.cache.generation = 1;

  // Baseline: one uncached evaluation's work.
  Engine plain;
  Result<std::vector<Mapping>> reference = plain.Enumerate(tree, db, options);
  ASSERT_TRUE(reference.ok());
  uint64_t single_run_homs = plain.stats().homomorphism_calls;

  EngineOptions eopts;
  eopts.answer_cache_bytes = 4 << 20;
  Engine engine(eopts);
  constexpr int kThreads = 8;
  std::atomic<int> identical{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Result<std::vector<Mapping>> r = engine.Enumerate(tree, db, options);
      if (r.ok() && *r == *reference) identical.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(identical.load(), kThreads);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.answer_cache_misses, 1u);
  EXPECT_EQ(stats.answer_cache_hits, static_cast<uint64_t>(kThreads - 1));
  // Exactly one evaluation's worth of homomorphism work happened.
  EXPECT_EQ(stats.homomorphism_calls, single_run_homs);
}

// --- Server-level behavior -------------------------------------------

constexpr const char* kBlueTriples =
    "Our_love recorded_by Caribou\n"
    "Our_love published after_2010\n"
    "Swim recorded_by Caribou\n"
    "Swim published after_2010\n"
    "Swim NME_rating 2\n";

constexpr const char* kRedTriples =
    "Obsidian recorded_by Baths\n"
    "Obsidian published after_2010\n"
    "Obsidian NME_rating 8\n";

constexpr const char* kCacheQuery =
    "SELECT ?rec ?band ?rating WHERE "
    "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating))";

std::shared_ptr<const server::Snapshot> MustLoad(std::string_view triples,
                                                 uint64_t version) {
  Result<std::shared_ptr<const server::Snapshot>> snapshot =
      server::LoadSnapshot(triples, version);
  WDPT_CHECK(snapshot.ok());
  return *snapshot;
}

std::unique_ptr<server::Server> StartCachingServer(std::string_view triples) {
  server::ServerOptions options;
  options.engine.answer_cache_bytes = 1 << 20;
  auto srv = std::make_unique<server::Server>(options);
  WDPT_CHECK(srv->Start(MustLoad(triples, 1)).ok());
  return srv;
}

std::vector<std::string> LocalRows(std::string_view triples) {
  Engine engine;
  sparql::QueryRequest request;
  request.query = kCacheQuery;
  server::Response expected =
      server::ExecuteQuery(&engine, *MustLoad(triples, 1), request);
  WDPT_CHECK(expected.ok());
  return expected.rows;
}

TEST(ServerCache, ReloadInvalidatesAndRepeatsHit) {
  std::unique_ptr<server::Server> srv = StartCachingServer(kBlueTriples);
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  server::QueryCall call(kCacheQuery);

  Result<server::Response> cold = client.Query(call);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->code, StatusCode::kOk);
  EXPECT_FALSE(cold->cached);
  EXPECT_EQ(cold->rows, LocalRows(kBlueTriples));
  EXPECT_NE(cold->stats_json.find("\"cache\":\"miss\""), std::string::npos);

  Result<server::Response> warm = client.Query(call);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->rows, cold->rows);
  EXPECT_NE(warm->stats_json.find("\"cache\":\"hit\""), std::string::npos);

  // RELOAD bumps the snapshot generation: the old entry can never be
  // served again, with no explicit flush.
  Result<server::Response> reloaded = client.Reload(kRedTriples);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->code, StatusCode::kOk);

  Result<server::Response> after = client.Query(call);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->code, StatusCode::kOk);
  EXPECT_FALSE(after->cached);
  EXPECT_EQ(after->rows, LocalRows(kRedTriples));

  Result<server::Response> after_warm = client.Query(call);
  ASSERT_TRUE(after_warm.ok());
  EXPECT_TRUE(after_warm->cached);
  EXPECT_EQ(after_warm->rows, after->rows);
}

TEST(ServerCache, ReloadUnderLiveTrafficNeverServesStaleAnswers) {
  std::unique_ptr<server::Server> srv = StartCachingServer(kBlueTriples);
  const std::vector<std::string> blue_rows = LocalRows(kBlueTriples);
  const std::vector<std::string> red_rows = LocalRows(kRedTriples);
  ASSERT_NE(blue_rows, red_rows);

  std::atomic<bool> done{false};
  std::atomic<int> stale{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      server::Client client;
      if (!client.Connect("127.0.0.1", srv->port()).ok()) return;
      server::QueryCall call(kCacheQuery);
      while (!done.load()) {
        Result<server::Response> r = client.Query(call);
        if (!r.ok() || r->code != StatusCode::kOk) continue;
        reads.fetch_add(1);
        // Every answer — cached or not — must be exactly one of the two
        // datasets' full answer sets; a cross-generation (stale) hit
        // would surface the other dataset's rows after its reload.
        if (r->rows != blue_rows && r->rows != red_rows) stale.fetch_add(1);
      }
    });
  }

  server::Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", srv->port()).ok());
  for (int swap = 0; swap < 12; ++swap) {
    Result<server::Response> reloaded =
        admin.Reload(swap % 2 == 0 ? kRedTriples : kBlueTriples);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded->code, StatusCode::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(stale.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_GE(srv->engine_stats().answer_cache_hits, 1u);
}

TEST(ServerCache, BypassHeaderSkipsLookupAndInsert) {
  std::unique_ptr<server::Server> srv = StartCachingServer(kBlueTriples);
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());

  server::QueryCall bypass(kCacheQuery);
  bypass.CacheBypass();
  for (int i = 0; i < 2; ++i) {
    Result<server::Response> r = client.Query(bypass);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->code, StatusCode::kOk);
    EXPECT_FALSE(r->cached);
    EXPECT_NE(r->stats_json.find("\"cache\":\"bypass\""), std::string::npos);
  }
  EXPECT_GE(srv->engine_stats().answer_cache_bypasses, 2u);
  EXPECT_EQ(srv->engine_stats().answer_cache_hits, 0u);

  // The same query without the header misses once, then hits: the
  // bypassed runs inserted nothing.
  server::QueryCall call(kCacheQuery);
  Result<server::Response> cold = client.Query(call);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cached);
  Result<server::Response> warm = client.Query(call);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->rows, cold->rows);
}

}  // namespace
}  // namespace wdpt
