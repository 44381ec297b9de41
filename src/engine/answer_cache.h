// AnswerCache: a byte-budgeted, sharded-LRU cache of canonical answers
// with single-flight collapsing of concurrent identical misses.
//
// Exact WDPT evaluation is NP-hard in general (Theorem 5 of the paper)
// and even the tractable classes pay polynomial work per request, so
// re-serving an identical query against an unchanged snapshot should
// cost a hash lookup, not a re-evaluation. Two repo invariants make a
// sound answer cache cheap:
//
//   * every evaluation path (projected, full-enumeration, maximal)
//     returns the same canonically ordered answer vector
//     bit-identically, so one cache entry serves them all and the key
//     need not mention the algorithm or width bound;
//   * snapshots are immutable and RELOAD stamps each one with a
//     monotonically increasing generation, so invalidation is by
//     construction — a new generation simply never matches old keys,
//     and stale entries age out of the LRU without a flush/eviction
//     race.
//
// Single flight: when several threads miss on the same key at once,
// exactly one (the *owner*) evaluates; the rest block on the per-key
// in-flight entry and are served the owner's published value as hits.
// A waiter whose own cancel token fires mid-wait gets its deadline
// error immediately — the owner keeps going and its published entry is
// not poisoned. An owner that fails abandons the flight; parked
// waiters then evaluate for themselves (without re-entering the cache,
// so a failing query cannot loop a stampede).
//
// Thread-safe. Values are shared_ptr<const ...>: readers never copy
// under a lock and eviction never invalidates a handed-out answer.

#ifndef WDPT_SRC_ENGINE_ANSWER_CACHE_H_
#define WDPT_SRC_ENGINE_ANSWER_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/relational/mapping.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {

/// Per-call cache policy, carried in CallOptions (src/engine/engine.h).
enum class CacheMode : uint8_t {
  kDefault = 0,  ///< Use the cache when the engine has one configured.
  kBypass,       ///< Skip lookup and insert (`cache-control: bypass`).
};

struct CachePolicy {
  CacheMode mode = CacheMode::kDefault;
  /// Snapshot generation the request evaluates against. 0 (the default)
  /// means "no generation known" and disables cache participation:
  /// callers evaluating a bare Database outside any snapshot would
  /// otherwise alias each other across data changes.
  uint64_t generation = 0;
};

class AnswerCache {
 public:
  /// One cached evaluation result. Enumeration entries carry the
  /// canonical answer vector; EVAL/MAX-EVAL membership checks carry the
  /// boolean verdict.
  struct Value {
    std::vector<Mapping> answers;
    bool verdict = false;
    bool is_verdict = false;
  };

  struct Stats {
    uint64_t hits = 0;      ///< Served from the LRU or an owner's publish.
    uint64_t misses = 0;    ///< Caller evaluated (as owner or fall-through).
    uint64_t bypasses = 0;  ///< Policy skipped the cache entirely.
    uint64_t inflight_waits = 0;  ///< Acquires that parked behind an owner.
    uint64_t evictions = 0;       ///< Entries dropped for the byte budget.
    uint64_t inserts = 0;         ///< Values published into the LRU.
    uint64_t bytes = 0;           ///< Current resident value bytes.
    uint64_t entries = 0;         ///< Current resident entry count.
  };

  /// `max_bytes` is the total value-byte budget, split evenly across
  /// `num_shards` independently locked LRU shards (each keeps at least
  /// one entry's headroom). Must be > 0: a disabled cache is expressed
  /// by not constructing one (EngineOptions::answer_cache_bytes == 0).
  explicit AnswerCache(size_t max_bytes, size_t num_shards = 8);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// The result of Acquire. Move-only; an owner lease that is destroyed
  /// without Publish abandons the flight (waiters fall through to their
  /// own evaluation).
  class Lease {
   public:
    enum class State : uint8_t {
      kHit,    ///< `value()` is ready.
      kOwner,  ///< Caller must evaluate, then Publish or drop the lease.
      kMiss,   ///< Caller evaluates for itself; nothing to publish.
    };

    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    State state() const { return state_; }
    /// Non-null exactly when state() == kHit.
    const std::shared_ptr<const Value>& value() const { return value_; }
    /// Non-OK when a single-flight wait was aborted because the
    /// *caller's* token fired (state() == kMiss). The caller should
    /// return this status instead of evaluating.
    const Status& wait_status() const { return wait_status_; }

    /// Publishes the owner's result: inserts it into the LRU (subject
    /// to the byte budget) and wakes all parked waiters with it. Only
    /// valid when state() == kOwner; the lease is consumed.
    void Publish(Value value);

   private:
    friend class AnswerCache;
    Lease() = default;

    AnswerCache* cache_ = nullptr;
    size_t shard_ = 0;
    std::string key_;
    State state_ = State::kMiss;
    std::shared_ptr<const Value> value_;
    std::shared_ptr<struct InFlightEntry> flight_;
    Status wait_status_ = Status::Ok();
  };

  /// Looks up `key`. On a resident entry: an immediate kHit. On a miss
  /// with no in-flight owner: a kOwner lease (the caller evaluates and
  /// Publishes). On a miss with an in-flight owner: blocks until the
  /// owner publishes (kHit), the owner abandons (kMiss), or `token`
  /// fires (kMiss with the token's status in wait_status()).
  Lease Acquire(const std::string& key, const CancelToken& token);

  /// Bumps the bypass counter (the caller skipped Acquire by policy).
  void NoteBypass();

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Value> value;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // Most recent first.
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::unordered_map<std::string, std::shared_ptr<InFlightEntry>> inflight;
    size_t bytes = 0;
  };

  size_t ShardIndex(const std::string& key) const;
  void PublishLocked(Lease& lease, std::shared_ptr<const Value> value);
  void Abandon(Lease& lease);

  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> bypasses_{0};
  mutable std::atomic<uint64_t> inflight_waits_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> inserts_{0};
};

/// Approximate resident size of a cached value (entry bookkeeping plus
/// the mappings' bindings); the unit the byte budget is charged in.
size_t AnswerCacheValueBytes(const std::string& key,
                             const AnswerCache::Value& value);

/// Cache key for an enumeration request: a tag byte, the semantics tag,
/// the enumeration limits, the row cap (CallOptions::first_rows, so a
/// capped entry never answers a call with another cap or none), the
/// snapshot generation, and the canonical tree serialization. The
/// algorithm and width bound are deliberately absent — answers are
/// bit-identical across them.
std::string EnumerateCacheKey(const PatternTree& tree, uint8_t semantics_tag,
                              const EnumerationLimits& limits,
                              uint64_t first_rows, uint64_t generation);

/// Cache key for a membership check (EVAL / PARTIAL-EVAL / MAX-EVAL of
/// one candidate): a tag byte, the semantics tag, the snapshot
/// generation, the candidate's bindings, and the canonical tree.
std::string EvalCacheKey(const PatternTree& tree, uint8_t semantics_tag,
                         const Mapping& candidate, uint64_t generation);

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_ANSWER_CACHE_H_
