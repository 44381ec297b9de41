#include "src/engine/answer_cache.h"

#include <chrono>
#include <condition_variable>
#include <functional>
#include <utility>

#include "src/engine/plan.h"

namespace wdpt {

// The per-key single-flight rendezvous. The owner holds the map slot;
// waiters park on `cv` until `done` and read the result from here (not
// from the LRU — a published entry can already have been evicted by the
// time a waiter wakes).
struct InFlightEntry {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool published = false;  // false after `done`: the owner abandoned.
  std::shared_ptr<const AnswerCache::Value> value;
};

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

// Waiters poll their own token at this granularity; a deadline firing
// mid-wait is observed within one tick.
constexpr std::chrono::milliseconds kWaitTick{1};

}  // namespace

AnswerCache::AnswerCache(size_t max_bytes, size_t num_shards) {
  WDPT_CHECK(max_bytes > 0);
  if (num_shards == 0) num_shards = 1;
  shard_budget_ = max_bytes / num_shards;
  if (shard_budget_ == 0) shard_budget_ = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t AnswerCache::ShardIndex(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

AnswerCache::Lease AnswerCache::Acquire(const std::string& key,
                                        const CancelToken& token) {
  Lease lease;
  lease.cache_ = this;
  lease.shard_ = ShardIndex(key);
  lease.key_ = key;
  Shard& shard = *shards_[lease.shard_];

  std::shared_ptr<InFlightEntry> flight;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      lease.state_ = Lease::State::kHit;
      lease.value_ = it->second->value;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return lease;
    }
    auto fit = shard.inflight.find(key);
    if (fit == shard.inflight.end()) {
      flight = std::make_shared<InFlightEntry>();
      shard.inflight.emplace(key, flight);
      lease.state_ = Lease::State::kOwner;
      lease.flight_ = std::move(flight);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return lease;
    }
    flight = fit->second;
  }

  // Park behind the in-flight owner.
  inflight_waits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(flight->mu);
  while (!flight->done) {
    Status st = StatusFromToken(token);
    if (!st.ok()) {
      // The waiter's own token fired: surface its deadline/cancel error
      // now. The owner keeps evaluating and its entry stays intact.
      lease.state_ = Lease::State::kMiss;
      lease.wait_status_ = std::move(st);
      return lease;
    }
    flight->cv.wait_for(lock, kWaitTick);
  }
  if (flight->published) {
    lease.state_ = Lease::State::kHit;
    lease.value_ = flight->value;
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The owner failed and abandoned the flight; evaluate for ourselves
    // without re-entering the cache (no stampede loop on a bad query).
    lease.state_ = Lease::State::kMiss;
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return lease;
}

void AnswerCache::NoteBypass() {
  bypasses_.fetch_add(1, std::memory_order_relaxed);
}

void AnswerCache::PublishLocked(Lease& lease,
                                std::shared_ptr<const Value> value) {
  Shard& shard = *shards_[lease.shard_];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(lease.key_);
    size_t bytes = AnswerCacheValueBytes(lease.key_, *value);
    // Oversized values are served to waiters but never resident.
    if (bytes <= shard_budget_ && shard.index.count(lease.key_) == 0) {
      shard.lru.push_front(Entry{lease.key_, value, bytes});
      shard.index[lease.key_] = shard.lru.begin();
      shard.bytes += bytes;
      inserts_.fetch_add(1, std::memory_order_relaxed);
      while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
        Entry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::shared_ptr<InFlightEntry> flight = std::move(lease.flight_);
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->published = true;
    flight->value = std::move(value);
  }
  flight->cv.notify_all();
}

void AnswerCache::Abandon(Lease& lease) {
  Shard& shard = *shards_[lease.shard_];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(lease.key_);
  }
  std::shared_ptr<InFlightEntry> flight = std::move(lease.flight_);
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->published = false;
  }
  flight->cv.notify_all();
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.bytes += shard->bytes;
    s.entries += shard->lru.size();
  }
  return s;
}

AnswerCache::Lease::Lease(Lease&& other) noexcept
    : cache_(other.cache_),
      shard_(other.shard_),
      key_(std::move(other.key_)),
      state_(other.state_),
      value_(std::move(other.value_)),
      flight_(std::move(other.flight_)),
      wait_status_(std::move(other.wait_status_)) {
  other.cache_ = nullptr;
  other.flight_ = nullptr;
}

AnswerCache::Lease& AnswerCache::Lease::operator=(Lease&& other) noexcept {
  if (this == &other) return *this;
  if (state_ == State::kOwner && flight_ != nullptr && cache_ != nullptr) {
    cache_->Abandon(*this);
  }
  cache_ = other.cache_;
  shard_ = other.shard_;
  key_ = std::move(other.key_);
  state_ = other.state_;
  value_ = std::move(other.value_);
  flight_ = std::move(other.flight_);
  wait_status_ = std::move(other.wait_status_);
  other.cache_ = nullptr;
  other.flight_ = nullptr;
  return *this;
}

AnswerCache::Lease::~Lease() {
  if (state_ == State::kOwner && flight_ != nullptr && cache_ != nullptr) {
    cache_->Abandon(*this);
  }
}

void AnswerCache::Lease::Publish(Value value) {
  WDPT_CHECK(state_ == State::kOwner && flight_ != nullptr &&
             cache_ != nullptr);
  cache_->PublishLocked(
      *this, std::make_shared<const Value>(std::move(value)));
  state_ = State::kMiss;  // Consumed; the destructor must not abandon.
}

size_t AnswerCacheValueBytes(const std::string& key,
                             const AnswerCache::Value& value) {
  // Entry bookkeeping: list node, index slot, key bytes, Value header.
  size_t bytes = 96 + key.size() + sizeof(AnswerCache::Value);
  for (const Mapping& m : value.answers) {
    bytes += sizeof(Mapping) + m.entries().size() * sizeof(Mapping::Entry);
  }
  return bytes;
}

std::string EnumerateCacheKey(const PatternTree& tree, uint8_t semantics_tag,
                              const EnumerationLimits& limits,
                              uint64_t first_rows, uint64_t generation) {
  std::string key;
  key.push_back('E');
  key.push_back(static_cast<char>(semantics_tag));
  AppendU64(&key, limits.max_homomorphisms);
  AppendU64(&key, limits.max_steps);
  AppendU64(&key, first_rows);
  AppendU64(&key, generation);
  AppendCanonicalTree(&key, tree);
  return key;
}

std::string EvalCacheKey(const PatternTree& tree, uint8_t semantics_tag,
                         const Mapping& candidate, uint64_t generation) {
  std::string key;
  key.push_back('V');
  key.push_back(static_cast<char>(semantics_tag));
  AppendU64(&key, generation);
  AppendU32(&key, static_cast<uint32_t>(candidate.entries().size()));
  for (const Mapping::Entry& e : candidate.entries()) {
    AppendU32(&key, e.first);
    AppendU32(&key, e.second);
  }
  AppendCanonicalTree(&key, tree);
  return key;
}

}  // namespace wdpt
