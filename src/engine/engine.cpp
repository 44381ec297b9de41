#include "src/engine/engine.h"

#include <thread>
#include <utility>

#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_projection_free.h"
#include "src/wdpt/eval_tractable.h"

namespace wdpt {

namespace {

using Clock = std::chrono::steady_clock;

unsigned ResolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

Engine::Engine(const EngineOptions& options)
    : pool_(ResolveThreads(options.num_threads)),
      plan_cache_(options.plan_cache_capacity) {
  if (options.answer_cache_bytes > 0) {
    answer_cache_ = std::make_unique<AnswerCache>(options.answer_cache_bytes);
  }
}

CancelToken Engine::EffectiveToken(
    const CancelToken& caller,
    std::optional<std::chrono::nanoseconds> deadline) {
  if (!deadline.has_value()) return caller;
  CancelToken token = CancelToken::Child(caller);
  token.SetDeadline(Clock::now() + *deadline);
  return token;
}

bool Engine::CacheParticipates(const CallOptions& options) const {
  if (answer_cache_ == nullptr) return false;
  if (options.cache.mode == CacheMode::kBypass ||
      options.cache.generation == 0) {
    answer_cache_->NoteBypass();
    return false;
  }
  return true;
}

Result<std::shared_ptr<const Plan>> Engine::GetPlan(
    const PatternTree& tree, const PlanOptions& options, Trace* trace) {
  Clock::time_point lookup_start = Clock::now();
  std::string key = CanonicalPlanKey(tree, options);
  std::shared_ptr<const Plan> cached = plan_cache_.Find(key);
  if (trace != nullptr) {
    trace->Record(TraceStage::kPlanLookup, ElapsedNs(lookup_start));
  }
  if (cached != nullptr) {
    stats_.RecordPlanCacheHit();
    if (trace != nullptr) trace->set_classification(cached->tractability());
    return cached;
  }
  stats_.RecordPlanCacheMiss();
  Clock::time_point start = Clock::now();
  Result<std::shared_ptr<const Plan>> plan = Plan::Build(tree, options);
  uint64_t build_ns = ElapsedNs(start);
  stats_.RecordPlanBuild(build_ns, plan.ok());
  if (trace != nullptr) trace->Record(TraceStage::kPlanBuild, build_ns);
  if (!plan.ok()) return plan.status();
  if (trace != nullptr) trace->set_classification((*plan)->tractability());
  plan_cache_.Insert(key, *plan);
  return plan;
}

Result<bool> Engine::EvalWithPlan(const Plan& plan, const Database& db,
                                  const Mapping& h,
                                  const CallOptions& options,
                                  const CancelToken& token) {
  // An already-fired token (e.g. a zero deadline) never starts work.
  Status token_status = StatusFromToken(token);
  if (!token_status.ok()) {
    NoteStatus(token_status);
    return token_status;
  }

  CqEvalOptions cq = options.cq;
  cq.cancel = token;

  Result<bool> result = false;
  switch (options.semantics) {
    case EvalSemantics::kStandard:
      switch (plan.algorithm()) {
        case EvalAlgorithm::kNaive:
          result = EvalNaive(plan.tree(), db, h, cq);
          break;
        case EvalAlgorithm::kTractableDP:
          result = EvalTractable(plan.tree(), db, h, cq);
          break;
        case EvalAlgorithm::kProjectionFree:
          result = EvalProjectionFree(plan.tree(), db, h, cq);
          break;
        case EvalAlgorithm::kAuto:
          return Status::Internal("plan retains kAuto algorithm");
      }
      break;
    case EvalSemantics::kPartial:
      result = PartialEval(plan.tree(), db, h, cq);
      break;
    case EvalSemantics::kMaximal:
      result = MaxEval(plan.tree(), db, h, cq);
      break;
  }

  // A fired token invalidates whatever the wound-down computation
  // returned: surface the terminal status instead of a partial answer.
  token_status = StatusFromToken(token);
  if (!token_status.ok()) {
    NoteStatus(token_status);
    return token_status;
  }
  return result;
}

Result<bool> Engine::EvalThroughCache(const Plan& plan, const Database& db,
                                      const Mapping& h,
                                      const CallOptions& options,
                                      const CancelToken& token,
                                      Trace* trace) {
  if (!CacheParticipates(options)) {
    return EvalWithPlan(plan, db, h, options, token);
  }
  std::string key =
      EvalCacheKey(plan.tree(), static_cast<uint8_t>(options.semantics), h,
                   options.cache.generation);
  AnswerCache::Lease lease = [&] {
    Trace::Span span(trace, TraceStage::kCacheLookup);
    return answer_cache_->Acquire(key, token);
  }();
  switch (lease.state()) {
    case AnswerCache::Lease::State::kHit:
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kHit);
      return lease.value()->verdict;
    case AnswerCache::Lease::State::kOwner: {
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
      Result<bool> result = EvalWithPlan(plan, db, h, options, token);
      if (result.ok()) {
        AnswerCache::Value value;
        value.is_verdict = true;
        value.verdict = *result;
        lease.Publish(std::move(value));
      }
      // On failure the lease destructor abandons the flight: errors are
      // never cached and parked waiters evaluate for themselves.
      return result;
    }
    case AnswerCache::Lease::State::kMiss: {
      if (!lease.wait_status().ok()) {
        // Our own token fired while parked behind the in-flight owner.
        NoteStatus(lease.wait_status());
        return lease.wait_status();
      }
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
      return EvalWithPlan(plan, db, h, options, token);
    }
  }
  return Status::Internal("unreachable cache lease state");
}

void Engine::NoteStatus(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    StatsCollector::Bump(stats_.deadline_exceeded);
  } else if (status.code() == StatusCode::kCancelled) {
    StatsCollector::Bump(stats_.cancelled);
  }
}

Result<bool> Engine::Eval(const PatternTree& tree, const Database& db,
                          const Mapping& h, const CallOptions& options) {
  StatsCollector::Bump(stats_.eval_calls);
  PlanOptions plan_options{options.width_bound, options.algorithm};
  Result<std::shared_ptr<const Plan>> plan =
      GetPlan(tree, plan_options, options.trace);
  if (!plan.ok()) return plan.status();
  CancelToken token = EffectiveToken(options.cancel, options.deadline);
  Clock::time_point start = Clock::now();
  Result<bool> result =
      EvalThroughCache(**plan, db, h, options, token, options.trace);
  uint64_t eval_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.eval_ns, eval_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, eval_ns);
  }
  return result;
}

Result<std::vector<bool>> Engine::EvalBatch(const PatternTree& tree,
                                            const Database& db,
                                            const std::vector<Mapping>& hs,
                                            const CallOptions& options) {
  StatsCollector::Bump(stats_.batch_calls);
  StatsCollector::Bump(stats_.batch_tasks, hs.size());
  PlanOptions plan_options{options.width_bound, options.algorithm};
  Result<std::shared_ptr<const Plan>> plan =
      GetPlan(tree, plan_options, options.trace);
  if (!plan.ok()) return plan.status();
  if (hs.empty()) return std::vector<bool>();

  // Per-column indexes are built lazily on first probe; warm them now so
  // the concurrent tasks only ever read the database.
  db.WarmColumnIndexes();

  std::shared_ptr<const Plan> shared_plan = *plan;
  // vector<bool> is bit-packed (concurrent element writes race), so the
  // workers fill a byte buffer.
  std::vector<uint8_t> values(hs.size(), 0);
  std::vector<Status> statuses(hs.size(), Status::Ok());
  BatchLatch latch(hs.size());

  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < hs.size(); ++i) {
    pool_.Submit([this, &db, &hs, &options, shared_plan, &values, &statuses,
                  &latch, i] {
      // Each task gets its own deadline window, measured from task start.
      // Tasks pass a null trace: the caller's trace is single-owner. A
      // parked single-flight waiter is safe here — the flight's owner is
      // always an already-running thread, never a queued task.
      CancelToken token = EffectiveToken(options.cancel, options.deadline);
      Result<bool> r = EvalThroughCache(*shared_plan, db, hs[i], options,
                                        token, nullptr);
      if (r.ok()) {
        values[i] = *r ? 1 : 0;
      } else {
        statuses[i] = r.status();
      }
      latch.CountDown();
    });
  }
  latch.Wait();
  uint64_t batch_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.eval_ns, batch_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, batch_ns);
  }

  // Deterministic error reporting: first failure in index order wins.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  std::vector<bool> results(hs.size());
  for (size_t i = 0; i < hs.size(); ++i) results[i] = values[i] != 0;
  return results;
}

Result<std::vector<Mapping>> Engine::EnumerateCore(
    const PatternTree& tree, const Database& db, const CallOptions& options,
    const CancelToken& token) {
  EnumerationLimits limits = options.limits;
  limits.cancel = token;
  Result<std::vector<Mapping>> result =
      options.semantics == EvalSemantics::kMaximal
          ? EvaluateWdptMaximal(tree, db, limits, options.first_rows)
          : EvaluateWdptProjected(tree, db, limits, options.first_rows);
  // As in EvalWithPlan: a token that fired during the call invalidates
  // whatever the wound-down computation returned.
  Status token_status = StatusFromToken(token);
  if (!token_status.ok()) return token_status;
  return result;
}

Result<std::vector<Mapping>> Engine::EnumerateThroughCache(
    const PatternTree& tree, const Database& db, const CallOptions& options,
    const CancelToken& token) {
  if (!CacheParticipates(options)) {
    return EnumerateCore(tree, db, options, token);
  }
  std::string key = EnumerateCacheKey(
      tree, static_cast<uint8_t>(options.semantics), options.limits,
      options.first_rows, options.cache.generation);
  Trace* trace = options.trace;
  AnswerCache::Lease lease = [&] {
    Trace::Span span(trace, TraceStage::kCacheLookup);
    return answer_cache_->Acquire(key, token);
  }();
  switch (lease.state()) {
    case AnswerCache::Lease::State::kHit:
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kHit);
      return lease.value()->answers;
    case AnswerCache::Lease::State::kOwner: {
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
      Result<std::vector<Mapping>> result =
          EnumerateCore(tree, db, options, token);
      if (result.ok()) {
        AnswerCache::Value value;
        value.answers = *result;
        lease.Publish(std::move(value));
      }
      return result;
    }
    case AnswerCache::Lease::State::kMiss: {
      if (!lease.wait_status().ok()) return lease.wait_status();
      if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
      return EnumerateCore(tree, db, options, token);
    }
  }
  return Status::Internal("unreachable cache lease state");
}

Result<std::vector<Mapping>> Engine::Enumerate(
    const PatternTree& tree, const Database& db,
    const CallOptions& options) {
  StatsCollector::Bump(stats_.enumerate_calls);
  if (options.semantics == EvalSemantics::kPartial) {
    return Status::InvalidArgument(
        "Enumerate: kPartial is a membership-only semantics; use Eval with "
        "a candidate");
  }
  CancelToken token = EffectiveToken(options.cancel, options.deadline);
  Status token_status = StatusFromToken(token);
  if (!token_status.ok()) {
    NoteStatus(token_status);
    return token_status;
  }
  Clock::time_point start = Clock::now();
  Result<std::vector<Mapping>> result =
      EnumerateThroughCache(tree, db, options, token);
  uint64_t enumerate_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.enumerate_ns, enumerate_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, enumerate_ns);
  }
  if (!result.ok()) NoteStatus(result.status());
  return result;
}

EngineStats Engine::stats() const {
  EngineStats s = stats_.Snapshot();
  if (answer_cache_ != nullptr) {
    AnswerCache::Stats cs = answer_cache_->stats();
    s.answer_cache_hits = cs.hits;
    s.answer_cache_misses = cs.misses;
    s.answer_cache_bypasses = cs.bypasses;
    s.answer_cache_inflight_waits = cs.inflight_waits;
    s.answer_cache_evictions = cs.evictions;
    s.answer_cache_inserts = cs.inserts;
    s.answer_cache_bytes = cs.bytes;
    s.answer_cache_entries = cs.entries;
  }
  return s;
}

}  // namespace wdpt
