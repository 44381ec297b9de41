// Shared model of the serving benchmark: request kinds, operations with
// their reference answers, workloads, and the per-run record.
//
// A workload is generated from (name, seed, scale) alone. Generation
// also computes every operation's expected response from reference
// evaluators that share no code with the serving path's enumerator or
// maximality filter (reference.cpp), so the timed phase only has to
// record what came back.

#ifndef WDPT_PERFBENCH_BENCH_H_
#define WDPT_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/relational/database.h"
#include "src/relational/rdf.h"
#include "src/server/client.h"
#include "src/storage/wal.h"

namespace perfbench {

enum class Kind : int {
  kEnum = 0,  ///< p(D), all rows.
  kMaxEnum,   ///< p_m(D).
  kLimit,     ///< p(D) with max-results 10.
  kEval,      ///< EVAL of one candidate.
  kPartial,   ///< PARTIAL-EVAL of one candidate.
  kMax,       ///< MAX-EVAL of one candidate.
  kIngest,    ///< One INGEST batch.
};
inline constexpr int kKindCount = 7;
inline constexpr int kReadKindCount = 6;
inline constexpr uint64_t kLimitRows = 10;

/// "enum", "maxenum", "limit", "check_eval", "check_partial",
/// "check_max", "ingest": the metric-name stems.
const char* KindName(Kind kind);
inline bool IsCheck(Kind kind) {
  return kind == Kind::kEval || kind == Kind::kPartial || kind == Kind::kMax;
}

/// Order-insensitive digest of a row list: count plus the wrapping sum
/// of FNV-1a hashes of the rows.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(std::string_view row);
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

/// What a correct server answers to one operation.
struct Expected {
  RowDigest digest;  ///< kEnum / kMaxEnum: the whole row multiset.
  /// kLimit: every row of the reference p(D); a LIMIT response must be
  /// min(10, |p(D)|) distinct rows from it, truncated iff |p(D)| > 10.
  std::shared_ptr<const std::unordered_set<std::string>> row_set;
  bool verdict = false;  ///< Checks.
  uint64_t facts = 0;    ///< kIngest: |D| after the batch.
};

struct Op {
  Kind kind = Kind::kEnum;
  /// Distinct request shape (query text + mode + max-results), the unit
  /// of the warm-up pass and of the traced run's per-shape counts.
  int shape = -1;
  wdpt::server::QueryCall call;
  std::vector<wdpt::storage::TripleOp> ingest;
  Expected expected;
};

/// Exact sizes a run must reproduce; a drift fails the run.
struct SizeFacts {
  uint64_t facts = 0;  ///< |D| the server starts with.
  /// Per distinct enumeration shape: |p(D)| and |p_m(D)|.
  std::vector<std::string> shape_names;
  std::vector<uint64_t> answers;
  std::vector<uint64_t> maximal_answers;
  /// Hard-coded expectations (0 = not pinned) for the deterministic
  /// catalog workloads.
  uint64_t pinned_facts = 0;
  std::vector<uint64_t> pinned_answers;
  std::vector<uint64_t> pinned_maximal_answers;
};

struct Workload {
  std::string name;
  /// Initial dataset as triples text.
  std::string triples;
  /// catalog-ingest: batches left un-checkpointed in the WAL of the
  /// prepared data directory (the server replays them at start-up).
  std::vector<std::vector<wdpt::storage::TripleOp>> wal_tail;
  /// Extra wdpt_server flags (beyond port, print-port, data paths).
  std::vector<std::string> server_flags;
  /// Per-connection operation streams, each sent in order by one
  /// closed-loop client.
  std::vector<std::vector<Op>> streams;
  /// One operation per distinct read shape, plus a no-op ingest.
  std::vector<Op> warmup;
  /// Verification-only requests, sent untimed after the timed phase.
  std::vector<Op> probes;
  /// Final |D| after every stream ran (checked by reopening the store).
  uint64_t final_facts = 0;
  /// FactDigest of the final fact set.
  uint64_t final_fact_digest = 0;
  SizeFacts sizes;
  /// Expected answer-cache hit share and checkpoint share of the timed
  /// phase (negative = not pinned).
  double expect_answer_hit_share = -1;
  bool expect_checkpoints = false;
  /// Every timed-phase plan lookup must hit (catalog-read).
  bool plan_cache_always_hits = false;
};

/// Builds the named workload. `scale` multiplies the operation counts
/// (1.0 at the default run length); every kind keeps >= 100 samples.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out);

/// Order-insensitive digest of every fact of `db` rendered "s p o".
uint64_t FactDigest(const wdpt::RdfContext& ctx, const wdpt::Database& db);

/// One completed (or failed) operation of a timed phase.
struct Sample {
  Kind kind = Kind::kEnum;
  bool failed = false;     ///< Transport error, non-OK, or overload.
  bool mismatch = false;   ///< Filled by verification.
  uint64_t latency_ns = 0; ///< Client round trip, retries included.
  uint64_t wall_ns = 0;    ///< Server-side ExecuteQuery wall (stats JSON).
  uint64_t queue_ns = 0;   ///< Server-side queue wait (stats JSON).
  RowDigest digest;
  std::vector<std::string> rows;  ///< kLimit and checks only.
  bool truncated = false;
  uint64_t facts = 0;      ///< kIngest: facts after the batch.
  std::string error;
};

/// The in-process traced replay (traced.cpp). Fills `metrics` with
/// every per-layer metric measured in-process (name -> value); units
/// come from PerLayerUnit.
struct TracedInputs {
  const Workload* workload = nullptr;
  std::string prepared_dir;  ///< Store as the server found it at start.
  std::string work_dir;      ///< Scratch space for store copies.
};
bool RunTraced(const TracedInputs& in, std::map<std::string, double>* metrics,
               std::string* error);

/// Unit of a per-layer metric, from its name's suffix.
const char* PerLayerUnit(const std::string& name);

/// Shared helpers.
uint64_t NowNs();
/// Size of the newest snapshot.NNN.wdpt in a store directory (0: none).
uint64_t SnapshotFileBytes(const std::string& dir);
bool JsonUint(const std::string& json, const std::string& key,
              uint64_t* value);
/// Replaces `to` with a copy of the directory `from`.
bool CopyDir(const std::string& from, const std::string& to);
bool RemoveDir(const std::string& dir);
/// Writes `ops` as a prepared store: `triples` imported as the snapshot,
/// then `tail` ingested without checkpointing.
bool PrepareStore(const std::string& dir, const std::string& triples,
                  const std::vector<std::vector<wdpt::storage::TripleOp>>& tail,
                  std::string* error);

}  // namespace perfbench

#endif  // WDPT_PERFBENCH_BENCH_H_
