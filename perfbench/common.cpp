#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "perfbench/bench.h"
#include "src/storage/storage_manager.h"

namespace perfbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEnum:
      return "enum";
    case Kind::kMaxEnum:
      return "maxenum";
    case Kind::kLimit:
      return "limit";
    case Kind::kEval:
      return "check_eval";
    case Kind::kPartial:
      return "check_partial";
    case Kind::kMax:
      return "check_max";
    case Kind::kIngest:
      return "ingest";
  }
  return "unknown";
}

void RowDigest::Add(std::string_view row) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : row) {
    h ^= c;
    h *= 1099511628211ull;
  }
  ++rows;
  sum += h;
}

uint64_t FactDigest(const wdpt::RdfContext& ctx, const wdpt::Database& db) {
  RowDigest digest;
  const wdpt::Relation& triples = db.relation(ctx.triple_relation());
  const wdpt::Vocabulary& vocab = ctx.vocab();
  for (size_t row = 0; row < triples.size(); ++row) {
    std::span<const wdpt::ConstantId> t = triples.Tuple(row);
    digest.Add(vocab.ConstantName(t[0]) + ' ' + vocab.ConstantName(t[1]) +
               ' ' + vocab.ConstantName(t[2]));
  }
  return digest.sum ^ (digest.rows * 0x9E3779B97F4A7C15ull);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* PerLayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_rate")) return "ratio";
  if (ends("_pct")) return "%";
  if (ends("_kb")) return "KiB";
  if (ends("_per_op") || ends("_per_fact") || ends("bytes_peak")) return "bytes";
  if (ends("_per_returned")) return "rows/row";
  return "count";
}

uint64_t SnapshotFileBytes(const std::string& dir) {
  std::error_code ec;
  std::string newest;
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snapshot.", 0) == 0 && entry.path().extension() == ".wdpt" &&
        name > newest) {
      newest = name;
      bytes = entry.file_size(ec);
    }
  }
  return bytes;
}

bool JsonUint(const std::string& json, const std::string& key,
              uint64_t* value) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *value = std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

bool RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return !ec;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::remove_all(to, ec);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive, ec);
  return !ec;
}

bool PrepareStore(const std::string& dir, const std::string& triples,
                  const std::vector<std::vector<wdpt::storage::TripleOp>>& tail,
                  std::string* error) {
  RemoveDir(dir);
  wdpt::storage::StorageOptions options;
  options.dir = dir;
  wdpt::Result<std::unique_ptr<wdpt::storage::StorageManager>> manager =
      wdpt::storage::StorageManager::Open(options);
  if (!manager.ok()) {
    *error = manager.status().ToString();
    return false;
  }
  wdpt::Status imported = (*manager)->ImportTriples(triples);
  if (!imported.ok()) {
    *error = imported.ToString();
    return false;
  }
  for (const std::vector<wdpt::storage::TripleOp>& batch : tail) {
    wdpt::Result<wdpt::storage::IngestResult> applied =
        (*manager)->Ingest(batch);
    if (!applied.ok()) {
      *error = applied.status().ToString();
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
