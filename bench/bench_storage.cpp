// bench_storage: durable-storage benchmark — binary snapshot load vs
// text triple parse, snapshot write cost, and sustained INGEST
// throughput through a StorageManager.
//
// Usage:
//   bench_storage [--bands N] [--load-reps N] [--ingest-batches N]
//                 [--batch-ops N] [--json FILE]
//
// The dataset is the deterministic music catalog of gen::CatalogTriples
// (--bands scales it). The load comparison parses the same dataset
// --load-reps times through both paths — server::LoadSnapshot on the
// text form, and ReadSnapshotFile on the binary snapshot produced from
// it — and reports the median per-rep wall time plus the speedup ratio.
// The ingest phase opens a fresh StorageManager and streams
// --ingest-batches batches of --batch-ops add-ops each, reporting
// sustained ops/second (WAL append + apply + snapshot publication per
// batch, fsync off so the numbers measure the code path, not the disk).
// --json writes the measurements as BENCH_storage.json (the
// bench_storage_json target captures it).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/gen/db_gen.h"
#include "src/relational/database.h"
#include "src/relational/rdf.h"
#include "src/server/snapshot.h"
#include "src/storage/snapshot_file.h"
#include "src/storage/storage_manager.h"
#include "src/storage/wal.h"

namespace {

using namespace wdpt;
using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - start)
                 .count()) /
         1e6;
}

double MedianMs(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--bands N] [--load-reps N] [--ingest-batches N] "
               "[--batch-ops N] [--json FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t bands = 2000;
  int load_reps = 5;
  int ingest_batches = 200;
  int batch_ops = 20;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--bands" && i + 1 < argc) {
      bands = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--load-reps" && i + 1 < argc) {
      load_reps = std::atoi(argv[++i]);
    } else if (arg == "--ingest-batches" && i + 1 < argc) {
      ingest_batches = std::atoi(argv[++i]);
    } else if (arg == "--batch-ops" && i + 1 < argc) {
      batch_ops = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  char dir_template[] = "/tmp/wdpt_bench_storage.XXXXXX";
  char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 1;
  }
  std::string snapshot_path = std::string(dir) + "/snapshot.wdpt";

  std::string triples = gen::CatalogTriples(bands);

  // Reference load through the text path, and the binary file to race
  // against it.
  Result<std::shared_ptr<const server::Snapshot>> parsed =
      server::LoadSnapshot(triples, /*version=*/1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "data error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  uint64_t facts = (*parsed)->db.TotalFacts();
  storage::SnapshotFileInfo info;
  Status written = storage::WriteSnapshotFile(snapshot_path, (*parsed)->ctx,
                                              (*parsed)->db, &info);
  if (!written.ok()) {
    std::fprintf(stderr, "write error: %s\n", written.ToString().c_str());
    return 1;
  }

  std::vector<double> text_ms, binary_ms;
  for (int rep = 0; rep < load_reps; ++rep) {
    Clock::time_point t0 = Clock::now();
    Result<std::shared_ptr<const server::Snapshot>> text =
        server::LoadSnapshot(triples, /*version=*/1);
    if (!text.ok() || (*text)->db.TotalFacts() != facts) {
      std::fprintf(stderr, "text load diverged\n");
      return 1;
    }
    text_ms.push_back(ElapsedMs(t0));

    t0 = Clock::now();
    RdfContext ctx;
    Database db = ctx.MakeDatabase();
    Status read = storage::ReadSnapshotFile(snapshot_path, &ctx, &db);
    if (!read.ok() || db.TotalFacts() != facts) {
      std::fprintf(stderr, "binary load diverged: %s\n",
                   read.ToString().c_str());
      return 1;
    }
    binary_ms.push_back(ElapsedMs(t0));
  }
  double text_p50 = MedianMs(text_ms);
  double binary_p50 = MedianMs(binary_ms);
  double speedup = binary_p50 > 0 ? text_p50 / binary_p50 : 0;

  std::fprintf(stderr,
               "load: %llu facts, %llu file bytes, text p50=%sms binary "
               "p50=%sms speedup=%sx\n",
               static_cast<unsigned long long>(facts),
               static_cast<unsigned long long>(info.file_bytes),
               FormatDouble(text_p50).c_str(),
               FormatDouble(binary_p50).c_str(),
               FormatDouble(speedup).c_str());

  // Sustained ingest: a fresh store, batches streamed back to back.
  storage::StorageOptions options;
  options.dir = std::string(dir) + "/store";
  Result<std::unique_ptr<storage::StorageManager>> manager =
      storage::StorageManager::Open(options);
  if (!manager.ok()) {
    std::fprintf(stderr, "storage error: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  Clock::time_point ingest_start = Clock::now();
  uint64_t total_ops = 0;
  for (int b = 0; b < ingest_batches; ++b) {
    std::vector<storage::TripleOp> batch;
    batch.reserve(static_cast<size_t>(batch_ops));
    for (int o = 0; o < batch_ops; ++o) {
      batch.push_back({storage::TripleOpKind::kAdd,
                       "s" + std::to_string(b) + "_" + std::to_string(o),
                       "p" + std::to_string(o % 8),
                       "o" + std::to_string(b % 97)});
    }
    Result<storage::IngestResult> applied = (*manager)->Ingest(batch);
    if (!applied.ok()) {
      std::fprintf(stderr, "ingest error: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    total_ops += batch.size();
  }
  double ingest_ms = ElapsedMs(ingest_start);
  double ops_per_sec =
      ingest_ms > 0 ? static_cast<double>(total_ops) / (ingest_ms / 1e3) : 0;
  storage::StorageStats stats = (*manager)->stats();

  std::fprintf(stderr,
               "ingest: %llu ops in %sms (%s ops/s), %llu WAL bytes, %llu "
               "publishes\n",
               static_cast<unsigned long long>(total_ops),
               FormatDouble(ingest_ms).c_str(),
               FormatDouble(ops_per_sec).c_str(),
               static_cast<unsigned long long>(stats.wal_bytes),
               static_cast<unsigned long long>(stats.publishes));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"benchmark\":\"wdpt_storage\",\"facts\":" << facts
        << ",\"snapshot_file_bytes\":" << info.file_bytes
        << ",\"load_reps\":" << load_reps
        << ",\"text_load_p50_ms\":" << FormatDouble(text_p50)
        << ",\"binary_load_p50_ms\":" << FormatDouble(binary_p50)
        << ",\"binary_speedup\":" << FormatDouble(speedup)
        << ",\"ingest_batches\":" << ingest_batches
        << ",\"batch_ops\":" << batch_ops
        << ",\"ingest_ops\":" << total_ops
        << ",\"ingest_wall_ms\":" << FormatDouble(ingest_ms)
        << ",\"ingest_ops_per_sec\":" << FormatDouble(ops_per_sec)
        << ",\"wal_bytes\":" << stats.wal_bytes
        << ",\"publishes\":" << stats.publishes << "}\n";
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  std::string cleanup = "rm -rf '" + std::string(dir) + "'";
  std::system(cleanup.c_str());
  return 0;
}
