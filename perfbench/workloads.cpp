// Workload generators. Each workload is a pure function of (seed,
// scale): the dataset, the pattern trees, the candidates and the
// interleaving all come from one seeded generator, and the expected
// response of every operation is computed here from the reference
// evaluators (reference.h) before anything is timed.

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

#include "perfbench/bench.h"
#include "perfbench/reference.h"

namespace perfbench {

namespace {

using wdpt::server::QueryCall;
using wdpt::sparql::RequestMode;
using wdpt::storage::TripleOp;
using wdpt::storage::TripleOpKind;
using Batch = std::vector<TripleOp>;

// ---------------------------------------------------------------------
// Shared pieces.

uint64_t Count(uint64_t base, double scale) {
  return std::max<uint64_t>(100, static_cast<uint64_t>(std::llround(
                                     static_cast<double>(base) * scale)));
}

RequestMode ModeOf(Kind kind) {
  switch (kind) {
    case Kind::kMaxEnum:
    case Kind::kMax:
      return RequestMode::kMax;
    case Kind::kPartial:
      return RequestMode::kPartial;
    default:
      return RequestMode::kEval;
  }
}

QueryCall MakeCall(Kind kind, const std::string& query,
                   const std::string& candidate = "") {
  QueryCall call(query);
  call.Mode(ModeOf(kind));
  if (kind == Kind::kLimit) call.MaxResults(kLimitRows);
  if (IsCheck(kind)) call.Candidate(candidate);
  return call;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

// Assigns shape ids to distinct (kind, query text) pairs and keeps one
// representative operation per shape for the warm-up pass.
class ShapeTable {
 public:
  int Intern(const Op& op, const std::string& key_text) {
    auto key = std::make_pair(static_cast<int>(op.kind), key_text);
    auto [it, inserted] = ids_.emplace(key, static_cast<int>(ids_.size()));
    if (inserted) {
      warmup_.push_back(op);
      warmup_.back().shape = it->second;
    }
    return it->second;
  }
  size_t size() const { return ids_.size(); }
  std::vector<Op> TakeWarmup() { return std::move(warmup_); }

 private:
  std::map<std::pair<int, std::string>, int> ids_;
  std::vector<Op> warmup_;
};

// `answers` and `maximal_answers`, when given, receive |p(D)| and
// |p_m(D)| of `query`.
Expected EnumExpected(const RefState& ref, Kind kind, const std::string& query,
                      uint64_t* answers, uint64_t* maximal_answers) {
  Expected e;
  bool maximal = kind == Kind::kMaxEnum;
  std::vector<std::string> rows = ref.Rows(query, maximal);
  for (const std::string& row : rows) e.digest.Add(row);
  if (kind == Kind::kLimit) {
    e.row_set = std::make_shared<std::unordered_set<std::string>>(
        rows.begin(), rows.end());
  }
  if (answers != nullptr) {
    *answers = maximal ? ref.Rows(query, false).size() : rows.size();
  }
  if (maximal_answers != nullptr) {
    *maximal_answers = maximal ? rows.size() : ref.Rows(query, true).size();
  }
  return e;
}

// An operation that removes a triple no workload ever adds: acked as a
// no-op, so the warm-up can touch the write path without changing |D|.
Op NoOpIngest() {
  Op op;
  op.kind = Kind::kIngest;
  op.ingest.push_back({TripleOpKind::kRemove, "warmup", "tag", "none"});
  return op;
}

// Pad facts on a predicate no query reads: batch k adds pad{k+lag}_m and
// removes pad{k}_m, so |D| and every answer stay level while the write
// path runs. The first `lag` generations are part of the initial data.
std::string PadTriples(int lag) {
  std::string out;
  for (int k = 0; k < lag; ++k) {
    for (int m = 0; m < 5; ++m) {
      out += "pad" + std::to_string(k) + "_" + std::to_string(m) + " tag t" +
             std::to_string(m) + "\n";
    }
  }
  return out;
}

Batch PadBatch(int k, int lag) {
  Batch batch;
  for (int m = 0; m < 5; ++m) {
    batch.push_back({TripleOpKind::kAdd,
                     "pad" + std::to_string(k + lag) + "_" + std::to_string(m),
                     "tag", "t" + std::to_string(m)});
  }
  for (int m = 0; m < 5; ++m) {
    batch.push_back({TripleOpKind::kRemove,
                     "pad" + std::to_string(k) + "_" + std::to_string(m), "tag",
                     "t" + std::to_string(m)});
  }
  return batch;
}

constexpr int kPadLag = 4;

// Fills the ingest slots of a shuffled operation list with pad batches
// in order of appearance, so each batch removes what an earlier one
// added.
void NumberPadBatches(std::vector<Op>* ops, RefState* ref) {
  int k = 0;
  for (Op& op : *ops) {
    if (op.kind != Kind::kIngest) continue;
    op.ingest = PadBatch(k++, kPadLag);
    ref->Apply(op.ingest);
    op.expected.facts = ref->facts();
  }
}

// Deals a shuffled operation list onto the connections: every ingest on
// connection 0 (writes keep one fixed order), and the reads of each
// request shape in turn, starting at a connection that rotates with the
// shape, so that every connection gets the same work and the timed
// phase does not end on whichever connection the shuffle overloaded.
std::vector<std::vector<Op>> Deal(std::vector<Op> ops, unsigned connections) {
  std::vector<std::vector<Op>> streams(connections);
  std::map<int, size_t> dealt;
  for (Op& op : ops) {
    size_t c = op.kind == Kind::kIngest
                   ? 0
                   : (static_cast<size_t>(op.shape) + dealt[op.shape]++) %
                         connections;
    streams[c].push_back(std::move(op));
  }
  return streams;
}

// ---------------------------------------------------------------------
// The Figure 1 catalog.

std::string CatalogTriples(uint32_t bands) {
  std::string out;
  for (uint32_t b = 0; b < bands; ++b) {
    std::string band = "band" + std::to_string(b);
    if (b % 2 == 0) {
      out += band + " formed_in year" + std::to_string(1960 + b % 60) + "\n";
    }
    for (uint32_t r = 0; r < 4; ++r) {
      std::string rec = "rec" + std::to_string(b) + "_" + std::to_string(r);
      out += rec + " recorded_by " + band + "\n";
      if ((b * 31 + r) % 10 < 8) out += rec + " published after_2010\n";
      if ((b * 17 + r) % 10 < 5) {
        out += rec + " NME_rating " + std::to_string(1 + (b + r) % 10) + "\n";
      }
    }
  }
  return out;
}

const char* const kFig1Where =
    "((((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating)) OPT (?band, formed_in, ?year))";

// The Figure 1 query projected to `select` (empty: every variable), with
// ?band replaced by the constant `band` when one is given.
std::string Fig1Query(const std::vector<std::string>& select,
                      const std::string& band = "") {
  std::string where = kFig1Where;
  std::string head;
  for (const std::string& v : select) {
    if (!band.empty() && v == "band") continue;
    head += " ?" + v;
  }
  if (!band.empty()) where = ReplaceAll(where, "?band", band);
  return head.empty() ? where : "SELECT" + head + " WHERE " + where;
}

const std::vector<std::vector<std::string>>& Fig1Variants() {
  static const std::vector<std::vector<std::string>> variants = {
      {"band", "year"}, {"rec", "band", "rating"}, {}};
  return variants;
}

// The check variant: the projection to {rec, band, rating} is l-TW(1)
// with projection, so EVAL takes the Theorem 6 DP.
const std::vector<std::string>& CheckVariant() { return Fig1Variants()[1]; }

CheckSpec CatalogCheck(const std::string& band) {
  CheckSpec spec;
  spec.query = Fig1Query(CheckVariant());
  spec.anchored_query = Fig1Query(CheckVariant(), band);
  spec.anchor_var = "band";
  spec.anchor_value = band;
  return spec;
}

Binding Without(const Binding& b, const std::string& var) {
  Binding out;
  for (const auto& entry : b) {
    if (entry.first != var) out.push_back(entry);
  }
  return out;
}

bool Binds(const Binding& b, const std::string& var) {
  for (const auto& entry : b) {
    if (entry.first == var) return true;
  }
  return false;
}

// A candidate of `kind` cut from the anchored answers of `spec`; `truthy`
// steers towards a true verdict (the reference decides the real one).
// Falsifying perturbations: a rating that disagrees, a binding dropped
// that a maximal answer carries, or a record of another band.
std::string CatalogCandidate(Kind kind, const std::vector<Binding>& answers,
                             bool truthy, const std::string& foreign_rec,
                             std::mt19937_64* rng) {
  const Binding& a = answers[(*rng)() % answers.size()];
  if (truthy) {
    if (kind == Kind::kPartial) return CandidateText(Without(a, "rating"));
    return CandidateText(a);
  }
  if (kind == Kind::kPartial || !Binds(a, "rating")) {
    Binding b = Without(a, "rating");
    for (auto& entry : b) {
      if (entry.first == "rec") entry.second = foreign_rec;
    }
    return CandidateText(b);
  }
  if (kind == Kind::kMax) return CandidateText(Without(a, "rating"));
  Binding b = a;
  for (auto& entry : b) {
    if (entry.first == "rating") {
      entry.second = std::to_string(1 + (std::stoi(entry.second) % 10));
    }
  }
  return CandidateText(b);
}

// catalog-read: the Figure 1 catalog at 2,000 bands, two connections.
void MakeCatalogRead(uint64_t seed, double scale, Workload* w) {
  constexpr uint32_t kBands = 2000;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  w->triples = CatalogTriples(kBands) + PadTriples(kPadLag);
  w->server_flags = {"--workers", "2"};
  RefState ref(w->triples);
  w->sizes.facts = ref.facts();
  w->sizes.pinned_facts = 19400 + 5 * kPadLag;

  ShapeTable shapes;
  std::vector<Op> ops;
  // Enumerations: three equally weighted variants per kind.
  const Kind enum_kinds[] = {Kind::kEnum, Kind::kMaxEnum, Kind::kLimit};
  const uint64_t enum_base[] = {240, 102, 240};
  for (int k = 0; k < 3; ++k) {
    Kind kind = enum_kinds[k];
    uint64_t per_variant = (Count(enum_base[k], scale) + 2) / 3;
    for (const std::vector<std::string>& select : Fig1Variants()) {
      Op op;
      op.kind = kind;
      std::string query = Fig1Query(select);
      op.call = MakeCall(kind, query);
      uint64_t answers = 0, maximal = 0;
      op.expected = EnumExpected(ref, kind, query,
                                 kind == Kind::kEnum ? &answers : nullptr,
                                 kind == Kind::kEnum ? &maximal : nullptr);
      op.shape = shapes.Intern(op, query);
      if (kind == Kind::kEnum) {
        w->sizes.shape_names.push_back("fig1{" + [&] {
          std::string s;
          for (const std::string& v : select) s += (s.empty() ? "" : ",") + v;
          return s.empty() ? std::string("*") : s;
        }() + "}");
        w->sizes.answers.push_back(answers);
        w->sizes.maximal_answers.push_back(maximal);
      }
      for (uint64_t i = 0; i < per_variant; ++i) ops.push_back(op);
    }
  }

  // Checks: three in four steered true, candidates on random bands.
  const Kind check_kinds[] = {Kind::kEval, Kind::kPartial, Kind::kMax};
  for (Kind kind : check_kinds) {
    uint64_t n = Count(300, scale);
    for (uint64_t i = 0; i < n; ++i) {
      std::string band = "band" + std::to_string(rng() % kBands);
      CheckSpec spec = CatalogCheck(band);
      std::vector<Binding> answers = ref.AnchoredAnswers(spec);
      if (answers.empty()) {
        --i;
        continue;
      }
      std::string foreign =
          "rec" + std::to_string(rng() % kBands) + "_" + std::to_string(rng() % 4);
      spec.candidate =
          CatalogCandidate(kind, answers, rng() % 4 != 0, foreign, &rng);
      Op op;
      op.kind = kind;
      op.call = MakeCall(kind, spec.query, spec.candidate);
      op.expected.verdict = ref.Verdict(kind, spec);
      op.shape = shapes.Intern(op, spec.query);
      ops.push_back(std::move(op));
    }
  }

  ops.resize(ops.size() + Count(100, scale), NoOpIngest());
  std::shuffle(ops.begin(), ops.end(), rng);
  NumberPadBatches(&ops, &ref);
  w->streams = Deal(std::move(ops), 2);
  w->warmup = shapes.TakeWarmup();
  w->warmup.push_back(NoOpIngest());
  w->final_facts = ref.facts();
  w->final_fact_digest = ref.FactSetDigest();
  w->plan_cache_always_hits = true;

  // p_m(D) equals p(D) on the three timed variants, so they cannot tell
  // a maximality filter that works from one that drops nothing. The
  // projection to {band, rating} can: a band with both a rated and an
  // unrated published record yields {band}, which {band, rating}
  // subsumes. Its p(D) and p_m(D) are verified after the timed phase.
  std::string probe = Fig1Query({"band", "rating"});
  uint64_t answers = 0, maximal = 0;
  for (Kind kind : {Kind::kEnum, Kind::kMaxEnum}) {
    Op op;
    op.kind = kind;
    op.call = MakeCall(kind, probe);
    op.expected = EnumExpected(ref, kind, probe,
                               kind == Kind::kEnum ? &answers : nullptr,
                               kind == Kind::kEnum ? &maximal : nullptr);
    w->probes.push_back(std::move(op));
  }
  w->sizes.shape_names.push_back("fig1{band,rating}");
  w->sizes.answers.push_back(answers);
  w->sizes.maximal_answers.push_back(maximal);
  w->sizes.pinned_answers = {2000, 6400, 6400, 4600};
  w->sizes.pinned_maximal_answers = {2000, 6400, 6400, 3600};
}

// catalog-ingest: the catalog at 8,000 bands served from a prepared
// store, one connection of rounds (ingest, then one read thrice).
void MakeCatalogIngest(uint64_t seed, double scale, Workload* w) {
  constexpr uint32_t kBands = 8000;
  constexpr int kLag = 8;  // Rounds between adding a record and removing it.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 29);
  w->triples = CatalogTriples(kBands);
  RefState ref(w->triples);

  // Generation k's records: five per batch on one band, three published,
  // two rated. Round i adds generation i + kLag and removes generation i.
  std::vector<uint32_t> band_of;
  auto generation = [&](int k) {
    while (static_cast<int>(band_of.size()) <= k) {
      band_of.push_back(static_cast<uint32_t>(rng() % kBands));
    }
    Batch adds;
    std::string band = "band" + std::to_string(band_of[k]);
    for (int j = 0; j < 5; ++j) {
      std::string rec = "nrec" + std::to_string(k) + "_" + std::to_string(j);
      adds.push_back({TripleOpKind::kAdd, rec, "recorded_by", band});
      if (j < 3) adds.push_back({TripleOpKind::kAdd, rec, "published", "after_2010"});
      if (j % 2 == 0 && j < 3) {
        adds.push_back({TripleOpKind::kAdd, rec, "NME_rating",
                        std::to_string(1 + (k + j) % 10)});
      }
    }
    return adds;
  };
  for (int k = 0; k < kLag; ++k) {
    w->wal_tail.push_back(generation(k));
    ref.Apply(w->wal_tail.back());
  }
  w->sizes.facts = ref.facts();
  w->sizes.pinned_facts = 77600 + 10 * kLag;

  uint64_t rounds = (Count(408, scale) + 5) / 6 * 6;
  std::vector<Kind> read_order;
  for (uint64_t i = 0; i < rounds; ++i) {
    read_order.push_back(static_cast<Kind>(i % kReadKindCount));
  }
  std::shuffle(read_order.begin(), read_order.end(), rng);

  ShapeTable shapes;
  std::vector<Op> ops;
  // |p(D)| and |p_m(D)| summed over the rounds' enumerations.
  uint64_t anchored_answers = 0, anchored_maximal = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    int k_new = static_cast<int>(i) + kLag;
    int k_old = static_cast<int>(i);
    Op ingest;
    ingest.kind = Kind::kIngest;
    ingest.ingest = generation(k_new);
    for (TripleOp op : generation(k_old)) {
      op.kind = TripleOpKind::kRemove;
      ingest.ingest.push_back(std::move(op));
    }
    ref.Apply(ingest.ingest);
    ingest.expected.facts = ref.facts();
    ops.push_back(std::move(ingest));

    Kind kind = read_order[i];
    // Reads aim at the batch: two rounds in three at the generation it
    // wrote, one in three at the generation it removed.
    bool written = rng() % 3 != 0;
    int k = written ? k_new : k_old;
    std::string band = "band" + std::to_string(band_of[k]);
    Op read;
    read.kind = kind;
    std::string shape_key;
    if (!IsCheck(kind)) {
      std::string query = Fig1Query({}, band);
      read.call = MakeCall(kind, query);
      uint64_t answers = 0, maximal = 0;
      read.expected = EnumExpected(ref, kind, query, &answers, &maximal);
      anchored_answers += answers;
      anchored_maximal += maximal;
      shape_key = "anchored";
    } else {
      CheckSpec spec = CatalogCheck(band);
      std::string rec = "nrec" + std::to_string(k) + "_";
      Binding candidate;
      if (kind == Kind::kEval) {
        candidate = {{"rec", rec + "0"}, {"band", band},
                     {"rating", std::to_string(1 + k % 10)}};
      } else if (kind == Kind::kPartial) {
        candidate = {{"rec", rec + "1"}, {"band", band}};
      } else {
        candidate = {{"rec", rec + "2"}, {"band", band},
                     {"rating", std::to_string(1 + (k + 2) % 10)}};
      }
      spec.candidate = CandidateText(candidate);
      read.call = MakeCall(kind, spec.query, spec.candidate);
      read.expected.verdict = ref.Verdict(kind, spec);
      shape_key = spec.query;
    }
    read.shape = shapes.Intern(read, shape_key);
    for (int r = 0; r < 3; ++r) ops.push_back(read);
  }
  w->sizes.shape_names = {"anchored"};
  w->sizes.answers = {anchored_answers};
  w->sizes.maximal_answers = {anchored_maximal};
  // A 20-op batch appends about 0.7 KB of WAL, so this threshold
  // checkpoints every fourth or fifth batch: the checkpoint cluster then
  // holds the top fifth of ingest latencies and p90 falls inside it.
  w->server_flags = {"--workers", "2", "--cache-bytes",
                     std::to_string(32u << 20), "--checkpoint-wal-bytes",
                     "3300"};
  w->streams = {std::move(ops)};
  w->warmup = shapes.TakeWarmup();
  w->warmup.push_back(NoOpIngest());
  w->final_facts = ref.facts();
  w->final_fact_digest = ref.FactSetDigest();
  w->expect_answer_hit_share = 2.0 / 3.0;
  w->expect_checkpoints = true;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out) {
  out->name = name;
  if (name == "catalog-read") {
    MakeCatalogRead(seed, scale, out);
  } else if (name == "catalog-ingest") {
    MakeCatalogIngest(seed, scale, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
