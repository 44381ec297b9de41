// Tests for the rank-based percentile helper (src/common/percentile.h).
// The load-bearing property is order
// insensitivity: percentiles must come out the same whether the sample
// vector was sorted, shuffled, merged from per-thread chunks, or had a
// warmup prefix erased — a sort-then-index implementation that silently
// assumed pre-sorted input would get this wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/common/percentile.h"

namespace wdpt {
namespace {

TEST(Percentile, EmptyInputYieldsZero) {
  std::vector<uint64_t> none;
  EXPECT_EQ(PercentileValue(none, 0.5), 0u);
  EXPECT_EQ(PercentileMs(none, 0.99), 0.0);
}

TEST(Percentile, SingleElementIsEveryPercentile) {
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    std::vector<uint64_t> one = {7};
    EXPECT_EQ(PercentileValue(one, p), 7u);
  }
}

TEST(Percentile, RankSelectionOnKnownValues) {
  // 1..10: index = floor(p * 9).
  std::vector<uint64_t> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<uint64_t> w;
  w = v;
  EXPECT_EQ(PercentileValue(w, 0.0), 1u);
  w = v;
  EXPECT_EQ(PercentileValue(w, 0.5), 5u);
  w = v;
  EXPECT_EQ(PercentileValue(w, 0.9), 9u);
  w = v;
  EXPECT_EQ(PercentileValue(w, 1.0), 10u);
}

TEST(Percentile, ClampsOutOfRangeP) {
  std::vector<uint64_t> v = {3, 1, 2};
  EXPECT_EQ(PercentileValue(v, -0.5), 1u);
  v = {3, 1, 2};
  EXPECT_EQ(PercentileValue(v, 2.0), 3u);
}

TEST(Percentile, IndependentOfInputOrder) {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> sorted(501);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = rng() % 1000000;
  }
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    std::vector<uint64_t> reference = sorted;
    uint64_t want = PercentileValue(reference, p);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<uint64_t> shuffled = sorted;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      EXPECT_EQ(PercentileValue(shuffled, p), want) << "p=" << p;
    }
  }
}

TEST(Percentile, CorrectAfterDroppingWarmupPrefix) {
  // The loadgen regression scenario: samples arrive unsorted, a warmup
  // prefix is erased, and percentiles are taken from what remains. The
  // result must equal the percentile of the surviving multiset.
  std::mt19937_64 rng(11);
  std::vector<uint64_t> samples(200);
  for (auto& s : samples) s = rng() % 100000;
  const size_t warmup = 25;
  std::vector<uint64_t> body(samples.begin() + warmup, samples.end());
  std::vector<uint64_t> body_sorted = body;
  std::sort(body_sorted.begin(), body_sorted.end());
  for (double p : {0.5, 0.9, 0.99}) {
    std::vector<uint64_t> dropped = samples;
    dropped.erase(dropped.begin(), dropped.begin() + warmup);
    size_t idx =
        static_cast<size_t>(p * static_cast<double>(body.size() - 1));
    EXPECT_EQ(PercentileValue(dropped, p), body_sorted[idx]) << "p=" << p;
  }
}

TEST(Percentile, MergedThreadChunksMatchGlobalMultiset) {
  // Per-thread chunks concatenated in any order give the same answer as
  // one global sorted vector.
  std::vector<uint64_t> a = {900, 10, 500};
  std::vector<uint64_t> b = {1, 999, 450};
  std::vector<uint64_t> merged;
  merged.insert(merged.end(), b.begin(), b.end());
  merged.insert(merged.end(), a.begin(), a.end());
  std::vector<uint64_t> global = {1, 10, 450, 500, 900, 999};
  for (double p : {0.0, 0.5, 1.0}) {
    std::vector<uint64_t> m = merged;
    std::vector<uint64_t> g = global;
    EXPECT_EQ(PercentileValue(m, p), PercentileValue(g, p));
  }
}

}  // namespace
}  // namespace wdpt
