// Rank-based percentile selection over raw latency samples.
//
// Turns a bag of per-request nanosecond samples into p50/p90/p99
// columns for perfbench/loadgen.cpp and perfbench/traced.cpp. Selection
// runs via std::nth_element, which partially reorders the input but
// does not require it sorted: the result depends only on the multiset
// of values, so callers may merge per-thread sample chunks in any order
// or drop a warmup prefix without re-sorting first. (This property is
// pinned by tests/percentile_test.cpp — a sort-then-index
// implementation that silently assumed pre-sorted input would
// mis-report percentiles the moment a caller erased warmup rows.)

#ifndef WDPT_SRC_COMMON_PERCENTILE_H_
#define WDPT_SRC_COMMON_PERCENTILE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wdpt {

/// The p-quantile (p clamped to [0, 1]) of `samples` by rank selection:
/// the element at floor(p * (n - 1)) in sorted order. Returns 0 on an
/// empty input. Partially reorders `samples` in place (nth_element);
/// the returned value is independent of the input order.
inline uint64_t PercentileValue(std::vector<uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  size_t idx =
      static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

/// PercentileValue over nanosecond samples, reported in milliseconds.
inline double PercentileMs(std::vector<uint64_t>& ns, double p) {
  return static_cast<double>(PercentileValue(ns, p)) / 1e6;
}

}  // namespace wdpt

#endif  // WDPT_SRC_COMMON_PERCENTILE_H_
