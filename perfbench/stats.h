#ifndef GRAPHSIG_PERFBENCH_STATS_H_
#define GRAPHSIG_PERFBENCH_STATS_H_

// Order statistics and accounting rules the benchmark reports with.
// Header-only and free of library dependencies so selftest.cc can check
// each rule on synthetic samples.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `values` (pct in (0, 100]): the smallest
// sample with at least pct% of the samples at or below it. 0 when empty.
inline double NearestRank(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 50.0);
}

// The fastest of repeated ops that all do the same work. The host's slow
// spells and interrupts only ever add time to such an op, so as long as
// one op in a run met a quiet host this reads the same from run to run.
// 0 when empty.
inline double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

// Samples strictly above the nearest-rank pct percentile's rank.
inline size_t SamplesBeyond(size_t count, double pct) {
  if (count == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(count)));
  rank = std::clamp<size_t>(rank, 1, count);
  return count - rank;
}

// A tail percentile is only reported when at least this many samples lie
// beyond it; with fewer it is a statement about a handful of outliers.
inline constexpr size_t kMinSamplesBeyondTail = 10;

inline std::optional<double> TailPercentile(const std::vector<double>& values,
                                            double pct) {
  if (SamplesBeyond(values.size(), pct) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return NearestRank(values, pct);
}

// Open-loop accounting for one request, all times in seconds on one
// clock. Latency runs from when the request was due, so a stall that
// delays later sends is charged to them; lateness is how far behind
// schedule the generator actually sent it.
struct DueTimes {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

inline double LatencyFromDueMs(const DueTimes& t) {
  return (t.done - t.due) * 1e3;
}
inline double LatenessMs(const DueTimes& t) {
  return std::max(0.0, t.sent - t.due) * 1e3;
}

// The generator fell behind when sends in the last quarter of the
// schedule were later than those in the first quarter by more than
// `slack_ms` at the median: the backlog grew instead of draining.
inline bool BacklogGrew(const std::vector<double>& lateness_ms,
                        double slack_ms) {
  if (lateness_ms.size() < 8) return false;
  const size_t quarter = lateness_ms.size() / 4;
  const std::vector<double> head(lateness_ms.begin(),
                                 lateness_ms.begin() + quarter);
  const std::vector<double> tail(lateness_ms.end() - quarter,
                                 lateness_ms.end());
  return Median(tail) > Median(head) + slack_ms;
}

// Failed, refused (RETRY_LATER) and mismatched ops all count as failed.
inline double FailShare(int64_t failed, int64_t attempted) {
  return attempted > 0
             ? static_cast<double>(failed) / static_cast<double>(attempted)
             : 0.0;
}

}  // namespace perfbench

#endif  // GRAPHSIG_PERFBENCH_STATS_H_
