#ifndef GRAPHSIG_OBS_METRICS_H_
#define GRAPHSIG_OBS_METRICS_H_

// Process-wide observability registry: named monotonic counters, gauges,
// fixed-bucket histograms, and trace-span aggregates (see obs/trace.h).
//
// The registry exists to answer "where did this run spend its work" at
// runtime, and to give CI a perf-regression signal that survives noisy
// single-core runners. That forces a hard split between two kinds of
// numbers, and the split is the design:
//
//   * WORK COUNTERS (GetCounter) count deterministic units of algorithmic
//     work — FVMine expansions, RWR iterations, region-cut cache misses,
//     wire frames by type. For a fixed seed they are byte-identical
//     across runs and across --threads=1/4/8 (tests/obs_test.cc asserts
//     this; scripts/check_counters.py gates CI on it). Never count
//     anything scheduling-dependent here.
//
//   * ADVISORY metrics (GetAdvisoryCounter / GetGauge / GetHistogram,
//     plus span wall_ns) record whatever the scheduler happened to do:
//     thread-pool task executions, queue depths, latencies, reply-size
//     distributions. Useful for humans, useless for CI assertions —
//     DumpJson() fences them into an "advisory" section that
//     check_counters.py never reads, and can omit them entirely
//     (include_advisory = false) so the determinism tests can diff dumps
//     bytewise.
//
// Concurrency: the fast path (Add/Set/Observe on a metric you already
// hold) is a relaxed atomic op, no locks. The registry map itself is
// guarded by util::Mutex with thread-safety annotations; Get* takes the
// lock once, after which the returned pointer is stable for the process
// lifetime (metrics are never destroyed, only Reset() to zero). Hot
// loops should not even pay the relaxed-atomic cost per step: accumulate
// into a local uint64_t and flush once per call, which also keeps the
// totals deterministic regardless of interleaving.
//
// Naming scheme (DESIGN.md §12): "<subsystem>/<what>", lowercase,
// '/'-separated, e.g. "fvmine/expansions", "net/frames/query". The name
// is the identity: two Get* calls with the same name return the same
// metric; the same name with a different kind is a programming error
// (GS_CHECK).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace graphsig::obs {

// Monotonic counter. Add() is lock-free (relaxed atomic); totals from
// concurrent adders are exact.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void ResetValue() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value, plus a monotonic-max mode for
// high-water marks. Advisory by construction.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  // Raises the gauge to `v` if above the current value (CAS loop).
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void ResetValue() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram over uint64 samples (latencies, sizes). Bucket
// i counts samples v with v <= bounds[i] (and > bounds[i-1]); one
// overflow bucket catches v > bounds.back(). Bounds are fixed at
// registration so concurrent Observe() is a single relaxed atomic add.
class Histogram {
 public:
  void Observe(uint64_t v) {
    size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {  // lower_bound over the sorted bucket bounds
      const size_t mid = (lo + hi) / 2;
      if (bounds_[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    buckets_[lo].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t total_count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<uint64_t> bounds);
  void ResetValue();

  const std::vector<uint64_t> bounds_;                // ascending, nonempty
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_{0};
};

// Aggregate for one trace-span path: deterministic {calls, work units}
// plus advisory wall time. Written by obs::TraceSpan (trace.h).
class SpanStats {
 public:
  void RecordCall(uint64_t wall_ns, uint64_t work) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    work_.fetch_add(work, std::memory_order_relaxed);
    wall_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t work() const { return work_.load(std::memory_order_relaxed); }
  uint64_t wall_ns() const {
    return wall_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  SpanStats() = default;
  void ResetValue() {
    calls_.store(0, std::memory_order_relaxed);
    work_.store(0, std::memory_order_relaxed);
    wall_ns_.store(0, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> work_{0};   // deterministic work units
  std::atomic<uint64_t> wall_ns_{0};  // advisory
};

struct DumpOptions {
  // When false, the dump contains only the deterministic sections
  // ("counters" and "spans" calls/work) — the byte-comparable payload
  // the determinism tests and the CI baseline use.
  bool include_advisory = true;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide instance every GS_TRACE_SPAN / instrumented
  // subsystem reports into. Tests may construct private registries.
  static MetricsRegistry& Global();

  // Deterministic work counter (see the header comment for the
  // contract). The returned pointer is valid for the registry lifetime.
  Counter* GetCounter(std::string_view name) GS_EXCLUDES(mu_);
  // Scheduling-dependent counter; dumped under "advisory".
  Counter* GetAdvisoryCounter(std::string_view name) GS_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) GS_EXCLUDES(mu_);
  // `bounds` must be nonempty and strictly ascending; re-registration
  // with different bounds is a programming error.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<uint64_t> bounds) GS_EXCLUDES(mu_);
  SpanStats* GetSpan(std::string_view path) GS_EXCLUDES(mu_);

  // Pretty JSON (2-space indent), keys sorted, trailing newline —
  // byte-stable for identical metric values.
  std::string DumpJson(const DumpOptions& options = {}) const
      GS_EXCLUDES(mu_);

  // Flat view of the deterministic values: every work counter, plus
  // "span/<path>/calls" and "span/<path>/work". What the determinism
  // tests compare.
  std::map<std::string, uint64_t> WorkValues() const GS_EXCLUDES(mu_);

  // Zeroes every registered value. Metric pointers stay valid; safe
  // against concurrent writers (they just land in the fresh epoch).
  void Reset() GS_EXCLUDES(mu_);

 private:
  template <typename T>
  using MetricMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  mutable util::Mutex mu_;
  MetricMap<Counter> counters_ GS_GUARDED_BY(mu_);
  MetricMap<Counter> advisory_counters_ GS_GUARDED_BY(mu_);
  MetricMap<Gauge> gauges_ GS_GUARDED_BY(mu_);
  MetricMap<Histogram> histograms_ GS_GUARDED_BY(mu_);
  MetricMap<SpanStats> spans_ GS_GUARDED_BY(mu_);
};

}  // namespace graphsig::obs

#endif  // GRAPHSIG_OBS_METRICS_H_
