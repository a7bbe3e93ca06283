// perfbench_selftest: checks the benchmark's reporting rules on
// synthetic samples. Exits 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void NearestRankRule() {
  using perfbench::NearestRank;
  // 1..100: the p-th percentile is p itself.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(Near(NearestRank(v, 10), 10), "p10 of 1..100 is 10");
  Expect(Near(NearestRank(v, 50), 50), "p50 of 1..100 is 50");
  Expect(Near(NearestRank(v, 99), 99), "p99 of 1..100 is 99");
  Expect(Near(NearestRank(v, 100), 100), "p100 is the max");
  Expect(Near(perfbench::Median({3, 1, 2}), 2), "median of 3 samples");
  Expect(Near(perfbench::Median({4, 1, 3, 2}), 2),
         "nearest-rank median of 4 samples is the lower middle");
  Expect(Near(NearestRank({7, 3, 5}, 10), 3),
         "p10 of fewer than 10 samples is the fastest");
  Expect(Near(NearestRank({}, 50), 0), "empty sample reads 0");
  Expect(Near(perfbench::Fastest({7, 3, 5}), 3), "fastest op");
  Expect(Near(perfbench::Fastest({}), 0), "no op reads 0");
}

void TailNeedsTenBeyond() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  Expect(perfbench::SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond");
  Expect(perfbench::SamplesBeyond(999, 99) == 9, "999 samples: 9 beyond");
  std::vector<double> v(999, 1.0);
  Expect(!perfbench::TailPercentile(v, 99).has_value(),
         "p99 withheld with 9 samples beyond");
  v.push_back(5.0);
  const auto p99 = perfbench::TailPercentile(v, 99);
  Expect(p99.has_value() && Near(*p99, 1.0), "p99 reported at 10 beyond");
  std::vector<double> small(100, 2.0);
  Expect(perfbench::TailPercentile(small, 90).has_value(),
         "p90 of 100 samples has 10 beyond");
}

void DueTimeLatency() {
  // Due at 1.000 s, sent 5 ms late, done 2 ms after sending: latency
  // counts the generator's lateness too.
  perfbench::DueTimes t;
  t.due = 1.000;
  t.sent = 1.005;
  t.done = 1.007;
  Expect(Near(perfbench::LatencyFromDueMs(t), 7.0), "latency from due time");
  Expect(Near(perfbench::LatenessMs(t), 5.0), "lateness");
  t.sent = 0.999;  // early wake-ups are not negative lateness
  Expect(Near(perfbench::LatenessMs(t), 0.0), "early send is on time");

  std::vector<double> steady(100, 0.1);
  Expect(!perfbench::BacklogGrew(steady, 5.0), "flat lateness: no backlog");
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(i * 0.5);
  Expect(perfbench::BacklogGrew(growing, 5.0), "rising lateness: backlog");
}

void FailShareCountsEveryFailure() {
  // 3 errors + 2 RETRY_LATER + 1 mismatch out of 600 attempted.
  Expect(Near(perfbench::FailShare(3 + 2 + 1, 600), 0.01), "fail share");
  Expect(Near(perfbench::FailShare(0, 0), 0.0), "nothing attempted");
}

void SelfTimeSubtractsChildren() {
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope root(&tracer, "root", 7);
    { perfbench::Tracer::Scope a(&tracer, "child", 7); }
    { perfbench::Tracer::Scope b(&tracer, "child", 7); }
  }
  { perfbench::Tracer::Scope none(nullptr, "ignored", 0); }
  const auto& spans = tracer.spans();
  Expect(spans.size() == 3, "null tracer records nothing");
  Expect(spans[0].parent == -1 && spans[1].parent == 0 &&
             spans[2].parent == 0,
         "children point at the open span");
  Expect(spans[1].request == 7, "spans carry the request id");
  const auto totals = tracer.Totals();
  const perfbench::SpanTotals& root = totals.at("root");
  const perfbench::SpanTotals& child = totals.at("child");
  Expect(child.calls == 2, "two child calls");
  Expect(Near(root.self_ms, root.total_ms - child.total_ms),
         "root self time is its span minus its children");
}

}  // namespace

int main() {
  NearestRankRule();
  TailNeedsTenBeyond();
  DueTimeLatency();
  FailShareCountsEveryFailure();
  SelfTimeSubtractsChildren();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
