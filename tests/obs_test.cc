#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/graphsig.h"
#include "data/datasets.h"
#include "data/generator.h"
#include "data/motifs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace graphsig::obs {
namespace {

// ---------------------------------------------------------------------
// Counter concurrency: 8 threads x 10000 increments must land on the
// exact total (run under TSan in CI; a data race or a lost update shows
// up here).

TEST(ObsCounterTest, ConcurrentAddsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test/concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounterTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test/one");
  Counter* b = registry.GetCounter("test/one");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);
  // Advisory namespace is separate from the work-counter namespace.
  Counter* advisory = registry.GetAdvisoryCounter("test/advisory");
  EXPECT_NE(advisory, a);
}

TEST(ObsGaugeTest, UpdateMaxIsMonotonic) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test/hwm");
  gauge->UpdateMax(5);
  gauge->UpdateMax(3);  // below the high-water mark: ignored
  EXPECT_EQ(gauge->value(), 5);
  gauge->UpdateMax(9);
  EXPECT_EQ(gauge->value(), 9);
  gauge->Set(-2);
  EXPECT_EQ(gauge->value(), -2);
}

// ---------------------------------------------------------------------
// Histogram bucket boundaries: bucket i counts v <= bounds[i], with one
// overflow bucket past bounds.back().

TEST(ObsHistogramTest, BucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/hist", {10, 100});
  h->Observe(0);    // bucket 0 (v <= 10)
  h->Observe(10);   // bucket 0: boundary value stays in its bucket
  h->Observe(11);   // bucket 1 (10 < v <= 100)
  h->Observe(100);  // bucket 1
  h->Observe(101);  // overflow bucket
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->total_count(), 5u);
  EXPECT_EQ(h->sum(), 0u + 10 + 11 + 100 + 101);
  // Re-registration with identical bounds returns the same histogram.
  EXPECT_EQ(registry.GetHistogram("test/hist", {10, 100}), h);
}

// ---------------------------------------------------------------------
// Trace spans: the macro registers the path once, aggregates calls and
// work across invocations, and nested spans each report to their own
// path (paths are literals, not derived from runtime nesting — that is
// what keeps them identical across thread counts).

void InnerTracedFunction(MetricsRegistry* /*unused*/) {
  GS_TRACE_SPAN("test/outer/inner");
}

uint64_t OuterTracedFunction() {
  GS_TRACE_SPAN_NAMED(span, "test/outer");
  InnerTracedFunction(nullptr);
  InnerTracedFunction(nullptr);
  span.AddWork(7);
  return 7;
}

TEST(ObsTraceTest, SpansAggregateCallsAndWork) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  OuterTracedFunction();
  OuterTracedFunction();
  SpanStats* outer = registry.GetSpan("test/outer");
  SpanStats* inner = registry.GetSpan("test/outer/inner");
  EXPECT_EQ(outer->calls(), 2u);
  EXPECT_EQ(outer->work(), 14u);
  EXPECT_EQ(inner->calls(), 4u);
  EXPECT_EQ(inner->work(), 0u);
  // Wall time is advisory and scheduling-dependent, but a completed
  // span records a nonnegative duration and one RecordCall per scope.
  registry.Reset();
  EXPECT_EQ(outer->calls(), 0u);
  EXPECT_EQ(outer->work(), 0u);
}

// ---------------------------------------------------------------------
// JSON dump: byte-stable golden on a private registry.

TEST(ObsDumpTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("b/two")->Add(5);
  registry.GetCounter("a/one")->Add(1);
  registry.GetSpan("phase")->RecordCall(/*wall_ns=*/0, /*work=*/9);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a/one\": 1,\n"
      "    \"b/two\": 5\n"
      "  },\n"
      "  \"spans\": {\n"
      "    \"phase\": {\"calls\": 1, \"work\": 9}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.DumpJson({/*include_advisory=*/false}), expected);
}

TEST(ObsDumpTest, AdvisorySectionIsFenced) {
  MetricsRegistry registry;
  registry.GetCounter("work/units")->Add(2);
  registry.GetAdvisoryCounter("sched/tasks")->Add(3);
  registry.GetGauge("sched/depth")->Set(4);
  registry.GetHistogram("sched/lat", {10})->Observe(7);

  const std::string with = registry.DumpJson();
  EXPECT_NE(with.find("\"advisory\""), std::string::npos);
  EXPECT_NE(with.find("\"sched/tasks\": 3"), std::string::npos);
  EXPECT_NE(with.find("\"sched/depth\": 4"), std::string::npos);
  EXPECT_NE(with.find("\"sched/lat\""), std::string::npos);

  const std::string without = registry.DumpJson({false});
  EXPECT_EQ(without.find("\"advisory\""), std::string::npos);
  EXPECT_EQ(without.find("sched/"), std::string::npos);
  EXPECT_NE(without.find("\"work/units\": 2"), std::string::npos);

  // WorkValues flattens the same deterministic view.
  auto values = registry.WorkValues();
  EXPECT_EQ(values.size(), 1u);
  EXPECT_EQ(values.at("work/units"), 2u);
}

// ---------------------------------------------------------------------
// The headline contract: for a fixed seed, the deterministic dump of a
// full mining run is byte-identical across thread counts. This is what
// lets scripts/check_counters.py gate CI on a single-core runner.

graph::GraphDatabase SeededDb() {
  util::Rng rng(4242);
  data::MoleculeGenConfig gen;
  gen.min_atoms = 8;
  gen.max_atoms = 14;
  const graph::Graph motif = data::AztCoreMotif();
  graph::GraphDatabase db;
  for (int i = 0; i < 40; ++i) {
    graph::Graph g = data::GenerateMolecule(gen, &rng);
    g.set_id(i);
    if (i < 10) {
      data::PlantMotif(&g, motif, &rng);
      g.set_tag(1);
    }
    db.Add(std::move(g));
  }
  return db;
}

std::string MineAndDump(const graph::GraphDatabase& db, int threads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  core::GraphSigConfig config;
  config.cutoff_radius = 4;
  config.min_freq_percent = 1.0;
  config.max_pvalue = 0.05;
  config.fsm_max_edges = 15;
  config.num_threads = threads;
  core::GraphSig miner(config);
  miner.Mine(db);
  return registry.DumpJson({/*include_advisory=*/false});
}

TEST(ObsDeterminismTest, WorkCountersIdenticalAcrossThreadCounts) {
  const graph::GraphDatabase db = SeededDb();
  const std::string dump1 = MineAndDump(db, 1);
  const std::string dump4 = MineAndDump(db, 4);
  const std::string dump8 = MineAndDump(db, 8);
  EXPECT_EQ(dump1, dump4);
  EXPECT_EQ(dump1, dump8);
  // The dump is not trivially empty: the mine must have reported work.
  EXPECT_NE(dump1.find("fvmine/expansions"), std::string::npos);
  EXPECT_NE(dump1.find("rwr/power_iterations"), std::string::npos);
  EXPECT_NE(dump1.find("mine/region_cache_misses"), std::string::npos);
  EXPECT_NE(dump1.find("\"mine/fsm/gspan\""), std::string::npos);
}

}  // namespace
}  // namespace graphsig::obs
