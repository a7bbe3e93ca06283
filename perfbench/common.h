#ifndef GRAPHSIG_PERFBENCH_COMMON_H_
#define GRAPHSIG_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark: workload sizes, flags, the report the
// run prints, and small timing and I/O helpers.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "graph/graph_database.h"
#include "perfbench/trace.h"
#include "util/status.h"

namespace perfbench {

namespace fs = std::filesystem;

// Workload sizes. Inputs are pinned so that a run's cost does not depend
// on --seed: the mine and ingest inputs come from the seed-3 MCF-7 screen
// the ROADMAP baseline uses, and --seed picks serve_mix's request stream.
// --tiny shrinks everything for the self-test.
struct Sizes {
  size_t screen = 400;
  uint64_t screen_seed = 3;
  // mine_cold
  int mine_radius = 4;
  int mine_setup_reps = 40;  // before the first mine and after each
  int mine_min_ops = 3;
  // serve_mix
  int serve_radius = 4;
  // Held-out queries come from the screen recipe under a seed no fixture
  // mines, and the approx pool is drawn with the same seed. Both pools
  // are the same for every --seed, which picks only the request stream
  // (the order and the exact/approx mix), so a run's cost does not hinge
  // on which molecules or patterns one seed drew.
  uint64_t held_out_seed = 1000003;
  size_t query_pool = 512;     // distinct held-out molecules
  size_t approx_pool = 64;     // distinct (pattern, seed) approx requests
  uint32_t approx_samples = 32;
  double offered_rate = 800.0;  // open loop, requests per second
  int open_loop_connections = 8;
  int serve_setup_min_reps = 20;  // per batch of set-ups
  // ingest_append
  size_t base_graphs = 150;
  size_t batch_graphs = 10;
  int ingest_setup_reps = 5;  // restarts per cycle
};

Sizes SizesFor(bool tiny);

// The seeded MCF-7 screen every workload draws from.
graphsig::graph::GraphDatabase Screen(const Sizes& sizes);

struct Args {
  std::string mode;  // "fixture" or "run"
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  fs::path fixture_dir;
  fs::path work_dir;
  fs::path results_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line
  std::vector<Metric> details;  // human-readable report and record only
  std::vector<std::string> notes;
  std::string trace_json;  // spans and work values of a traced run
  // Every timed op of the untraced phase: when it started (s since
  // start_s) and how long it took (ms). Written to the results file.
  std::vector<std::pair<double, double>> ops;
  double start_s = 0.0;

  void Detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  // A failed op or a failed output check.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

// The metric names and units BENCHMARK.json declares, in its order.
using MetricNames = std::vector<std::pair<std::string, std::string>>;
const MetricNames& EndToEndNames();
const MetricNames& PerLayerNames();
// Per-layer values derived by subtracting one measurement from another
// rather than read off one span.
bool IsDerived(const std::string& name);

// Sets report->metrics to the end-to-end (or per-layer) names in order,
// taking each value from `values`; a per-layer name a workload never
// reaches reads 0. An end-to-end name missing from `values` is a bug.
void SetEndToEnd(const std::map<std::string, double>& values, Report* report);
void SetPerLayer(const std::map<std::string, double>& values, Report* report);

// Spans plus obs::MetricsRegistry::WorkValues(), as JSON.
std::string TraceJson(const Tracer& tracer);

// Helpers.
double NowS();
// Whether to start another op: always until `min_ops` are done, then
// only while one more op as long as the last (`last_op_s`) still ends
// within `budget` seconds of `start`, so a run stays within --seconds.
bool KeepGoing(size_t done, size_t min_ops, double start, double budget,
               double last_op_s);
[[noreturn]] void Die(const std::string& message);
void Check(const graphsig::util::Status& status, const std::string& what);
std::string ReadBytes(const fs::path& path);
void WriteBytes(const fs::path& path, const std::string& bytes);
double PeakRssMb();
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);
double Ratio(double num, double den);
std::map<std::string, uint64_t> WorkValues();
double CounterDelta(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const std::string& name);
// Mean self time per op of the spans called `name` (0 when none ran).
double SelfMsPerOp(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name, double ops);

// The workloads. A fixture builds untimed inputs into `dir`; a run
// measures, checks outputs and fills `report`.
void MineColdFixture(const Sizes& sizes, const fs::path& dir);
void RunMineCold(const Args& args, const Sizes& sizes, Report* report);
void ServeMixFixture(const Sizes& sizes, const fs::path& dir);
void RunServeMix(const Args& args, const Sizes& sizes, Report* report);
void IngestAppendFixture(const Sizes& sizes, const fs::path& dir);
void RunIngestAppend(const Args& args, const Sizes& sizes, Report* report);

}  // namespace perfbench

#endif  // GRAPHSIG_PERFBENCH_COMMON_H_
