// perfbench: the repository benchmark (README.md beside this file says
// why each workload exists and which metric each layer should move).
//
//   perfbench fixture --workload=W --fixture-dir=DIR [--tiny]
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1
//                 --fixture-dir=DIR --work-dir=DIR --results-dir=DIR
//                 [--tiny] [--git-sha=SHA] [--source-digest=HEX]
//
// `fixture` builds a workload's untimed inputs (the screen file, the
// served artifact, the base ingest log and the oracles) in a process of
// its own, so a run's peak RSS is the workload's alone. `run` times the
// workload, checks its outputs, and prints a human-readable report, one
// "record" line, and last one JSON line: the end-to-end metrics with
// --trace=0, the per-layer metrics of the traced run with --trace=1.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "data/datasets.h"
#include "obs/metrics.h"
#include "perfbench/common.h"
#include "util/parallel.h"
#include "util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using graphsig::util::StrPrintf;

Sizes SizesFor(bool tiny) {
  Sizes s;
  if (!tiny) return s;
  s.screen = 80;
  s.mine_radius = 3;
  s.mine_setup_reps = 5;
  s.mine_min_ops = 2;
  s.serve_radius = 3;
  s.query_pool = 12;
  s.approx_pool = 6;
  s.offered_rate = 100.0;
  s.open_loop_connections = 4;
  s.serve_setup_min_reps = 2;
  s.base_graphs = 30;
  s.batch_graphs = 5;
  s.ingest_setup_reps = 2;
  return s;
}

graphsig::graph::GraphDatabase Screen(const Sizes& sizes) {
  graphsig::data::DatasetOptions options;
  options.size = sizes.screen;
  options.seed = sizes.screen_seed;
  return graphsig::data::MakeCancerScreen("MCF-7", options);
}

const MetricNames& EndToEndNames() {
  static const MetricNames names = {
      {"setup_s", "s"},
      {"op_ms", "ms"},
      {"work_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const MetricNames& PerLayerNames() {
  static const MetricNames names = {
      {"features.rwr_ms", "ms"},
      {"features.rwr_iterations", "count"},
      {"features.query_rwr_ms", "ms"},
      {"fvmine.ms", "ms"},
      {"fvmine.expansions", "count"},
      {"core.plan_ms", "ms"},
      {"core.cut_ms", "ms"},
      {"core.cut_reuse", "ratio"},
      {"core.merge_ms", "ms"},
      {"core.dedup_yield", "ratio"},
      {"fsm.region_ms", "ms"},
      {"fsm.gspan_patterns", "count"},
      {"fsm.maximal_yield", "ratio"},
      {"graph.dbfreq_ms", "ms"},
      {"graph.vf2_checks", "count"},
      {"graph.csr_builds", "count"},
      {"serve.load_ms", "ms"},
      {"serve.profile_ms", "ms"},
      {"serve.match_ms", "ms"},
      {"serve.iso_calls", "count"},
      {"serve.match_yield", "ratio"},
      {"serve.pruned_share", "ratio"},
      {"classify.score_ms", "ms"},
      {"classify.knn_ms", "ms"},
      {"approx.support_ms", "ms"},
      {"approx.iso_tests", "count"},
      {"net.rpc_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.queue_ms", "ms"},
      {"net.retry_later", "count"},
      {"stream.open_ms", "ms"},
      {"stream.restore_ms", "ms"},
      {"stream.append_ms", "ms"},
      {"stream.mine_ms", "ms"},
      {"stream.checkpoint_encode_ms", "ms"},
      {"stream.checkpoint_append_ms", "ms"},
      {"stream.checkpoint_bytes", "B"},
      {"stream.task_replay", "ratio"},
      {"stream.graph_reuse", "ratio"},
      {"stream.cut_reuse", "ratio"},
      {"model.save_ms", "ms"},
      {"model.artifact_bytes", "B"},
      {"mine.unattributed_ms", "ms"},
      {"serve.unattributed_ms", "ms"},
      {"ingest.unattributed_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.unattributed_share", "ratio"},
  };
  return names;
}

bool IsDerived(const std::string& name) {
  return name == "classify.knn_ms" || name == "net.overhead_ms" ||
         name == "net.queue_ms" || name == "trace.overhead_ms";
}

void SetEndToEnd(const std::map<std::string, double>& values,
                 Report* report) {
  report->metrics.clear();
  for (const auto& [name, unit] : EndToEndNames()) {
    auto it = values.find(name);
    if (it == values.end()) Die("end-to-end metric not measured: " + name);
    report->metrics.push_back({name, it->second, unit});
  }
}

void SetPerLayer(const std::map<std::string, double>& values,
                 Report* report) {
  report->metrics.clear();
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = values.find(name);
    report->metrics.push_back(
        {name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : PerLayerNames()) known |= entry.first == name;
    if (!known) Die("per-layer metric not declared: " + name);
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrPrintf("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of the measured value: a comparison between runs needs
// the raw number, not a rounded one.
std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrPrintf("%.17g", v) : "null";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrPrintf("%s%s: {\"value\": %s, \"unit\": %s}",
                      i == 0 ? "" : ", ", JsonString(metrics[i].name).c_str(),
                      JsonNumber(metrics[i].value).c_str(),
                      JsonString(metrics[i].unit).c_str());
  }
  return json + "}";
}

}  // namespace

std::string TraceJson(const Tracer& tracer) {
  std::string json = "{\"spans\": [";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    json += StrPrintf(
        "%s\n  {\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld, "
        "\"parent\": %d, \"request\": %lld}",
        first ? "" : ",", JsonString(s.name).c_str(),
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
        s.parent, static_cast<long long>(s.request));
    first = false;
  }
  json += "\n], \"work_values\": {";
  first = true;
  for (const auto& [name, value] : WorkValues()) {
    json += StrPrintf("%s\n  %s: %llu", first ? "" : ",",
                      JsonString(name).c_str(),
                      static_cast<unsigned long long>(value));
    first = false;
  }
  return json + "\n}}";
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool KeepGoing(size_t done, size_t min_ops, double start, double budget,
               double last_op_s) {
  return done < min_ops || NowS() - start + last_op_s <= budget;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void Check(const graphsig::util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.flush();
  if (!out) Die("cannot write " + path.string());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, uint64_t> WorkValues() {
  return graphsig::obs::MetricsRegistry::Global().WorkValues();
}

double CounterDelta(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0.0;
  auto b = before.find(name);
  return static_cast<double>(a->second -
                             (b == before.end() ? 0 : b->second));
}

double SelfMsPerOp(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name, double ops) {
  auto it = totals.find(name);
  return it == totals.end() || ops <= 0.0 ? 0.0 : it->second.self_ms / ops;
}

namespace {

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Die("usage: perfbench fixture|run --workload=W ...");
  args.mode = argv[1];
  if (args.mode != "fixture" && args.mode != "run") {
    Die("unknown mode '" + args.mode + "' (want fixture or run)");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Die("bad argument: " + arg);
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const std::string value =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    if (name == "workload") {
      args.workload = value;
    } else if (name == "seed") {
      args.seed = std::stoull(value);
    } else if (name == "seconds") {
      args.seconds = std::stod(value);
    } else if (name == "trace") {
      args.trace = value == "1";
    } else if (name == "tiny") {
      args.tiny = value == "1";
    } else if (name == "fixture-dir") {
      args.fixture_dir = value;
    } else if (name == "work-dir") {
      args.work_dir = value;
    } else if (name == "results-dir") {
      args.results_dir = value;
    } else if (name == "git-sha") {
      args.git_sha = value;
    } else if (name == "source-digest") {
      args.source_digest = value;
    } else {
      Die("unknown flag --" + name);
    }
  }
  if (args.workload != "mine_cold" && args.workload != "serve_mix" &&
      args.workload != "ingest_append") {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.fixture_dir.empty()) Die("--fixture-dir is required");
  if (args.mode == "run" &&
      (args.work_dir.empty() || args.results_dir.empty())) {
    Die("--work-dir and --results-dir are required");
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

void PrintReport(const Args& args, const Report& report) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? " tiny" : "");
  for (const Metric& m : report.metrics) {
    std::printf("  %-30s %16.6f %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), IsDerived(m.name) ? "  (derived)" : "");
  }
  std::printf("  details:\n");
  for (const Metric& m : report.details) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

std::string RecordJson(const Args& args, const Report& report) {
  std::string json = StrPrintf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"tiny\": %s, \"nproc\": %u, \"hardware_threads\": %d, "
      "\"git_sha\": %s, \"source_digest\": %s, \"build_type\": %s, "
      "\"input_seeds\": {\"screen\": %llu, \"held_out_queries\": %llu, "
      "\"request_stream\": %llu}, "
      "\"details\": %s, \"notes\": [",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      args.tiny ? "true" : "false", std::thread::hardware_concurrency(),
      graphsig::util::HardwareThreads(), JsonString(args.git_sha).c_str(),
      JsonString(args.source_digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(SizesFor(args.tiny).screen_seed),
      static_cast<unsigned long long>(SizesFor(args.tiny).held_out_seed),
      static_cast<unsigned long long>(args.seed),
      MetricsJson(report.details).c_str());
  for (size_t i = 0; i < report.notes.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(report.notes[i]);
  }
  return json + "]}";
}

std::string ResultJson(const Report& report) {
  return StrPrintf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                   "\"metrics\": %s}",
                   report.correct ? "true" : "false",
                   static_cast<long long>(report.attempted),
                   static_cast<long long>(report.failed),
                   MetricsJson(report.metrics).c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Sizes sizes = SizesFor(args.tiny);
  if (args.mode == "fixture") {
    fs::create_directories(args.fixture_dir);
    if (args.workload == "mine_cold") MineColdFixture(sizes, args.fixture_dir);
    if (args.workload == "serve_mix") ServeMixFixture(sizes, args.fixture_dir);
    if (args.workload == "ingest_append") {
      IngestAppendFixture(sizes, args.fixture_dir);
    }
    return 0;
  }

  fs::create_directories(args.work_dir);
  fs::create_directories(args.results_dir);
  Report report;
  report.start_s = NowS();
  if (args.workload == "mine_cold") RunMineCold(args, sizes, &report);
  if (args.workload == "serve_mix") RunServeMix(args, sizes, &report);
  if (args.workload == "ingest_append") {
    RunIngestAppend(args, sizes, &report);
  }
  if (report.attempted < 1) report.Fail("no op ran");

  PrintReport(args, report);
  const std::string record = RecordJson(args, report);
  const std::string result = ResultJson(report);
  const std::string stem = StrPrintf(
      "%s-seed%llu-trace%d%s", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      args.tiny ? "-tiny" : "");
  std::string ops;
  for (const auto& [at, ms] : report.ops) {
    ops += StrPrintf("%s[%.6f, %.6f]", ops.empty() ? "" : ", ", at, ms);
  }
  WriteBytes(args.results_dir / (stem + ".json"),
             "{\"record\": " + record + ",\n\"result\": " + result +
                 ",\n\"ops\": [" + ops + "]}\n");
  if (args.trace) {
    WriteBytes(args.results_dir / (stem + "-spans.json"), report.trace_json);
  }
  std::printf("record %s\n", record.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
