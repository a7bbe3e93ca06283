// ingest_append: the write path. A base log holds one batch, mined and
// checkpointed. Set-up is the restart: IngestLog::Open plus
// IncrementalMiner::Restore. One op is one refresh, from batch to
// servable artifact: append a batch, IncrementalMiner::Mine, append the
// checkpoint, save the artifact. A cycle restarts from a fresh copy of
// the base log and runs one refresh, so every op does the same work and
// must end in the same artifact as a cold mine of the same database.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/graphsig.h"
#include "model/artifact.h"
#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "stream/incremental.h"
#include "stream/ingest_log.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using graphsig::stream::IncrementalMiner;
using graphsig::stream::IngestLog;
using graphsig::util::StrPrintf;

graphsig::core::GraphSigConfig IngestConfig(int num_threads) {
  graphsig::core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 1.0;
  config.num_threads = num_threads;
  return config;
}

struct Batches {
  std::vector<graphsig::graph::Graph> base;     // in the fixture's log
  std::vector<graphsig::graph::Graph> refresh;  // appended by every op
};

Batches MakeBatches(const Sizes& sizes) {
  const graphsig::graph::GraphDatabase screen = Screen(sizes);
  const auto& graphs = screen.graphs();
  if (sizes.base_graphs + sizes.batch_graphs > graphs.size()) {
    Die("ingest_append needs a larger screen");
  }
  const auto split = graphs.begin() + sizes.base_graphs;
  return {{graphs.begin(), split}, {split, split + sizes.batch_graphs}};
}

IngestLog OpenLog(const fs::path& path) {
  auto log = IngestLog::Open(path.string());
  Check(log.status(), "open " + path.string());
  return std::move(log).value();
}

std::vector<uint64_t> GraphGenerations(const IngestLog& log) {
  std::vector<uint64_t> generations;
  for (const graphsig::stream::LogBatch& batch : log.contents().batches) {
    generations.insert(generations.end(), batch.graphs.size(),
                       batch.generation);
  }
  return generations;
}

graphsig::model::ModelArtifact ArtifactOf(graphsig::graph::GraphDatabase db,
                                          graphsig::core::GraphSigResult result,
                                          uint64_t generation) {
  graphsig::model::ModelArtifact artifact;
  artifact.database = std::move(db);
  artifact.feature_space = std::move(result.feature_space);
  artifact.catalog = std::move(result.subgraphs);
  artifact.generation = generation;
  return artifact;
}

// What the traced run adds up across refreshes.
struct RefreshTotals {
  graphsig::stream::IncrementalMineStats inc;
  double checkpoint_bytes = 0;
  double artifact_bytes = 0;
};

// One refresh; false when a call failed.
bool Refresh(IngestLog* log, IncrementalMiner* miner,
             const std::vector<graphsig::graph::Graph>& batch,
             const fs::path& artifact_path, Tracer* tracer, int64_t op,
             RefreshTotals* totals, std::string* error) {
  Tracer::Scope root(tracer, "ingest.refresh", op);
  uint64_t generation = 0;
  {
    Tracer::Scope span(tracer, "stream.append", op);
    auto appended = log->AppendBatch(batch);
    if (!appended.ok()) {
      *error = appended.status().ToString();
      return false;
    }
    generation = appended.value();
  }
  graphsig::graph::GraphDatabase db = log->ReplayDatabase();
  const std::vector<uint64_t> generations = GraphGenerations(*log);
  graphsig::core::GraphSigResult result;
  graphsig::stream::IncrementalMineStats inc;
  {
    Tracer::Scope span(tracer, "stream.mine", op);
    result = miner->Mine(db, generations, generation, &inc);
  }
  std::string checkpoint;
  {
    Tracer::Scope span(tracer, "stream.checkpoint_encode", op);
    checkpoint = miner->Checkpoint();
  }
  {
    Tracer::Scope span(tracer, "stream.checkpoint_append", op);
    graphsig::util::Status appended =
        log->AppendCheckpoint(generation, checkpoint);
    if (!appended.ok()) {
      *error = appended.ToString();
      return false;
    }
  }
  {
    Tracer::Scope span(tracer, "model.save", op);
    graphsig::util::Status saved = graphsig::model::SaveArtifact(
        ArtifactOf(std::move(db), std::move(result), generation),
        artifact_path.string());
    if (!saved.ok()) {
      *error = saved.ToString();
      return false;
    }
  }
  totals->inc.graphs_featurized += inc.graphs_featurized;
  totals->inc.graphs_reused += inc.graphs_reused;
  totals->inc.fsm_tasks_mined += inc.fsm_tasks_mined;
  totals->inc.fsm_tasks_replayed += inc.fsm_tasks_replayed;
  totals->inc.cuts_computed += inc.cuts_computed;
  totals->inc.cuts_reused += inc.cuts_reused;
  totals->checkpoint_bytes += static_cast<double>(checkpoint.size());
  return true;
}

// Set-up: open the log and restore the miner from its checkpoint — the
// cost of a restart.
struct Restarted {
  IngestLog log;
  IncrementalMiner miner;
};

Restarted Restart(const fs::path& log_path, Tracer* tracer, int64_t op) {
  std::optional<IngestLog> log;
  {
    Tracer::Scope span(tracer, "stream.open", op);
    log.emplace(OpenLog(log_path));
  }
  IncrementalMiner miner(IngestConfig(1));
  {
    Tracer::Scope span(tracer, "stream.restore", op);
    auto restored = miner.Restore(log->contents().checkpoint);
    Check(restored.status(), "restore");
    if (!restored.value()) Die("the base checkpoint did not restore");
  }
  return {std::move(*log), std::move(miner)};
}

struct CycleResult {
  std::vector<double> setup_s;
  std::vector<double> refresh_ms;
  std::vector<std::pair<double, double>> ops;  // (start, ms) per refresh
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  double log_bytes = 0;
  double graphs = 0;
};

// One cycle: copy the base log, restart from it `setup_reps` times
// (timed: the set-up is sampled across the run as the refreshes are;
// Open only reads an intact log), then refresh from the last restart.
// The artifact must equal the cold-mine oracle byte for byte.
void RunCycle(const fs::path& fixture_dir, const fs::path& work_dir,
              const Batches& batches, const std::string& oracle,
              int setup_reps, Tracer* tracer, int64_t op,
              RefreshTotals* totals, CycleResult* out) {
  const fs::path log_path = work_dir / "cycle.log";
  const fs::path artifact_path = work_dir / "model.gsig";
  fs::copy_file(fixture_dir / "base.log", log_path,
                fs::copy_options::overwrite_existing);
  std::optional<Restarted> restarted;
  for (int rep = 0; rep < setup_reps; ++rep) {
    restarted.reset();
    const double setup_start = NowS();
    restarted.emplace(Restart(log_path, tracer, op));
    out->setup_s.push_back(NowS() - setup_start);
  }

  std::string error;
  const double t0 = NowS();
  const bool ok = Refresh(&restarted->log, &restarted->miner, batches.refresh,
                          artifact_path, tracer, op, totals, &error);
  out->refresh_ms.push_back((NowS() - t0) * 1e3);
  out->ops.emplace_back(t0, out->refresh_ms.back());
  ++out->attempted;
  if (!ok) {
    ++out->failed;
    out->failures.push_back("refresh failed: " + error);
    return;
  }
  totals->artifact_bytes += static_cast<double>(fs::file_size(artifact_path));
  if (ReadBytes(artifact_path) != oracle) {
    ++out->failed;
    out->failures.push_back(
        StrPrintf("refresh %lld: the artifact differs from the cold-mine "
                  "oracle",
                  static_cast<long long>(op)));
  }
  out->log_bytes = static_cast<double>(fs::file_size(log_path));
  out->graphs = static_cast<double>(restarted->log.ReplayDatabase().size());
}

// Cycles until `budget` seconds are spent, at least one.
CycleResult RunCycles(const Args& args, const Sizes& sizes,
                      const Batches& batches, const std::string& oracle,
                      double budget, Tracer* tracer, int64_t* op,
                      RefreshTotals* totals) {
  CycleResult result;
  const double start = NowS();
  double last_s = 0.0;
  while (KeepGoing(result.refresh_ms.size(), 1, start, budget, last_s)) {
    const double t0 = NowS();
    RunCycle(args.fixture_dir, args.work_dir, batches, oracle,
             sizes.ingest_setup_reps, tracer, (*op)++, totals, &result);
    last_s = NowS() - t0;
  }
  return result;
}

void AddCycleFailures(const CycleResult& cycles, Report* report) {
  report->attempted += cycles.attempted;
  report->failed += cycles.failed;
  for (const std::string& f : cycles.failures) report->Fail(f);
}

}  // namespace

void IngestAppendFixture(const Sizes& sizes, const fs::path& dir) {
  const Batches batches = MakeBatches(sizes);
  const graphsig::core::GraphSigConfig config =
      IngestConfig(graphsig::util::HardwareThreads());

  // The base log: one batch, mined, checkpointed. The checkpoint's
  // config fingerprint ignores the thread count, so a one-thread run
  // restores it.
  const fs::path base = dir / "base.log";
  fs::remove(base);
  IngestLog log = OpenLog(base);
  auto generation = log.AppendBatch(batches.base);
  Check(generation.status(), "append the base batch");
  IncrementalMiner miner(config);
  miner.Mine(log.ReplayDatabase(), GraphGenerations(log), generation.value());
  Check(log.AppendCheckpoint(generation.value(), miner.Checkpoint()),
        "append the base checkpoint");

  // The oracle: a cold GraphSig::Mine of the database a cycle's log
  // replays after its refresh.
  const fs::path oracle_log = dir / "oracle.log";
  fs::remove(oracle_log);
  IngestLog replay = OpenLog(oracle_log);
  Check(replay.AppendBatch(batches.base).status(), "append the base batch");
  Check(replay.AppendBatch(batches.refresh).status(),
        "append the refresh batch");
  graphsig::graph::GraphDatabase db = replay.ReplayDatabase();
  graphsig::core::GraphSigResult cold = graphsig::core::GraphSig(config).Mine(db);
  Check(graphsig::model::SaveArtifact(
            ArtifactOf(std::move(db), std::move(cold), replay.last_generation()),
            (dir / "oracle.gsig").string()),
        "save the oracle artifact");
  fs::remove(oracle_log);
}

void RunIngestAppend(const Args& args, const Sizes& sizes, Report* report) {
  const Batches batches = MakeBatches(sizes);
  const std::string oracle = ReadBytes(args.fixture_dir / "oracle.gsig");

  // Untraced cycles fill the budget (half of it in a traced run). Set-up,
  // the restart, takes milliseconds; every cycle times several and the
  // fastest is reported, the rule the refreshes use.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  RefreshTotals untraced_totals;
  int64_t op = 0;
  const CycleResult untraced = RunCycles(
      args, sizes, batches, oracle, budget, nullptr, &op, &untraced_totals);
  AddCycleFailures(untraced, report);
  const double p50 = Median(untraced.refresh_ms);
  for (const auto& [at, ms] : untraced.ops) {
    report->ops.emplace_back(at - report->start_s, ms);
  }
  report->Detail("refreshes", static_cast<double>(untraced.refresh_ms.size()),
                 "count");
  report->Detail("restarts", static_cast<double>(untraced.setup_s.size()),
                 "count");
  report->Detail("disk_bytes_per_graph",
                 Ratio(untraced.log_bytes, untraced.graphs), "B");
  report->Detail("log_bytes", untraced.log_bytes, "B");

  if (!args.trace) {
    const double fastest = Fastest(untraced.refresh_ms);
    SetEndToEnd(
        {{"setup_s", Fastest(untraced.setup_s)},
         {"op_ms", fastest},
         {"work_per_s",
          static_cast<double>(sizes.batch_graphs) / (fastest / 1e3)},
         {"peak_rss_mb", PeakRssMb()}},
        report);
    report->Detail("setup_p50_s", Median(untraced.setup_s), "s");
    report->Detail("p50_ms", p50, "ms");
    report->Detail(
        "mean_work_per_s",
        static_cast<double>(sizes.batch_graphs * untraced.refresh_ms.size()) /
            (Sum(untraced.refresh_ms) / 1e3),
        "1/s");
    report->Detail("fail_share", FailShare(report->failed, report->attempted),
                   "ratio");
    return;
  }

  Tracer tracer;
  RefreshTotals totals;
  const auto before = WorkValues();
  const CycleResult traced = RunCycles(args, sizes, batches, oracle, budget,
                                       &tracer, &op, &totals);
  const auto after = WorkValues();
  AddCycleFailures(traced, report);

  const double n = static_cast<double>(traced.refresh_ms.size());
  const double restarts = static_cast<double>(traced.setup_s.size());
  const auto span_totals = tracer.Totals();
  auto self = [&](const char* name) { return SelfMsPerOp(span_totals, name, n); };
  auto per_op = [&](const char* counter) {
    return CounterDelta(before, after, counter) / n;
  };
  const graphsig::stream::IncrementalMineStats& inc = totals.inc;
  const double traced_p50 = Median(tracer.DurationsMs("ingest.refresh"));
  SetPerLayer(
      {
          {"features.rwr_iterations", per_op("rwr/power_iterations")},
          {"fvmine.expansions", per_op("fvmine/expansions")},
          {"fsm.gspan_patterns", per_op("gspan/patterns")},
          {"graph.vf2_checks", per_op("graph/vf2_feasibility_checks")},
          {"graph.csr_builds", per_op("graph/csr_builds")},
          {"stream.open_ms", SelfMsPerOp(span_totals, "stream.open", restarts)},
          {"stream.restore_ms",
           SelfMsPerOp(span_totals, "stream.restore", restarts)},
          {"stream.append_ms", self("stream.append")},
          {"stream.mine_ms", self("stream.mine")},
          {"stream.checkpoint_encode_ms", self("stream.checkpoint_encode")},
          {"stream.checkpoint_append_ms", self("stream.checkpoint_append")},
          {"stream.checkpoint_bytes", totals.checkpoint_bytes / n},
          {"stream.task_replay",
           Ratio(static_cast<double>(inc.fsm_tasks_replayed),
                 static_cast<double>(inc.fsm_tasks_mined +
                                     inc.fsm_tasks_replayed))},
          {"stream.graph_reuse",
           Ratio(static_cast<double>(inc.graphs_reused),
                 static_cast<double>(inc.graphs_featurized +
                                     inc.graphs_reused))},
          {"stream.cut_reuse",
           Ratio(static_cast<double>(inc.cuts_reused),
                 static_cast<double>(inc.cuts_computed + inc.cuts_reused))},
          {"model.save_ms", self("model.save")},
          {"model.artifact_bytes", totals.artifact_bytes / n},
          {"ingest.unattributed_ms", self("ingest.refresh")},
          {"trace.overhead_ms", traced_p50 - p50},
          {"trace.unattributed_share",
           Ratio(self("ingest.refresh"),
                 Mean(tracer.DurationsMs("ingest.refresh")))},
      },
      report);
  report->Detail("traced_refreshes", n, "count");
  report->Detail("traced_p50_ms", traced_p50, "ms");
  report->Detail("untraced_p50_ms", p50, "ms");
  report->trace_json = TraceJson(tracer);
}

}  // namespace perfbench
