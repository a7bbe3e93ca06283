// mine_cold: core::GraphSig::Mine at one thread over the seeded MCF-7
// screen. Set-up is reading and parsing the screen file; one op is one
// whole mine. The traced run recomposes Mine from core/mine_pipeline.h
// with a span around each call.

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/graphsig.h"
#include "core/mine_pipeline.h"
#include "core/report.h"
#include "data/smiles.h"
#include "features/feature_space.h"
#include "features/rwr.h"
#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using graphsig::util::StrPrintf;

graphsig::core::GraphSigConfig MineConfig(const Sizes& sizes) {
  graphsig::core::GraphSigConfig config;
  config.cutoff_radius = sizes.mine_radius;
  config.num_threads = 1;
  return config;
}

std::string CsvOf(const graphsig::core::GraphSigResult& result) {
  std::ostringstream os;
  graphsig::core::WriteCsv(result, os);
  return os.str();
}

graphsig::graph::GraphDatabase ParseScreenFile(const fs::path& path) {
  auto parsed = graphsig::data::ParseSmilesLines(ReadBytes(path));
  Check(parsed.status(), "parse " + path.string());
  return std::move(parsed).value();
}

struct RecomposeCounts {
  double region_requests = 0;
  double unique_regions = 0;
  double candidates = 0;  // maximal patterns the region tasks kept
  double unique = 0;      // left after the canonical merge
};

// GraphSig::Mine's phases composed in Mine's order at one thread, with
// a span around each call into the pipeline. Its CSV must equal Mine's.
graphsig::core::GraphSigResult RecomposeMine(
    const graphsig::core::GraphSigConfig& config,
    const graphsig::graph::GraphDatabase& db, Tracer* tracer, int64_t op,
    RecomposeCounts* counts) {
  namespace pipeline = graphsig::core::pipeline;
  using graphsig::features::NodeVector;
  if (config.tarone_alpha > 0.0 || config.num_threads != 1) {
    Die("the recomposed mine covers the one-thread, uncorrected path only");
  }
  Tracer::Scope root(tracer, "mine", op);
  graphsig::core::GraphSigResult result;
  std::vector<NodeVector> node_vectors;
  {
    Tracer::Scope span(tracer, "features.rwr", op);
    result.feature_space =
        graphsig::features::FeatureSpace::ForChemicalDatabase(
            db, config.top_k_atoms);
    node_vectors = graphsig::features::DatabaseToVectors(
        db, result.feature_space, config.rwr, 1);
  }
  if (node_vectors.empty()) return result;

  std::vector<
      std::pair<graphsig::graph::Label, graphsig::fvmine::SignificantVector>>
      significant;
  {
    Tracer::Scope span(tracer, "fvmine", op);
    for (const auto& [label, members] :
         pipeline::GroupByAnchorLabel(node_vectors)) {
      pipeline::GroupMineOutput group =
          pipeline::MineLabelGroup(config, node_vectors, members);
      for (auto& sv : group.vectors) {
        significant.emplace_back(label, std::move(sv));
      }
    }
  }

  pipeline::RegionPlan plan;
  {
    Tracer::Scope span(tracer, "core.plan", op);
    plan = pipeline::PlanRegionTasks(config, significant, node_vectors);
  }
  counts->region_requests += static_cast<double>(plan.num_region_requests);
  counts->unique_regions += static_cast<double>(plan.num_unique_regions);

  std::vector<graphsig::graph::Graph> cuts(plan.cut_owner.size());
  {
    Tracer::Scope span(tracer, "core.cut", op);
    for (size_t i = 0; i < cuts.size(); ++i) {
      const NodeVector& nv = node_vectors[plan.cut_owner[i]];
      cuts[i] = pipeline::CutRegion(db.graph(nv.graph_index), nv.graph_index,
                                    nv.node, config.cutoff_radius);
    }
  }

  std::vector<pipeline::RegionTaskOutput> outputs(plan.tasks.size());
  for (size_t t = 0; t < plan.tasks.size(); ++t) {
    Tracer::Scope span(tracer, "fsm.region", op);
    const pipeline::RegionTask& task = plan.tasks[t];
    graphsig::graph::GraphDatabase regions;
    regions.Reserve(task.chosen.size());
    for (int32_t vector_index : task.chosen) {
      const NodeVector& nv = node_vectors[vector_index];
      regions.Add(cuts[plan.cut_slot.at(
          pipeline::RegionCutKey(nv.graph_index, nv.node))]);
    }
    outputs[t] = pipeline::MineRegionTask(
        config, task.label, significant[task.sv_index].second, regions);
    counts->candidates += static_cast<double>(outputs[t].dedup.size());
  }

  {
    Tracer::Scope span(tracer, "core.merge", op);
    std::map<std::string, graphsig::core::SignificantSubgraph> dedup;
    for (pipeline::RegionTaskOutput& output : outputs) {
      pipeline::MergeRegionOutput(std::move(output), &dedup, &result.stats);
    }
    result.subgraphs.reserve(dedup.size());
    for (auto& [key, subgraph] : dedup) {
      result.subgraphs.push_back(std::move(subgraph));
    }
  }
  counts->unique += static_cast<double>(result.subgraphs.size());
  {
    Tracer::Scope span(tracer, "graph.dbfreq", op);
    pipeline::ComputeDbFrequencies(config, db, &result.subgraphs);
  }
  pipeline::SortBySignificance(&result.subgraphs);
  return result;
}

}  // namespace

void MineColdFixture(const Sizes& sizes, const fs::path& dir) {
  WriteBytes(dir / "screen.smi",
             graphsig::data::WriteSmilesLines(Screen(sizes)));
  // The reference CSV comes from the recomposed pipeline over the parsed
  // file, so every timed Mine is checked against a second composition of
  // the same units, made in another process.
  RecomposeCounts counts;
  WriteBytes(dir / "reference.csv",
             CsvOf(RecomposeMine(MineConfig(sizes),
                                 ParseScreenFile(dir / "screen.smi"), nullptr,
                                 0, &counts)));
}

void RunMineCold(const Args& args, const Sizes& sizes, Report* report) {
  const fs::path screen = args.fixture_dir / "screen.smi";
  const std::string reference = ReadBytes(args.fixture_dir / "reference.csv");
  const graphsig::core::GraphSigConfig config = MineConfig(sizes);

  // Set-up: read and parse the input. One parse takes milliseconds, so
  // it is repeated, before the first mine and after each, and the
  // fastest is reported, the rule the mines use; spreading the repeats
  // over the run samples the machine as the mines do.
  std::vector<double> setup_s;
  graphsig::graph::GraphDatabase db;
  auto parse = [&] {
    for (int rep = 0; rep < sizes.mine_setup_reps; ++rep) {
      const double t0 = NowS();
      db = ParseScreenFile(screen);
      setup_s.push_back(NowS() - t0);
    }
  };
  parse();

  // Untraced mines fill the budget; a traced run gives half of it to the
  // recomposition.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const size_t min_ops = args.trace ? 1 : sizes.mine_min_ops;
  std::vector<double> mine_ms;
  const double start = NowS();
  double last_s = 0.0;
  while (KeepGoing(mine_ms.size(), min_ops, start, budget, last_s)) {
    const double op_start = NowS();
    if (!mine_ms.empty()) parse();
    const double t0 = NowS();
    const graphsig::core::GraphSigResult result =
        graphsig::core::GraphSig(config).Mine(db);
    mine_ms.push_back((NowS() - t0) * 1e3);
    report->ops.emplace_back(t0 - report->start_s, mine_ms.back());
    ++report->attempted;
    if (CsvOf(result) != reference) {
      ++report->failed;
      report->Fail(StrPrintf("mine %zu: CSV differs from the reference",
                             mine_ms.size()));
    }
    last_s = NowS() - op_start;
  }
  const double p50 = Median(mine_ms);
  report->Detail("mines", static_cast<double>(mine_ms.size()), "count");
  report->Detail("graphs_per_mine", static_cast<double>(db.size()), "count");
  report->Detail("setup_reps", static_cast<double>(setup_s.size()), "count");

  if (!args.trace) {
    const double fastest = Fastest(mine_ms);
    SetEndToEnd({{"setup_s", Fastest(setup_s)},
                 {"op_ms", fastest},
                 {"work_per_s",
                  static_cast<double>(db.size()) / (fastest / 1e3)},
                 {"peak_rss_mb", PeakRssMb()}},
                report);
    report->Detail("setup_p50_s", Median(setup_s), "s");
    report->Detail("p50_ms", p50, "ms");
    report->Detail("mean_work_per_s",
                   static_cast<double>(db.size() * mine_ms.size()) /
                       (Sum(mine_ms) / 1e3),
                   "1/s");
    report->Detail("fail_share", FailShare(report->failed, report->attempted),
                   "ratio");
    return;
  }

  Tracer tracer;
  RecomposeCounts counts;
  const auto before = WorkValues();
  double ops = 0;
  const double traced_start = NowS();
  last_s = 0.0;
  while (KeepGoing(static_cast<size_t>(ops), 1, traced_start, budget,
                   last_s)) {
    const double t0 = NowS();
    const graphsig::core::GraphSigResult result = RecomposeMine(
        config, db, &tracer, static_cast<int64_t>(ops), &counts);
    ++ops;
    ++report->attempted;
    if (CsvOf(result) != reference) {
      ++report->failed;
      report->Fail("traced recomposition: CSV differs from the reference");
    }
    last_s = NowS() - t0;
  }
  const auto after = WorkValues();
  const auto totals = tracer.Totals();
  auto self = [&](const char* name) { return SelfMsPerOp(totals, name, ops); };
  auto per_op = [&](const char* counter) {
    return CounterDelta(before, after, counter) / ops;
  };
  const double traced_p50 = Median(tracer.DurationsMs("mine"));
  SetPerLayer(
      {
          {"features.rwr_ms", self("features.rwr")},
          {"features.rwr_iterations", per_op("rwr/power_iterations")},
          {"fvmine.ms", self("fvmine")},
          {"fvmine.expansions", per_op("fvmine/expansions")},
          {"core.plan_ms", self("core.plan")},
          {"core.cut_ms", self("core.cut")},
          {"core.cut_reuse", Ratio(counts.region_requests, counts.unique_regions)},
          {"core.merge_ms", self("core.merge")},
          {"core.dedup_yield", Ratio(counts.unique, counts.candidates)},
          {"fsm.region_ms", self("fsm.region")},
          {"fsm.gspan_patterns", per_op("gspan/patterns")},
          {"fsm.maximal_yield",
           Ratio(counts.candidates,
                 CounterDelta(before, after, "gspan/patterns"))},
          {"graph.dbfreq_ms", self("graph.dbfreq")},
          {"graph.vf2_checks", per_op("graph/vf2_feasibility_checks")},
          {"graph.csr_builds", per_op("graph/csr_builds")},
          {"mine.unattributed_ms", self("mine")},
          {"trace.overhead_ms", traced_p50 - p50},
          {"trace.unattributed_share",
           Ratio(self("mine"), Mean(tracer.DurationsMs("mine")))},
      },
      report);
  report->Detail("traced_mines", ops, "count");
  report->Detail("traced_p50_ms", traced_p50, "ms");
  report->Detail("untraced_p50_ms", p50, "ms");
  report->trace_json = TraceJson(tracer);
}

}  // namespace perfbench
