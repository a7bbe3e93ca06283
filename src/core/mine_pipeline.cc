#include "core/mine_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "features/packed_vector_set.h"
#include "features/rwr.h"
#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "graph/containment_signature.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/pvalue_model.h"
#include "stream/tarone.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace graphsig::core::pipeline {

using features::NodeVector;
using graph::GraphDatabase;
using graph::Label;

namespace {

// Absolute floor under the group-relative FVMine support threshold:
// tiny groups would otherwise mine "patterns" supported by one region.
constexpr int64_t kMinSupportFloor = 3;
// A region set needs at least this many regions to be mined: a high
// relative threshold over one graph would degenerate to support 1 and
// enumerate everything.
constexpr size_t kMinSetSize = 3;
// Large region sets are evenly subsampled to this many regions before
// maximal FSM; the 80% relative threshold is computed on the sample. A
// pattern present in >= 80% of the set is present in ~80% of any even
// sample, so this bounds per-set mining cost without changing which
// cores surface.
constexpr size_t kMaxRegionsPerSet = 128;
// Cap on the patterns one region set's gSpan run may report.
constexpr size_t kMaxPatternsPerSet = 100000;

}  // namespace

std::vector<std::pair<Label, std::vector<int32_t>>> GroupByAnchorLabel(
    const std::vector<NodeVector>& node_vectors) {
  std::map<Label, std::vector<int32_t>> groups;
  for (size_t i = 0; i < node_vectors.size(); ++i) {
    groups[node_vectors[i].node_label].push_back(static_cast<int32_t>(i));
  }
  std::vector<std::pair<Label, std::vector<int32_t>>> ordered;
  ordered.reserve(groups.size());
  for (auto& [label, members] : groups) {
    ordered.emplace_back(label, std::move(members));
  }
  return ordered;
}

GroupMineOutput MineLabelGroup(const GraphSigConfig& config,
                               const std::vector<NodeVector>& node_vectors,
                               const std::vector<int32_t>& members) {
  GroupMineOutput out;
  // Group-relative frequency threshold (see GraphSigConfig).
  const int64_t min_support = std::max<int64_t>(
      kMinSupportFloor,
      static_cast<int64_t>(
          std::ceil(config.min_freq_percent / 100.0 * members.size())));
  if (static_cast<int64_t>(members.size()) < min_support) return out;
  features::PackedVectorSet population(
      node_vectors[members[0]].values.size());
  population.Reserve(members.size());
  for (int32_t idx : members) {
    population.Add(node_vectors[idx].values);
  }
  stats::FeaturePriors priors(population, config.rwr.bins);
  fvmine::FvMineConfig fv_config;
  fv_config.min_support = min_support;
  fv_config.max_pvalue = config.max_pvalue;
  fv_config.use_ceiling_prune = config.use_ceiling_prune;
  fv_config.tarone_alpha = config.tarone_alpha;
  fvmine::FvMineResult mined = fvmine::FvMine(population, priors, fv_config);
  out.vectors.reserve(mined.vectors.size());
  for (fvmine::SignificantVector& sv : mined.vectors) {
    for (int32_t& idx : sv.supporting) idx = members[idx];
    out.vectors.push_back(std::move(sv));
  }
  out.psis = std::move(mined.candidate_psis);
  return out;
}

int64_t RegionCutKey(int32_t graph_index, graph::VertexId node) {
  return (static_cast<int64_t>(graph_index) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(node));
}

RegionPlan PlanRegionTasks(
    const GraphSigConfig& /*config*/,
    const std::vector<std::pair<Label, fvmine::SignificantVector>>&
        significant,
    const std::vector<NodeVector>& node_vectors) {
  RegionPlan plan;
  for (size_t v = 0; v < significant.size(); ++v) {
    const auto& [label, sv] = significant[v];
    if (sv.supporting.size() < kMinSetSize) continue;
    RegionTask task;
    task.label = label;
    task.sv_index = static_cast<int32_t>(v);
    // Evenly subsample oversized sets (see kMaxRegionsPerSet).
    if (sv.supporting.size() > kMaxRegionsPerSet) {
      task.chosen.reserve(kMaxRegionsPerSet);
      const double stride = static_cast<double>(sv.supporting.size()) /
                            static_cast<double>(kMaxRegionsPerSet);
      for (size_t k = 0; k < kMaxRegionsPerSet; ++k) {
        task.chosen.push_back(
            sv.supporting[static_cast<size_t>(k * stride)]);
      }
    } else {
      task.chosen = sv.supporting;
    }
    for (int32_t vector_index : task.chosen) {
      const NodeVector& nv = node_vectors[vector_index];
      if (plan.cut_slot
              .emplace(RegionCutKey(nv.graph_index, nv.node),
                       static_cast<int32_t>(plan.cut_owner.size()))
              .second) {
        plan.cut_owner.push_back(vector_index);
      }
    }
    plan.num_region_requests += static_cast<int64_t>(task.chosen.size());
    plan.tasks.push_back(std::move(task));
  }
  plan.num_unique_regions = static_cast<int64_t>(plan.cut_owner.size());
  // Cache accounting: every request beyond the first for a (graph, node)
  // cut is a hit. Both totals fall out of the serial pass 1, so they are
  // deterministic work counters (DESIGN.md §12).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const cache_hits =
      registry.GetCounter("mine/region_cache_hits");
  static obs::Counter* const cache_misses =
      registry.GetCounter("mine/region_cache_misses");
  cache_hits->Add(static_cast<uint64_t>(plan.num_region_requests -
                                        plan.num_unique_regions));
  cache_misses->Add(static_cast<uint64_t>(plan.num_unique_regions));
  return plan;
}

graph::Graph CutRegion(const graph::Graph& host, int32_t graph_index,
                       graph::VertexId node, int cutoff_radius) {
  graph::Graph cut =
      host.InducedSubgraph(host.VerticesWithinRadius(node, cutoff_radius));
  cut.set_id(graph_index);
  return cut;
}

RegionTaskOutput MineRegionTask(const GraphSigConfig& config, Label label,
                                const fvmine::SignificantVector& sv,
                                std::span<const graph::Graph* const> regions) {
  RegionTaskOutput output;
  fsm::MinerConfig miner_config;
  miner_config.min_support = std::max<int64_t>(
      2,
      fsm::SupportFromPercent(config.fsg_freq_percent, regions.size()));
  miner_config.max_edges = config.fsm_max_edges;
  miner_config.max_patterns = kMaxPatternsPerSet;
  fsm::MineResult mined = fsm::MineMaximalGSpan(regions, miner_config);
  output.capped = !mined.completed;
  if (mined.patterns.empty()) {
    // False positive: similar vectors, no common structure (the line-13
    // pruning the paper describes).
    output.filtered = true;
    return output;
  }
  for (fsm::Pattern& pattern : mined.patterns) {
    if (pattern.graph.num_edges() < 1) continue;
    std::string key = fsm::CanonicalCode(pattern.graph);
    SignificantSubgraph candidate;
    candidate.subgraph = std::move(pattern.graph);
    candidate.vector = sv.vector;
    candidate.vector_pvalue = sv.p_value;
    candidate.vector_support = sv.support;
    candidate.anchor_label = label;
    candidate.set_size = static_cast<int64_t>(regions.size());
    candidate.set_support = pattern.support;
    output.dedup.emplace(std::move(key), std::move(candidate));
  }
  return output;
}

RegionTaskOutput MineRegionTask(const GraphSigConfig& config, Label label,
                                const fvmine::SignificantVector& sv,
                                const GraphDatabase& regions) {
  return MineRegionTask(config, label, sv, regions.GraphPointers());
}

void MergeRegionOutput(RegionTaskOutput&& output,
                       std::map<std::string, SignificantSubgraph>* dedup,
                       GraphSigStats* stats) {
  ++stats->num_sets_mined;
  if (output.filtered) ++stats->num_sets_filtered;
  if (output.capped) ++stats->num_sets_capped;
  // Which sets hit the cap is a pure function of the input, and merging
  // is serial, so this is a deterministic work counter (DESIGN.md §12).
  static obs::Counter* const sets_capped =
      obs::MetricsRegistry::Global().GetCounter("mine/region_sets_capped");
  sets_capped->Add(output.capped ? 1 : 0);
  for (auto& [key, candidate] : output.dedup) {
    auto it = dedup->find(key);
    if (it == dedup->end()) {
      dedup->emplace(key, std::move(candidate));
    } else if (candidate.vector_pvalue < it->second.vector_pvalue ||
               (candidate.vector_pvalue == it->second.vector_pvalue &&
                candidate.set_support > it->second.set_support)) {
      it->second = std::move(candidate);
    }
  }
}

void ComputeDbFrequencies(const GraphSigConfig& config,
                          const GraphDatabase& db,
                          std::vector<SignificantSubgraph>* subgraphs) {
  if (!config.compute_db_frequency) return;
  // Signatures rule most (pattern, graph) pairs out before VF2 runs.
  std::vector<graph::ContainmentSignature> db_signatures;
  db_signatures.reserve(db.size());
  for (const graph::Graph& g : db.graphs()) {
    db_signatures.push_back(graph::SignatureOf(g));
  }
  util::ParallelFor(config.num_threads, subgraphs->size(), [&](size_t i) {
    SignificantSubgraph& sg = (*subgraphs)[i];
    const graph::ContainmentSignature signature =
        graph::SignatureOf(sg.subgraph);
    int64_t frequency = 0;
    for (size_t j = 0; j < db.size(); ++j) {
      if (graph::SignatureAdmits(signature, db_signatures[j]) &&
          graph::IsSubgraphIsomorphic(sg.subgraph, db.graph(j))) {
        ++frequency;
      }
    }
    sg.db_frequency = frequency;
  });
}

void SortBySignificance(std::vector<SignificantSubgraph>* subgraphs) {
  std::sort(subgraphs->begin(), subgraphs->end(),
            [](const SignificantSubgraph& a, const SignificantSubgraph& b) {
              if (a.vector_pvalue != b.vector_pvalue) {
                return a.vector_pvalue < b.vector_pvalue;
              }
              return a.subgraph.num_edges() > b.subgraph.num_edges();
            });
}

namespace {

// Graph-space half (lines 8-13): fills result->subgraphs, the region
// stats and the fsm seconds.
void MineGraphHalf(const GraphSigConfig& config, const GraphDatabase& db,
                   const FeatureHalfOutput& half, GraphSigResult* result) {
  util::WallTimer timer;
  GS_TRACE_SPAN_NAMED(fsm_span, "mine/fsm");
  const std::vector<NodeVector>& node_vectors = half.node_vectors;
  // Each significant vector selects the regions it describes (lines
  // 8-13). Pass 1 (serial): sample each vector's regions and dedup the
  // (graph, node) cuts the samples need.
  const RegionPlan plan =
      PlanRegionTasks(config, half.significant, node_vectors);
  result->stats.num_region_requests = plan.num_region_requests;
  result->stats.num_unique_regions = plan.num_unique_regions;

  // Pass 2: compute every distinct cut once, in parallel (a cut is a
  // pure function of its key and bumps no work counter).
  std::vector<graph::Graph> cuts(plan.cut_owner.size());
  util::ParallelFor(config.num_threads, cuts.size(), [&](size_t i) {
    const NodeVector& nv = node_vectors[plan.cut_owner[i]];
    cuts[i] = CutRegion(db.graph(nv.graph_index), nv.graph_index, nv.node,
                        config.cutoff_radius);
  });

  // Pass 3: mine every region set as a pool task. A task borrows its
  // cuts: the slots stay put, read-only, until the barrier.
  std::vector<RegionTaskOutput> outputs(plan.tasks.size());
  util::ParallelFor(config.num_threads, plan.tasks.size(), [&](size_t t) {
    const RegionTask& task = plan.tasks[t];
    std::vector<const graph::Graph*> regions;
    regions.reserve(task.chosen.size());
    for (int32_t vector_index : task.chosen) {
      const NodeVector& nv = node_vectors[vector_index];
      regions.push_back(
          &cuts[plan.cut_slot.at(RegionCutKey(nv.graph_index, nv.node))]);
    }
    outputs[t] = MineRegionTask(config, task.label,
                                half.significant[task.sv_index].second,
                                regions);
  });

  // Merge in task (significant-vector) order, so ties resolve the same
  // way for any thread count.
  std::map<std::string, SignificantSubgraph> dedup;  // canonical -> best
  for (RegionTaskOutput& output : outputs) {
    MergeRegionOutput(std::move(output), &dedup, &result->stats);
  }
  result->subgraphs.reserve(dedup.size());
  for (auto& [key, subgraph] : dedup) {
    result->subgraphs.push_back(std::move(subgraph));
  }
  ComputeDbFrequencies(config, db, &result->subgraphs);
  SortBySignificance(&result->subgraphs);

  fsm_span.AddWork(static_cast<uint64_t>(result->stats.num_sets_mined));
  result->profile.fsm_seconds = timer.ElapsedSeconds();
}

}  // namespace

FeatureHalfOutput MineFeatureHalf(const GraphSigConfig& config,
                                  const GraphDatabase& db,
                                  const features::FeatureSpace* space,
                                  GraphSigResult* result) {
  FeatureHalfOutput out;
  util::WallTimer timer;
  result->feature_space =
      space != nullptr
          ? *space
          : features::FeatureSpace::ForChemicalDatabase(db,
                                                        config.top_k_atoms);
  // RWR featurization (lines 3-4).
  out.node_vectors = features::DatabaseToVectors(
      db, result->feature_space, config.rwr, config.num_threads);
  result->profile.rwr_seconds = timer.ElapsedSeconds();
  result->stats.num_vectors = static_cast<int64_t>(out.node_vectors.size());
  if (out.node_vectors.empty()) return out;

  timer.Restart();
  GS_TRACE_SPAN_NAMED(feature_span, "mine/feature");
  // Group by anchor label (line 6) and run FVMine per group (line 7).
  // Each group writes its own slot; the slots concatenate in label
  // order below, so the output is identical for any thread count.
  const auto groups = GroupByAnchorLabel(out.node_vectors);
  result->stats.num_groups = static_cast<int64_t>(groups.size());
  std::vector<GroupMineOutput> mined(groups.size());
  util::ParallelFor(config.num_threads, groups.size(), [&](size_t g) {
    mined[g] = MineLabelGroup(config, out.node_vectors, groups[g].second);
  });

  // Tarone: solve delta* over every evaluated state's psi, in group
  // label order, and keep only candidates that clear it.
  double max_pvalue = std::numeric_limits<double>::infinity();
  if (config.tarone_alpha > 0.0) {
    std::vector<double> psis;
    for (const GroupMineOutput& group : mined) {
      psis.insert(psis.end(), group.psis.begin(), group.psis.end());
    }
    const stream::TaroneResult tarone =
        stream::TaroneThreshold::Compute(std::move(psis),
                                         config.tarone_alpha);
    max_pvalue = tarone.delta_star;
    result->stats.tarone_delta_star = tarone.delta_star;
    result->stats.tarone_family_size =
        static_cast<int64_t>(tarone.family_size);
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (fvmine::SignificantVector& sv : mined[g].vectors) {
      if (sv.p_value > max_pvalue) {
        ++result->stats.tarone_filtered_vectors;
      } else {
        out.significant.emplace_back(groups[g].first, std::move(sv));
      }
    }
  }

  result->stats.num_significant_vectors =
      static_cast<int64_t>(out.significant.size());
  feature_span.AddWork(out.significant.size());
  result->profile.feature_seconds = timer.ElapsedSeconds();
  return out;
}

GraphSigResult Mine(const GraphSigConfig& config, const GraphDatabase& db) {
  GS_TRACE_SPAN("mine");
  util::WallTimer timer;
  GraphSigResult result;
  const FeatureHalfOutput half = MineFeatureHalf(config, db, nullptr, &result);
  MineGraphHalf(config, db, half, &result);
  result.profile.total_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace graphsig::core::pipeline
