#ifndef GRAPHSIG_CORE_MINE_PIPELINE_H_
#define GRAPHSIG_CORE_MINE_PIPELINE_H_

// The GraphSig mining pipeline (Algorithm 2): its deterministic units
// of work and Mine, their one composition. core::GraphSig::Mine runs
// it over a whole database; every caller that mines, streaming ingest
// included, goes through it.
//
// Every unit is a pure function of its arguments (plus the
// deterministic work counters it bumps). Units that run inside
// ParallelFor tasks (MineLabelGroup, CutRegion, MineRegionTask) are
// internally single-threaded.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "features/feature_vector.h"
#include "fvmine/fvmine.h"
#include "graph/graph_database.h"

namespace graphsig::core::pipeline {

// Node-vector indices per anchor label, in ascending label order (the
// line-6 grouping; label order is the deterministic merge order for
// everything downstream).
std::vector<std::pair<graph::Label, std::vector<int32_t>>>
GroupByAnchorLabel(const std::vector<features::NodeVector>& node_vectors);

struct GroupMineOutput {
  // Significant closed sub-feature vectors, supporting lists re-based
  // to indices into the full node-vector array.
  std::vector<fvmine::SignificantVector> vectors;
  // Tarone mode only: the group's testability statistics in DFS order.
  std::vector<double> psis;
};

// Priors + FVMine over one anchor-label group (Algorithm 2 line 7).
// Returns empty output for groups below the support threshold.
GroupMineOutput MineLabelGroup(
    const GraphSigConfig& config,
    const std::vector<features::NodeVector>& node_vectors,
    const std::vector<int32_t>& members);

// One graph-space mining task: a significant vector and the node-vector
// indices (after even subsampling) whose regions it selects.
struct RegionTask {
  graph::Label label = -1;
  int32_t sv_index = 0;  // index into the significant-vector list
  std::vector<int32_t> chosen;
};

// Pass-1 output: the task list plus the distinct (graph, node) cuts the
// tasks need. `cut_slot` maps RegionCutKey -> slot, `cut_owner` maps
// slot -> node-vector index to cut at.
struct RegionPlan {
  std::vector<RegionTask> tasks;
  std::unordered_map<int64_t, int32_t> cut_slot;
  std::vector<int32_t> cut_owner;
  int64_t num_region_requests = 0;
  int64_t num_unique_regions = 0;
};

// (graph_index, node) packed into one map key; radius is fixed per run,
// so this identifies a cut.
int64_t RegionCutKey(int32_t graph_index, graph::VertexId node);

// Serial pass 1: selects each vector's region sample and dedups the
// cuts. Bumps the mine/region_cache_hits|misses work counters. The set
// size bounds are constants, so `config` is not read; it is kept so
// every pass takes the same arguments.
RegionPlan PlanRegionTasks(
    const GraphSigConfig& config,
    const std::vector<std::pair<graph::Label, fvmine::SignificantVector>>&
        significant,
    const std::vector<features::NodeVector>& node_vectors);

// One region cut: the induced subgraph of the radius ball around
// `node`, stamped with the host graph's database index.
graph::Graph CutRegion(const graph::Graph& host, int32_t graph_index,
                       graph::VertexId node, int cutoff_radius);

struct RegionTaskOutput {
  std::map<std::string, SignificantSubgraph> dedup;  // canonical -> best
  bool filtered = false;  // no common structure (line-13 pruning)
  // gSpan stopped at the per-set pattern cap: the set's maximal patterns
  // are taken over the patterns it visited.
  bool capped = false;
};

// Pass-3 body: maximal FSM over one region set, whose cuts it borrows.
RegionTaskOutput MineRegionTask(const GraphSigConfig& config,
                                graph::Label label,
                                const fvmine::SignificantVector& sv,
                                std::span<const graph::Graph* const> regions);
// The same over a region set held as a database.
RegionTaskOutput MineRegionTask(const GraphSigConfig& config,
                                graph::Label label,
                                const fvmine::SignificantVector& sv,
                                const graph::GraphDatabase& regions);

// Folds one task's output into the global dedup map; must be called in
// task order with the same better-candidate rule for every thread
// count. Also advances the sets-mined/filtered/capped stats and the
// mine/region_sets_capped work counter.
void MergeRegionOutput(RegionTaskOutput&& output,
                       std::map<std::string, SignificantSubgraph>* dedup,
                       GraphSigStats* stats);

// Full-database frequency scan (compute_db_frequency) and the final
// (p-value asc, edges desc) ordering.
void ComputeDbFrequencies(const GraphSigConfig& config,
                          const graph::GraphDatabase& db,
                          std::vector<SignificantSubgraph>* subgraphs);
void SortBySignificance(std::vector<SignificantSubgraph>* subgraphs);

// ---------------------------------------------------------------------
// The composition.

struct FeatureHalfOutput {
  std::vector<features::NodeVector> node_vectors;
  // Vectors that pass the Tarone filter, in (label, DFS) order.
  std::vector<std::pair<graph::Label, fvmine::SignificantVector>>
      significant;
};

// Feature-space half (Algorithm 2 lines 3-7): RWR over `space` (null
// derives it from `db`), FVMine per anchor-label group, Tarone filter.
// Fills result->feature_space and the feature stats and seconds.
FeatureHalfOutput MineFeatureHalf(const GraphSigConfig& config,
                                  const graph::GraphDatabase& db,
                                  const features::FeatureSpace* space,
                                  GraphSigResult* result);

// The feature half, then the graph-space half (lines 8-13: plan, cut,
// mine each region set, merge, db frequency, sort), under the "mine"
// span.
GraphSigResult Mine(const GraphSigConfig& config,
                    const graph::GraphDatabase& db);

}  // namespace graphsig::core::pipeline

#endif  // GRAPHSIG_CORE_MINE_PIPELINE_H_
