#ifndef GRAPHSIG_CORE_GRAPHSIG_H_
#define GRAPHSIG_CORE_GRAPHSIG_H_

#include <cstdint>
#include <vector>

#include "features/feature_space.h"
#include "features/rwr.h"
#include "fvmine/fvmine.h"
#include "graph/graph_database.h"

namespace graphsig::core {

// Configuration of the end-to-end GraphSig pipeline (Algorithm 2).
// Defaults follow the paper's Table IV.
struct GraphSigConfig {
  features::RwrConfig rwr;  // alpha = 0.25, 10 bins

  // Feature selection: top-k atoms whose pairwise edge types become
  // features (Section II-B).
  int top_k_atoms = 5;

  // FVMine thresholds (Table IV): maxPvalue = 0.1; minFreq = 0.1%.
  // The frequency threshold is relative to the anchor-label group D_a
  // each FVMine call runs on — this is what lets GraphSig surface
  // patterns around rare atoms (Sb/Bi, Fig. 15) whose global frequency
  // is far below any workable database-wide threshold. The support
  // threshold has an absolute floor of 3 (core/mine_pipeline.cc).
  double max_pvalue = 0.1;
  double min_freq_percent = 0.1;

  // Region extraction: CutGraph radius (Table IV: 8) and the relative
  // frequency threshold for maximal FSM on each region set (Table IV:
  // fsgFreq = 80%).
  int cutoff_radius = 8;
  double fsg_freq_percent = 80.0;

  // Bounds pattern size inside region mining. The region-set guards
  // (minimum set size, subsample size, pattern cap) are constants in
  // core/mine_pipeline.cc.
  int32_t fsm_max_edges = 25;

  // FVMine's optimistic ceiling prune (an ablation when off).
  bool use_ceiling_prune = true;

  // Family-wise error control (stream/tarone.h): > 0 runs FVMine in
  // Tarone testability mode at this alpha and keeps only vectors whose
  // p-value clears the solved threshold delta* <= alpha. 0 (default)
  // preserves the paper's uncorrected per-vector test — and the
  // pre-existing counter baseline.
  double tarone_alpha = 0.0;

  // Worker threads for every pipeline phase: RWR featurization,
  // per-label-group FVMine, region cutting, and per-vector graph-space
  // mining (1 = serial). Output is bit-identical for any value — each
  // phase merges its per-task results in a fixed order.
  int num_threads = 1;

  // Compute each output pattern's frequency over the full database
  // (needed by the Fig. 16 analysis; one subgraph-iso scan per pattern).
  bool compute_db_frequency = true;
};

// One mined significant subgraph with the evidence trail back through
// the pipeline.
struct SignificantSubgraph {
  graph::Graph subgraph;
  // Feature-space evidence: the closed significant sub-feature vector
  // that selected this region set.
  features::FeatureVec vector;
  double vector_pvalue = 1.0;
  int64_t vector_support = 0;
  graph::Label anchor_label = -1;  // the D_a group it came from
  // Graph-space evidence.
  int64_t set_size = 0;     // regions mined
  int64_t set_support = 0;  // regions containing the pattern
  int64_t db_frequency = -1;  // graphs of the full DB containing it
};

// Wall-time share of each pipeline stage (the Fig. 10 profile).
struct GraphSigProfile {
  double rwr_seconds = 0.0;       // featurization (RWR + discretize)
  double feature_seconds = 0.0;   // priors + FVMine + region location
  double fsm_seconds = 0.0;       // cutting + maximal frequent mining
  double total_seconds = 0.0;
};

struct GraphSigStats {
  int64_t num_vectors = 0;             // |D|
  int64_t num_groups = 0;              // distinct anchor labels
  int64_t num_significant_vectors = 0;  // FVMine outputs across groups
  int64_t num_sets_mined = 0;          // region sets that reached FSM
  int64_t num_sets_filtered = 0;       // false-positive sets (no pattern)
  int64_t num_sets_capped = 0;  // sets whose gSpan run hit the pattern cap
  // Region-cut cache effectiveness: cuts requested across all region
  // sets vs distinct (graph, node) cuts actually computed. Their ratio
  // is the dedup factor the cache buys.
  int64_t num_region_requests = 0;
  int64_t num_unique_regions = 0;
  // Tarone mode only (tarone_alpha > 0): the solved family-wise
  // threshold delta* = alpha / k_T, the family size N (candidate states
  // across all groups), and how many candidates delta* filtered out.
  double tarone_delta_star = 0.0;
  int64_t tarone_family_size = 0;
  int64_t tarone_filtered_vectors = 0;

  bool operator==(const GraphSigStats&) const = default;
};

struct GraphSigResult {
  std::vector<SignificantSubgraph> subgraphs;
  GraphSigProfile profile;
  GraphSigStats stats;
  features::FeatureSpace feature_space;
};

// The GraphSig miner. Stateless between calls; one instance can mine
// many databases.
class GraphSig {
 public:
  explicit GraphSig(GraphSigConfig config) : config_(config) {}

  // Runs Algorithm 2 over `db` and returns the significant subgraphs,
  // deduplicated by canonical form (keeping the lowest vector p-value).
  GraphSigResult Mine(const graph::GraphDatabase& db) const;

  // Runs only the feature-space half (RWR + grouping + FVMine): the
  // significant sub-feature vectors per anchor label. This is what the
  // classifier trains on (Section V). If `space` is non-null it is used
  // instead of deriving one from `db` — the classifier passes a shared
  // space so positive/negative vectors and queries are comparable.
  std::vector<std::pair<graph::Label, fvmine::SignificantVector>>
  MineSignificantVectors(const graph::GraphDatabase& db,
                         GraphSigProfile* profile = nullptr,
                         const features::FeatureSpace* space = nullptr) const;

  const GraphSigConfig& config() const { return config_; }

 private:
  GraphSigConfig config_;
};

}  // namespace graphsig::core

#endif  // GRAPHSIG_CORE_GRAPHSIG_H_
