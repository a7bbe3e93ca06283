#ifndef GRAPHSIG_FEATURES_RWR_H_
#define GRAPHSIG_FEATURES_RWR_H_

#include <vector>

#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "graph/graph_database.h"

namespace graphsig::features {

// Random Walk with Restart featurization (Section II-C): the "sliding
// window" of GraphSig. The walker starts at a source node; each step it
// restarts to the source with probability `restart_prob`, otherwise it
// moves to a uniformly random neighbor. The stationary visit distribution
// is computed by deterministic power iteration, then converted to a mass
// over features: each edge feature receives the stationary rate at which
// that edge is traversed; each vertex-label feature receives the rate of
// arrivals at such a vertex over edges whose type is NOT a feature. The
// distribution is normalized and discretized into `bins` bins by
// round(bins * value) — paper: 0.07 -> 1, 0.34 -> 3 at bins = 10.
// Which featurizer GraphToVectors applies. kRwr is the paper's method;
// kWindowCount is the ablation it argues against (plain occurrence
// counts, no proximity information).
enum class Featurizer { kRwr, kWindowCount };

// Power iteration stops at the first sweep that moves less than
// kRwrEpsilon of L1 mass, or after kRwrMaxIterations sweeps. The walk
// always covers the whole graph: the restart does the localizing, as in
// the paper.
inline constexpr double kRwrEpsilon = 1e-9;
inline constexpr int kRwrMaxIterations = 1000;

struct RwrConfig {
  double restart_prob = 0.25;  // alpha; ~1/alpha jumps per excursion
  int bins = 10;
  Featurizer featurizer = Featurizer::kRwr;
};

// Stationary node-visit distribution of RWR from `source`. Entry v is the
// stationary probability of the walker standing at v.
std::vector<double> RwrStationaryDistribution(const graph::Graph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config);

// Continuous feature-mass distribution (one slot per feature of
// `features`), normalized to sum 1 when any mass exists.
std::vector<double> RwrFeatureDistribution(const graph::Graph& g,
                                           graph::VertexId source,
                                           const FeatureSpace& features,
                                           const RwrConfig& config);

// Ablation featurizer (Table II discussion): plain occurrence counts of
// features over the whole graph, normalized the same way. Every node of
// `g` gets this one distribution, so it preserves strictly less
// structure than RWR.
std::vector<double> CountFeatureDistribution(const graph::Graph& g,
                                             const FeatureSpace& features);

// round(bins * value) per slot, clamped to [0, bins].
FeatureVec Discretize(const std::vector<double>& distribution, int bins);

// One NodeVector per node of `g` (RWR featurizer).
std::vector<NodeVector> GraphToVectors(const graph::Graph& g,
                                       int32_t graph_index,
                                       const FeatureSpace& features,
                                       const RwrConfig& config);

// One NodeVector per node of every graph of `db` — the D of Algorithm 2.
// With num_threads > 1 the graphs are featurized in parallel; the output
// order (graph 0's nodes, graph 1's nodes, ...) and every value are
// identical to the single-threaded run.
std::vector<NodeVector> DatabaseToVectors(const graph::GraphDatabase& db,
                                          const FeatureSpace& features,
                                          const RwrConfig& config,
                                          int num_threads = 1);

}  // namespace graphsig::features

#endif  // GRAPHSIG_FEATURES_RWR_H_
