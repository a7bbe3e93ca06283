#ifndef GRAPHSIG_FEATURES_SELECTION_H_
#define GRAPHSIG_FEATURES_SELECTION_H_

#include <functional>
#include <vector>

#include "fsm/miner.h"
#include "graph/graph_database.h"

namespace graphsig::features {

// One row of the Fig. 4 analysis: atom types ranked by frequency with
// the cumulative percentage of all atom occurrences they cover.
struct AtomCoverage {
  graph::Label label;
  int64_t count;
  double cumulative_percent;  // coverage of ranks 1..this one
};

// Frequency-descending atom ranking with cumulative coverage (Fig. 4).
std::vector<AtomCoverage> CumulativeAtomCoverage(
    const graph::GraphDatabase& db);

// The k most frequent vertex labels.
std::vector<graph::Label> TopKAtoms(const graph::GraphDatabase& db, int k);

// Greedy feature selection (Eq. 2): picks k items maximizing
//   w1 * importance(f) - (w2 / (chosen)) * sum_i sim(chosen_i, f).
// Works over abstract candidate indices so callers define importance and
// similarity for their own feature type (subgraphs, descriptors, ...).
// The first pick is the most important candidate. Returns chosen indices
// in pick order.
std::vector<size_t> GreedySelect(
    size_t num_candidates, int k,
    const std::function<double(size_t)>& importance,
    const std::function<double(size_t, size_t)>& similarity, double w1 = 1.0,
    double w2 = 1.0);

// Section II-A's concrete instantiation of Eq. 2 for subgraph features:
// enumerate frequent subgraphs as candidates, then greedily pick k with
// importance = relative frequency and similarity = Jaccard overlap of
// the candidates' supporting-graph sets (two patterns covering the same
// molecules are redundant features).
struct SubgraphFeatureOptions {
  double min_support_percent = 10.0;
  int max_edges = 5;
  int k = 10;
  double w1 = 1.0;
  double w2 = 1.0;
  size_t max_candidates = 50000;
};

std::vector<fsm::Pattern> SelectSubgraphFeatures(
    const graph::GraphDatabase& db, const SubgraphFeatureOptions& options);

}  // namespace graphsig::features

#endif  // GRAPHSIG_FEATURES_SELECTION_H_
