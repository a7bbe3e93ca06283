#ifndef GRAPHSIG_FSM_MINER_H_
#define GRAPHSIG_FSM_MINER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph_database.h"

namespace graphsig::fsm {

// One mined frequent pattern.
struct Pattern {
  graph::Graph graph;               // the pattern itself
  int64_t support = 0;              // number of database graphs containing it
  std::vector<int32_t> supporting;  // ascending DB indices of those graphs
};

// Shared knobs for the frequent-subgraph miners. Caps beyond min_support
// exist so the deliberately-exponential baselines (Figs. 2, 9, 11) can be
// run to a bounded budget; a capped run reports completed=false.
struct MinerConfig {
  int64_t min_support = 1;  // absolute graph count
  int32_t min_edges = 1;    // only report patterns with >= this many edges
  int32_t max_edges = std::numeric_limits<int32_t>::max();
  // Counts every frequent pattern found, including those MineMaximalGSpan
  // proves non-maximal and never builds.
  size_t max_patterns = std::numeric_limits<size_t>::max();
  double budget_seconds = std::numeric_limits<double>::infinity();
  // Also report frequent single-vertex patterns (min_edges permitting).
  bool include_single_vertices = false;
};

struct MineResult {
  std::vector<Pattern> patterns;
  bool completed = true;  // false if a cap or the time budget fired
  double seconds = 0.0;
  uint64_t states_expanded = 0;  // search states / candidates evaluated
  // gSpan only: embeddings built, roots included (deterministic; 0 for
  // the apriori miner).
  uint64_t embeddings_built = 0;
};

// ceil(relative * db_size / 100) clamped to >= 1 — converts the paper's
// percentage thresholds ("theta") to absolute support.
int64_t SupportFromPercent(double percent, size_t db_size);

// Pattern-growth miner (gSpan: minimum DFS codes + rightmost-path
// extension over projected embeddings).
MineResult MineFrequentGSpan(const graph::GraphDatabase& db,
                             const MinerConfig& config);

// Level-wise apriori miner in the style of FSG: breadth-first candidate
// generation, canonical dedup, downward-closure pruning, and explicit
// support counting against TID lists.
MineResult MineFrequentApriori(const graph::GraphDatabase& db,
                               const MinerConfig& config);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_MINER_H_
