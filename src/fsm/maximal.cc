#include "fsm/maximal.h"

#include <algorithm>

#include "graph/isomorphism.h"

namespace graphsig::fsm {

std::vector<Pattern> FilterMaximal(std::vector<Pattern> patterns) {
  // Sort largest-first so containment checks only need to look at the
  // prefix of strictly larger patterns.
  std::sort(patterns.begin(), patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.graph.num_edges() != b.graph.num_edges()) {
                return a.graph.num_edges() > b.graph.num_edges();
              }
              return a.graph.num_vertices() > b.graph.num_vertices();
            });
  std::vector<Pattern> maximal;
  for (const Pattern& p : patterns) {
    bool contained = false;
    for (const Pattern& q : maximal) {
      const bool strictly_larger =
          q.graph.num_edges() > p.graph.num_edges() ||
          (q.graph.num_edges() == p.graph.num_edges() &&
           q.graph.num_vertices() > p.graph.num_vertices());
      if (!strictly_larger) continue;
      if (graph::IsSubgraphIsomorphic(p.graph, q.graph)) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.push_back(p);
  }
  return maximal;
}

MineResult MineMaximalGSpan(const graph::GraphDatabase& db,
                            const MinerConfig& config) {
  MineResult result = MineFrequentGSpan(db, config);
  result.patterns = FilterMaximal(std::move(result.patterns));
  return result;
}

}  // namespace graphsig::fsm
