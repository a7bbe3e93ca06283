#include "fsm/maximal.h"

#include <algorithm>

#include "graph/containment_signature.h"
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
  std::vector<graph::ContainmentSignature> signatures;  // of maximal[i]
  for (Pattern& p : patterns) {
    graph::ContainmentSignature signature = graph::SignatureOf(p.graph);
    bool contained = false;
    for (size_t i = 0; i < maximal.size(); ++i) {
      const Pattern& q = maximal[i];
      const bool strictly_larger =
          q.graph.num_edges() > p.graph.num_edges() ||
          (q.graph.num_edges() == p.graph.num_edges() &&
           q.graph.num_vertices() > p.graph.num_vertices());
      // `maximal` keeps the sort order: the rest are no larger than q.
      if (!strictly_larger) break;
      if (graph::SignatureAdmits(signature, signatures[i]) &&
          graph::IsSubgraphIsomorphic(p.graph, q.graph)) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      maximal.push_back(std::move(p));
      signatures.push_back(std::move(signature));
    }
  }
  return maximal;
}

}  // namespace graphsig::fsm
