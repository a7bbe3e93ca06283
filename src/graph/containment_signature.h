#ifndef GRAPHSIG_GRAPH_CONTAINMENT_SIGNATURE_H_
#define GRAPHSIG_GRAPH_CONTAINMENT_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphsig::graph {

// Monotone containment signature of one graph, the test every VF2
// caller runs first. A monomorphism maps each pattern vertex to a
// distinct same-labelled target vertex of at least its degree, and each
// pattern edge to a distinct target edge of the same type. So the
// vertex and edge counts, each edge type's count and, per vertex label,
// the k-th largest degree can only grow from a pattern to any graph it
// embeds in. Built once per graph and tested against many.
struct ContainmentSignature {
  // One edge type (endpoint labels ordered low <= high, plus the edge
  // label) and how many edges carry it.
  struct EdgeTypeCount {
    Label low;
    Label high;
    Label label;
    int32_t count;
  };
  // One vertex label and its vertices' degrees: degrees[begin, end).
  struct LabelRun {
    Label label;
    int32_t begin;
    int32_t end;
  };

  int32_t num_vertices = 0;
  int32_t num_edges = 0;
  std::vector<EdgeTypeCount> edge_types;  // ascending by type
  std::vector<LabelRun> labels;           // ascending by label
  // Every vertex's degree, grouped by label in `labels` order, largest
  // first within a label.
  std::vector<int32_t> degrees;
};

ContainmentSignature SignatureOf(const Graph& g);

// False only if the signatures prove that `pattern`'s graph does not
// embed in `target`'s, so it is a necessary condition for
// IsSubgraphIsomorphic: every edge type of the pattern occurs in the
// target at least as often, and per label the k-th largest pattern
// degree fits under the k-th largest target degree. One merge over each
// pair of sorted lists.
bool SignatureAdmits(const ContainmentSignature& pattern,
                     const ContainmentSignature& target);

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_CONTAINMENT_SIGNATURE_H_
