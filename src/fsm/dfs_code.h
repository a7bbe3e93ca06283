#ifndef GRAPHSIG_FSM_DFS_CODE_H_
#define GRAPHSIG_FSM_DFS_CODE_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace graphsig::fsm {

// One edge of a DFS code (gSpan, Yan & Han 2002): a 5-tuple
// (from, to, from_label, edge_label, to_label) over DFS discovery ids.
// Forward edges have from < to; backward edges have from > to.
struct DfsEdge {
  int32_t from;
  int32_t to;
  graph::Label from_label;
  graph::Label edge_label;
  graph::Label to_label;

  bool IsForward() const { return from < to; }

  friend bool operator==(const DfsEdge& a, const DfsEdge& b) = default;
};

// A DFS code: an edge sequence describing one DFS traversal of a
// connected pattern. The lexicographically minimal code over all
// traversals is the pattern's canonical form.
class DfsCode {
 public:
  DfsCode() = default;

  void Push(const DfsEdge& e) { edges_.push_back(e); }
  void Pop() { edges_.pop_back(); }
  void Clear() { edges_.clear(); }

  size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }
  const DfsEdge& operator[](size_t i) const { return edges_[i]; }
  const std::vector<DfsEdge>& edges() const { return edges_; }

  // Number of distinct DFS vertex ids in the code.
  int32_t NumVertices() const;

  // Materializes the pattern graph; vertex k of the result is DFS id k.
  graph::Graph ToGraph() const;

  // Indices (into the edge sequence) of the forward edges on the
  // rightmost path, ordered from the rightmost vertex back to the root.
  // Mirrors gSpan's RMPath.
  std::vector<int> BuildRmPath() const;

  // Stable text form, e.g. "(0,1,6,1,6)(1,2,6,1,8)"; usable as a map key
  // once the code is minimal.
  std::string ToString() const;

  friend bool operator==(const DfsCode& a, const DfsCode& b) = default;

 private:
  std::vector<DfsEdge> edges_;
};

// Total order over DFS edge tuples as defined by gSpan's neighborhood
// restriction; used to compare candidate extensions.
bool DfsEdgeLess(const DfsEdge& a, const DfsEdge& b);

// Builds the minimal (canonical) DFS code of a connected graph. Aborts on
// disconnected or empty input. Defined in gspan.cc: it grows the code
// with the miner's own rightmost-path extension rule.
DfsCode BuildMinDfsCode(const graph::Graph& g);

// True iff `code` is its pattern's minimal DFS code. Grows the minimum
// code of code.ToGraph() alongside `code` and stops at the first edge
// where some traversal reports a smaller one (gSpan's is_min).
bool IsMinimalDfsCode(const DfsCode& code);

// Canonical string key of a connected graph: ToString() of its minimal
// DFS code (plus a vertex-label sentinel for single-vertex graphs). Two
// connected graphs get equal keys iff they are isomorphic.
std::string CanonicalCode(const graph::Graph& g);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_DFS_CODE_H_
