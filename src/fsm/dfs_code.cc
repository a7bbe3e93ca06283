#include "fsm/dfs_code.h"

#include <algorithm>
#include <tuple>

#include "util/check.h"
#include "util/strings.h"

namespace graphsig::fsm {

int32_t DfsCode::NumVertices() const {
  int32_t max_id = -1;
  for (const DfsEdge& e : edges_) {
    max_id = std::max(max_id, std::max(e.from, e.to));
  }
  return max_id + 1;
}

graph::Graph DfsCode::ToGraph() const {
  graph::Graph g;
  int32_t n = NumVertices();
  std::vector<graph::Label> labels(n, -1);
  for (const DfsEdge& e : edges_) {
    labels[e.from] = e.from_label;
    labels[e.to] = e.to_label;
  }
  for (int32_t v = 0; v < n; ++v) {
    GS_CHECK_GE(labels[v], 0);
    g.AddVertex(labels[v]);
  }
  for (const DfsEdge& e : edges_) {
    g.AddEdge(e.from, e.to, e.edge_label);
  }
  return g;
}

std::vector<int> DfsCode::BuildRmPath() const {
  // Walk the code backwards collecting the chain of forward edges that
  // ends at the rightmost vertex: index order is rightmost-first.
  std::vector<int> rmpath;
  int32_t old_from = -1;
  for (int i = static_cast<int>(edges_.size()) - 1; i >= 0; --i) {
    const DfsEdge& e = edges_[i];
    if (e.IsForward() && (rmpath.empty() || old_from == e.to)) {
      rmpath.push_back(i);
      old_from = e.from;
    }
  }
  return rmpath;
}

std::string DfsCode::ToString() const {
  std::string out;
  for (const DfsEdge& e : edges_) {
    out += util::StrPrintf("(%d,%d,%d,%d,%d)", e.from, e.to, e.from_label,
                           e.edge_label, e.to_label);
  }
  return out;
}

bool DfsEdgeLess(const DfsEdge& a, const DfsEdge& b) {
  // Comparator for candidate extensions of one common prefix:
  // backward edges precede forward edges; backward edges order by
  // (to asc, edge_label asc); forward edges by (from desc, edge_label asc,
  // to_label asc).
  const bool a_fwd = a.IsForward();
  const bool b_fwd = b.IsForward();
  if (a_fwd != b_fwd) return !a_fwd;
  if (!a_fwd) {
    return std::tie(a.to, a.edge_label) < std::tie(b.to, b.edge_label);
  }
  if (a.from != b.from) return a.from > b.from;
  return std::tie(a.edge_label, a.to_label) <
         std::tie(b.edge_label, b.to_label);
}

std::string CanonicalCode(const graph::Graph& g) {
  GS_CHECK_GT(g.num_vertices(), 0);
  if (g.num_edges() == 0) {
    GS_CHECK_EQ(g.num_vertices(), 1);
    return util::StrPrintf("v%d", g.vertex_label(0));
  }
  return BuildMinDfsCode(g).ToString();
}

}  // namespace graphsig::fsm
