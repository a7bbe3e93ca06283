#include "graph/graph_database.h"

#include "util/check.h"

namespace graphsig::graph {

std::map<Label, int64_t> GraphDatabase::VertexLabelCounts() const {
  std::map<Label, int64_t> counts;
  for (const Graph& g : graphs_) {
    for (Label l : g.vertex_labels()) ++counts[l];
  }
  return counts;
}

std::map<Label, int64_t> GraphDatabase::EdgeLabelCounts() const {
  std::map<Label, int64_t> counts;
  for (const Graph& g : graphs_) {
    for (const EdgeRecord& e : g.edges()) ++counts[e.label];
  }
  return counts;
}

std::vector<const Graph*> GraphDatabase::GraphPointers() const {
  std::vector<const Graph*> out;
  out.reserve(graphs_.size());
  for (const Graph& g : graphs_) out.push_back(&g);
  return out;
}

int64_t GraphDatabase::TotalVertices() const {
  int64_t total = 0;
  for (const Graph& g : graphs_) total += g.num_vertices();
  return total;
}

int64_t GraphDatabase::TotalEdges() const {
  int64_t total = 0;
  for (const Graph& g : graphs_) total += g.num_edges();
  return total;
}

GraphDatabase GraphDatabase::Subset(const std::vector<size_t>& indices) const {
  GraphDatabase out;
  out.Reserve(indices.size());
  for (size_t i : indices) {
    GS_CHECK_LT(i, graphs_.size());
    out.Add(graphs_[i]);
  }
  return out;
}

GraphDatabase GraphDatabase::FilterByTag(int32_t tag) const {
  GraphDatabase out;
  for (const Graph& g : graphs_) {
    if (g.tag() == tag) out.Add(g);
  }
  return out;
}

}  // namespace graphsig::graph
