#ifndef GRAPHSIG_GRAPH_GRAPH_DATABASE_H_
#define GRAPHSIG_GRAPH_GRAPH_DATABASE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.h"

namespace graphsig::graph {

// An ordered collection of graphs — the D of the paper. Provides the
// label statistics that feature selection (Fig. 4) and the significance
// priors are computed from.
class GraphDatabase {
 public:
  GraphDatabase() = default;

  void Add(Graph g) { graphs_.push_back(std::move(g)); }
  void Reserve(size_t n) { graphs_.reserve(n); }

  size_t size() const { return graphs_.size(); }
  bool empty() const { return graphs_.empty(); }

  const Graph& graph(size_t i) const { return graphs_[i]; }
  Graph& mutable_graph(size_t i) { return graphs_[i]; }

  const std::vector<Graph>& graphs() const { return graphs_; }
  // Pointers to every graph, in order: the borrowed view the miners walk
  // (fsm::MineMaximalGSpan). Valid while the database is unchanged.
  std::vector<const Graph*> GraphPointers() const;

  // Total vertex occurrences per vertex label across the database.
  std::map<Label, int64_t> VertexLabelCounts() const;
  // Total edge occurrences per edge label across the database.
  std::map<Label, int64_t> EdgeLabelCounts() const;

  // Sum of num_vertices over all graphs.
  int64_t TotalVertices() const;
  int64_t TotalEdges() const;

  // Subset by graph index; preserves order of `indices`.
  GraphDatabase Subset(const std::vector<size_t>& indices) const;

  // Graphs whose tag equals `tag` (e.g. the medically active set).
  GraphDatabase FilterByTag(int32_t tag) const;

 private:
  std::vector<Graph> graphs_;
};

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_GRAPH_DATABASE_H_
