#ifndef GRAPHSIG_GRAPH_GRAPH_H_
#define GRAPHSIG_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace graphsig::graph {

// Vertex index within one graph.
using VertexId = int32_t;
// Integer label for a vertex (atom type) or edge (bond type). Symbolic
// labels are mapped to these through io::LabelDictionary.
using Label = int32_t;

// Half-edge stored in an adjacency list.
struct AdjEntry {
  VertexId to;
  Label label;
  int32_t edge_index;  // index into Graph's flat edge list

  friend bool operator==(const AdjEntry& a, const AdjEntry& b) = default;
};

// Full edge record in the flat edge list; u < v is not enforced, but each
// undirected edge appears exactly once here.
struct EdgeRecord {
  VertexId u;
  VertexId v;
  Label label;

  friend bool operator==(const EdgeRecord& a, const EdgeRecord& b) = default;
};

// An undirected, vertex- and edge-labeled graph. This is the unit stored
// in a GraphDatabase: one chemical compound, one mined pattern, one cut
// region. Vertices are dense [0, num_vertices). Parallel edges and
// self-loops are rejected (molecule graphs are simple).
class Graph {
 public:
  Graph() = default;
  explicit Graph(int64_t id) : id_(id) {}

  // Identifier within a database (compound id). Not used structurally.
  int64_t id() const { return id_; }
  void set_id(int64_t id) { id_ = id; }

  // Free-form class tag (e.g. 1 = active, 0 = inactive). Defaults to 0.
  int32_t tag() const { return tag_; }
  void set_tag(int32_t tag) { tag_ = tag; }

  // Adds a vertex and returns its id.
  VertexId AddVertex(Label label);

  // Adds an undirected edge; returns its index in edges(). Aborts on
  // self-loops, duplicate edges, or out-of-range endpoints — those are
  // construction bugs, not data conditions (I/O validates before calling).
  int32_t AddEdge(VertexId u, VertexId v, Label label);

  int32_t num_vertices() const {
    return static_cast<int32_t>(vertex_labels_.size());
  }
  int32_t num_edges() const { return static_cast<int32_t>(edges_.size()); }

  Label vertex_label(VertexId v) const { return vertex_labels_[v]; }
  const std::vector<Label>& vertex_labels() const { return vertex_labels_; }

  // v's half-edges in edge-index order (AddEdge appends to both ends).
  // That order is a contract, not an accident: RWR sums floats in it and
  // gSpan enumerates extensions in it, so every mined and served byte
  // depends on it.
  const std::vector<AdjEntry>& neighbors(VertexId v) const {
    return adjacency_[v];
  }
  int32_t degree(VertexId v) const {
    return static_cast<int32_t>(adjacency_[v].size());
  }

  const std::vector<EdgeRecord>& edges() const { return edges_; }
  const EdgeRecord& edge(int32_t e) const { return edges_[e]; }

  bool HasEdge(VertexId u, VertexId v) const;
  // Label of edge (u, v), or -1 if absent.
  Label EdgeLabelBetween(VertexId u, VertexId v) const;

  // All vertices at hop distance <= radius from `center` (BFS),
  // including `center` itself, in BFS order.
  std::vector<VertexId> VerticesWithinRadius(VertexId center,
                                             int radius) const;

  // Vertex-induced subgraph. `vertices` must be distinct and in range.
  // The result keeps this graph's id and tag; vertex k of the result
  // corresponds to vertices[k].
  Graph InducedSubgraph(const std::vector<VertexId>& vertices) const;

  // True iff the graph is connected (the empty graph counts as connected).
  bool IsConnected() const;

  // Debug rendering: "v 0 C-ish ... e 0 1 1 ..." with numeric labels.
  std::string ToString() const;

  bool operator==(const Graph& other) const = default;

 private:
  int64_t id_ = -1;
  int32_t tag_ = 0;
  std::vector<Label> vertex_labels_;
  std::vector<std::vector<AdjEntry>> adjacency_;
  std::vector<EdgeRecord> edges_;
};

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_GRAPH_H_
