#include "graph/containment_signature.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace graphsig::graph {
namespace {

using EdgeTypeCount = ContainmentSignature::EdgeTypeCount;

auto TypeOf(const EdgeTypeCount& e) {
  return std::tie(e.low, e.high, e.label);
}

}  // namespace

ContainmentSignature SignatureOf(const Graph& g) {
  ContainmentSignature sig;
  sig.num_vertices = g.num_vertices();
  sig.num_edges = g.num_edges();

  // (label, degree) of every vertex, by label, largest degree first.
  std::vector<std::pair<Label, int32_t>> vertices;
  vertices.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vertices.emplace_back(g.vertex_label(v), g.degree(v));
  }
  std::sort(vertices.begin(), vertices.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second > b.second;
            });
  sig.degrees.reserve(vertices.size());
  for (const auto& [label, degree] : vertices) {
    const int32_t at = static_cast<int32_t>(sig.degrees.size());
    if (sig.labels.empty() || sig.labels.back().label != label) {
      sig.labels.push_back({label, at, at});
    }
    sig.degrees.push_back(degree);
    sig.labels.back().end = at + 1;
  }

  std::vector<EdgeTypeCount> edges;
  edges.reserve(g.num_edges());
  for (const EdgeRecord& e : g.edges()) {
    const Label a = g.vertex_label(e.u);
    const Label b = g.vertex_label(e.v);
    edges.push_back({std::min(a, b), std::max(a, b), e.label, 1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const EdgeTypeCount& a, const EdgeTypeCount& b) {
              return TypeOf(a) < TypeOf(b);
            });
  for (const EdgeTypeCount& e : edges) {
    if (sig.edge_types.empty() || TypeOf(sig.edge_types.back()) != TypeOf(e)) {
      sig.edge_types.push_back(e);
    } else {
      ++sig.edge_types.back().count;
    }
  }
  return sig;
}

bool SignatureAdmits(const ContainmentSignature& pattern,
                     const ContainmentSignature& target) {
  if (pattern.num_vertices > target.num_vertices) return false;
  if (pattern.num_edges > target.num_edges) return false;
  auto t = target.edge_types.begin();
  for (const EdgeTypeCount& p : pattern.edge_types) {
    while (t != target.edge_types.end() && TypeOf(*t) < TypeOf(p)) ++t;
    if (t == target.edge_types.end() || TypeOf(*t) != TypeOf(p) ||
        t->count < p.count) {
      return false;
    }
    ++t;
  }
  auto run = target.labels.begin();
  for (const ContainmentSignature::LabelRun& p : pattern.labels) {
    while (run != target.labels.end() && run->label < p.label) ++run;
    if (run == target.labels.end() || run->label != p.label ||
        run->end - run->begin < p.end - p.begin) {
      return false;
    }
    // Both runs are sorted largest first: the pattern's vertices of this
    // label fit under distinct target vertices iff the k-th largest
    // pattern degree fits under the k-th largest target degree.
    for (int32_t k = 0; k < p.end - p.begin; ++k) {
      if (pattern.degrees[p.begin + k] > target.degrees[run->begin + k]) {
        return false;
      }
    }
    ++run;
  }
  return true;
}

}  // namespace graphsig::graph
