#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "util/rng.h"

namespace graphsig::graph {
namespace {

Graph Triangle(Label a, Label b, Label c, Label e = 0) {
  Graph g;
  g.AddVertex(a);
  g.AddVertex(b);
  g.AddVertex(c);
  g.AddEdge(0, 1, e);
  g.AddEdge(1, 2, e);
  g.AddEdge(2, 0, e);
  return g;
}

Graph Path(std::vector<Label> vlabels, std::vector<Label> elabels) {
  Graph g;
  for (Label l : vlabels) g.AddVertex(l);
  for (size_t i = 0; i < elabels.size(); ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              elabels[i]);
  }
  return g;
}

TEST(IsomorphismTest, PathInTriangle) {
  Graph pattern = Path({1, 2}, {0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, LabelMismatchFails) {
  Graph pattern = Path({1, 9}, {0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, EdgeLabelMismatchFails) {
  Graph pattern = Path({1, 2}, {7});
  Graph target = Triangle(1, 2, 3, 0);
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, NonInducedSemantics) {
  // A path a-b-c embeds in a triangle a-b-c even though the triangle has
  // the extra closing edge (monomorphism, not induced isomorphism).
  Graph pattern = Path({1, 2, 3}, {0, 0});
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, TriangleNotInPath) {
  Graph pattern = Triangle(1, 2, 3);
  Graph target = Path({1, 2, 3}, {0, 0});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, EmptyPatternMatches) {
  Graph pattern;
  Graph target = Triangle(1, 2, 3);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, FindEmbeddingIsValid) {
  Graph pattern = Path({1, 2, 3}, {0, 0});
  Graph target = Triangle(1, 2, 3);
  auto emb = FindEmbedding(pattern, target);
  ASSERT_TRUE(emb.has_value());
  ASSERT_EQ(emb->size(), 3u);
  for (VertexId pv = 0; pv < pattern.num_vertices(); ++pv) {
    EXPECT_EQ(pattern.vertex_label(pv), target.vertex_label((*emb)[pv]));
  }
  for (const EdgeRecord& e : pattern.edges()) {
    EXPECT_EQ(target.EdgeLabelBetween((*emb)[e.u], (*emb)[e.v]), e.label);
  }
}

TEST(IsomorphismTest, CountEmbeddingsOnSymmetricTarget) {
  // Pattern a-a in a triangle of all-a: each undirected edge matched in
  // both directions -> 6 embeddings.
  Graph pattern = Path({5, 5}, {0});
  Graph target = Triangle(5, 5, 5);
  EXPECT_EQ(CountEmbeddings(pattern, target), 6u);
  EXPECT_EQ(CountEmbeddings(pattern, target, 2), 2u);
}

TEST(IsomorphismTest, FindAllEmbeddingsMatchesCount) {
  Graph pattern = Path({5, 5}, {0});
  Graph target = Triangle(5, 5, 5);
  auto all = FindAllEmbeddings(pattern, target);
  EXPECT_EQ(all.size(), 6u);
  auto capped = FindAllEmbeddings(pattern, target, 3);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(IsomorphismTest, AreIsomorphicRelabeling) {
  Graph a = Triangle(1, 2, 3);
  // Same triangle constructed in a different vertex order.
  Graph b;
  b.AddVertex(3);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1, 0);
  b.AddEdge(1, 2, 0);
  b.AddEdge(2, 0, 0);
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(IsomorphismTest, AreIsomorphicRejectsDifferentEdgeCounts) {
  Graph a = Triangle(1, 1, 1);
  Graph b = Path({1, 1, 1}, {0, 0});
  EXPECT_FALSE(AreIsomorphic(a, b));
  EXPECT_FALSE(AreIsomorphic(b, a));
}

TEST(IsomorphismTest, DisconnectedPatternSupported) {
  Graph pattern;
  pattern.AddVertex(1);
  pattern.AddVertex(2);  // two isolated labeled vertices
  Graph target = Path({1, 3, 2}, {0, 0});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
  Graph target2 = Path({1, 3, 3}, {0, 0});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target2));
}

// Property sweep: random connected subgraphs of a random host must always
// be found; the host must not be found in a strictly smaller pattern; on
// small random graphs every entry point agrees with brute force.
class IsomorphismPropertyTest : public ::testing::TestWithParam<int> {};

Graph RandomConnectedGraph(util::Rng* rng, int n, int extra_edges,
                           int vlabels, int elabels) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng->NextBounded(vlabels)));
  }
  // Random spanning tree.
  for (int i = 1; i < n; ++i) {
    VertexId parent = static_cast<VertexId>(rng->NextBounded(i));
    g.AddEdge(parent, i, static_cast<Label>(rng->NextBounded(elabels)));
  }
  for (int k = 0; k < extra_edges; ++k) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<Label>(rng->NextBounded(elabels)));
  }
  return g;
}

TEST_P(IsomorphismPropertyTest, RandomSubgraphAlwaysFound) {
  util::Rng rng(1000 + GetParam());
  Graph host = RandomConnectedGraph(&rng, 12, 5, 3, 2);
  // Take a BFS ball as a connected subgraph.
  VertexId center = static_cast<VertexId>(rng.NextBounded(12));
  auto ball = host.VerticesWithinRadius(center, 2);
  Graph pattern = host.InducedSubgraph(ball);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, host));
}

TEST_P(IsomorphismPropertyTest, HostNotInProperSubgraph) {
  util::Rng rng(2000 + GetParam());
  Graph host = RandomConnectedGraph(&rng, 10, 4, 3, 2);
  std::vector<VertexId> most;
  for (VertexId v = 0; v + 1 < host.num_vertices(); ++v) most.push_back(v);
  Graph smaller = host.InducedSubgraph(most);
  EXPECT_FALSE(IsSubgraphIsomorphic(host, smaller));
}

// Labels from {0, 1} on vertices and edges; each vertex pair is joined
// with probability `edge_prob`, so the graph may be disconnected.
Graph RandomSmallGraph(util::Rng* rng, int n, double edge_prob) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng->NextBounded(2)));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng->NextBernoulli(edge_prob)) {
        g.AddEdge(u, v, static_cast<Label>(rng->NextBounded(2)));
      }
    }
  }
  return g;
}

// Every injective map of pattern vertices to target vertices that keeps
// vertex labels and sends each pattern edge to a target edge with the
// same label, in lexicographic order. Reads the target's edge list only,
// never its adjacency lists.
std::vector<std::vector<VertexId>> BruteForceEmbeddings(const Graph& pattern,
                                                        const Graph& target) {
  const int n = target.num_vertices();
  std::vector<Label> edge_label(static_cast<size_t>(n) * n, -1);
  for (const EdgeRecord& e : target.edges()) {
    edge_label[e.u * n + e.v] = e.label;
    edge_label[e.v * n + e.u] = e.label;
  }
  std::vector<std::vector<VertexId>> out;
  std::vector<VertexId> map;
  std::vector<bool> used(n, false);
  auto extend = [&](auto& self) -> void {
    const VertexId pv = static_cast<VertexId>(map.size());
    if (pv == pattern.num_vertices()) {
      for (const EdgeRecord& e : pattern.edges()) {
        if (edge_label[map[e.u] * n + map[e.v]] != e.label) return;
      }
      out.push_back(map);
      return;
    }
    for (VertexId tv = 0; tv < n; ++tv) {
      if (used[tv] || target.vertex_label(tv) != pattern.vertex_label(pv)) {
        continue;
      }
      used[tv] = true;
      map.push_back(tv);
      self(self);
      map.pop_back();
      used[tv] = false;
    }
  };
  extend(extend);
  return out;
}

TEST_P(IsomorphismPropertyTest, MatchesBruteForceEnumeration) {
  util::Rng rng(3000 + GetParam());
  const int target_size = 1 + static_cast<int>(rng.NextBounded(7));
  const Graph target = RandomSmallGraph(&rng, target_size, 0.5);
  // No larger than the target, so most misses reach the matcher. Over
  // the 20 seeds half the pairs hit and six patterns are disconnected.
  const int pattern_size =
      1 + static_cast<int>(rng.NextBounded(std::min(5, target_size)));
  const Graph pattern = RandomSmallGraph(&rng, pattern_size, 0.4);
  const std::vector<std::vector<VertexId>> expected =
      BruteForceEmbeddings(pattern, target);

  EXPECT_EQ(CountEmbeddings(pattern, target), expected.size());
  EXPECT_EQ(IsSubgraphIsomorphic(pattern, target), !expected.empty());
  std::vector<std::vector<VertexId>> all = FindAllEmbeddings(pattern, target);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, expected);
  const std::optional<std::vector<VertexId>> one =
      FindEmbedding(pattern, target);
  ASSERT_EQ(one.has_value(), !expected.empty());
  if (one.has_value()) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), *one));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsomorphismPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace graphsig::graph
