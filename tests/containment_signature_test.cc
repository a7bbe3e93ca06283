#include <gtest/gtest.h>

#include <vector>

#include "graph/containment_signature.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "util/rng.h"

namespace graphsig::graph {
namespace {

Graph Path(std::vector<Label> vlabels, std::vector<Label> elabels) {
  Graph g;
  for (Label l : vlabels) g.AddVertex(l);
  for (size_t i = 0; i < elabels.size(); ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              elabels[i]);
  }
  return g;
}

// A random connected graph in the shape of the miner tests' databases:
// a random spanning tree plus up to `extra` more edges.
Graph RandomConnected(util::Rng* rng, int n, int extra, int vl, int el) {
  Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<Label>(rng->NextBounded(vl)));
  }
  for (int v = 1; v < n; ++v) {
    g.AddEdge(static_cast<VertexId>(rng->NextBounded(v)), v,
              static_cast<Label>(rng->NextBounded(el)));
  }
  for (int k = 0; k < extra; ++k) {
    const VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u != v && !g.HasEdge(u, v)) {
      g.AddEdge(u, v, static_cast<Label>(rng->NextBounded(el)));
    }
  }
  return g;
}

bool Admits(const Graph& pattern, const Graph& target) {
  return SignatureAdmits(SignatureOf(pattern), SignatureOf(target));
}

TEST(ContainmentSignatureTest, LayoutIsSortedAndCounted) {
  // Star: centre 5, leaves 3, 3 and 7 over bond labels 1, 1 and 2.
  Graph star;
  const VertexId centre = star.AddVertex(5);
  star.AddEdge(centre, star.AddVertex(3), 1);
  star.AddEdge(star.AddVertex(7), centre, 2);
  star.AddEdge(centre, star.AddVertex(3), 1);
  const ContainmentSignature sig = SignatureOf(star);
  EXPECT_EQ(sig.num_vertices, 4);
  EXPECT_EQ(sig.num_edges, 3);
  ASSERT_EQ(sig.edge_types.size(), 2u);
  EXPECT_EQ(sig.edge_types[0].low, 3);
  EXPECT_EQ(sig.edge_types[0].high, 5);
  EXPECT_EQ(sig.edge_types[0].label, 1);
  EXPECT_EQ(sig.edge_types[0].count, 2);
  EXPECT_EQ(sig.edge_types[1].low, 5);
  EXPECT_EQ(sig.edge_types[1].high, 7);
  EXPECT_EQ(sig.edge_types[1].count, 1);
  ASSERT_EQ(sig.labels.size(), 3u);
  EXPECT_EQ(sig.labels[0].label, 3);
  EXPECT_EQ(sig.labels[1].label, 5);
  EXPECT_EQ(sig.labels[2].label, 7);
  EXPECT_EQ(sig.degrees, (std::vector<int32_t>{1, 1, 3, 1}));
  EXPECT_EQ(sig.labels[1].begin, 2);
  EXPECT_EQ(sig.labels[1].end, 3);
}

// Soundness: on random connected pairs, every pair VF2 embeds is
// admitted. The test also rejects many pairs, so it is not vacuous.
TEST(ContainmentSignatureTest, AdmitsEveryEmbeddedPair) {
  util::Rng rng(26);
  int embedded = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Graph target = RandomConnected(
        &rng, 5 + static_cast<int>(rng.NextBounded(5)),
        static_cast<int>(rng.NextBounded(4)), 2, 2);
    // Half the patterns are balls cut from the target, so they embed.
    const Graph pattern =
        trial % 2 == 0
            ? target.InducedSubgraph(target.VerticesWithinRadius(
                  static_cast<VertexId>(
                      rng.NextBounded(target.num_vertices())),
                  1))
            : RandomConnected(&rng, 2 + static_cast<int>(rng.NextBounded(4)),
                              static_cast<int>(rng.NextBounded(2)), 2, 2);
    const bool admitted = Admits(pattern, target);
    if (IsSubgraphIsomorphic(pattern, target)) {
      ++embedded;
      EXPECT_TRUE(admitted) << "trial " << trial << "\npattern "
                            << pattern.ToString() << "\ntarget "
                            << target.ToString();
    }
    if (!admitted) ++rejected;
  }
  EXPECT_GT(embedded, 1500);
  EXPECT_GT(rejected, 300);
}

// A star whose centre has degree 3 against a path whose same-labelled
// vertices have degree 2: counts and edge types fit, degrees do not.
TEST(ContainmentSignatureTest, RejectsOnDegreeAlone) {
  Graph star;
  const VertexId centre = star.AddVertex(0);
  for (int leaf = 0; leaf < 3; ++leaf) {
    star.AddEdge(centre, star.AddVertex(1), 0);
  }
  const Graph path = Path({1, 0, 1, 0, 1}, {0, 0, 0, 0});
  ASSERT_FALSE(IsSubgraphIsomorphic(star, path));
  EXPECT_FALSE(Admits(star, path));
  // With its degrees zeroed the same signature is admitted, so the
  // degrees alone rejected it.
  ContainmentSignature flat = SignatureOf(star);
  for (int32_t& degree : flat.degrees) degree = 0;
  EXPECT_TRUE(SignatureAdmits(flat, SignatureOf(path)));
}

// Two a-bonds against one a-bond and one b-bond: vertex and edge
// counts and degrees fit, the a-bond count does not.
TEST(ContainmentSignatureTest, RejectsOnEdgeTypeCountAlone) {
  const Graph aa = Path({0, 0, 0}, {0, 0});
  const Graph ab = Path({0, 0, 0}, {0, 1});
  ASSERT_FALSE(IsSubgraphIsomorphic(aa, ab));
  EXPECT_FALSE(Admits(aa, ab));
  ContainmentSignature untyped = SignatureOf(aa);
  untyped.edge_types.clear();
  EXPECT_TRUE(SignatureAdmits(untyped, SignatureOf(ab)));
  // A missing type rejects as a short count does.
  EXPECT_FALSE(Admits(Path({0, 1}, {0}), Path({0, 0, 1}, {0, 1})));
}

TEST(ContainmentSignatureTest, RejectsOnMissingLabelAndSizes) {
  Graph lone;
  lone.AddVertex(2);
  EXPECT_FALSE(Admits(lone, Path({0, 1, 0}, {0, 0})));
  EXPECT_FALSE(Admits(Path({0, 0, 0}, {0, 0}), Path({0, 0}, {0})));
  EXPECT_TRUE(Admits(Graph(), Path({0, 0}, {0})));
  EXPECT_TRUE(Admits(Path({0, 1}, {0}), Path({1, 0}, {0})));
}

}  // namespace
}  // namespace graphsig::graph
