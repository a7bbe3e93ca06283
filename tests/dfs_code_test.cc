#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "fsm/dfs_code.h"
#include "graph/isomorphism.h"
#include "util/rng.h"

namespace graphsig::fsm {
namespace {

using graph::Graph;
using graph::Label;
using graph::VertexId;

TEST(DfsCodeTest, ToGraphRoundTrip) {
  DfsCode code;
  code.Push({0, 1, 5, 1, 6});
  code.Push({1, 2, 6, 2, 7});
  code.Push({2, 0, 7, 3, 5});  // backward closes a triangle
  Graph g = code.ToGraph();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.vertex_label(0), 5);
  EXPECT_EQ(g.vertex_label(2), 7);
  EXPECT_EQ(g.EdgeLabelBetween(2, 0), 3);
}

TEST(DfsCodeTest, RmPathFollowsForwardChain) {
  DfsCode code;
  code.Push({0, 1, 0, 0, 0});
  code.Push({1, 2, 0, 0, 0});
  code.Push({2, 0, 0, 0, 0});  // backward
  code.Push({2, 3, 0, 0, 0});
  auto rmpath = code.BuildRmPath();
  // Rightmost vertex is 3; path edges: (2,3) then (1,2) then (0,1).
  ASSERT_EQ(rmpath.size(), 3u);
  EXPECT_EQ(rmpath[0], 3);
  EXPECT_EQ(rmpath[1], 1);
  EXPECT_EQ(rmpath[2], 0);
}

TEST(DfsCodeTest, SingleVertexCanonical) {
  Graph g;
  g.AddVertex(4);
  EXPECT_EQ(CanonicalCode(g), "v4");
}

TEST(DfsCodeTest, MinCodeOfSingleEdgeOrdersLabels) {
  Graph g;
  g.AddVertex(9);
  g.AddVertex(2);
  g.AddEdge(0, 1, 5);
  DfsCode code = BuildMinDfsCode(g);
  ASSERT_EQ(code.size(), 1u);
  EXPECT_EQ(code[0].from_label, 2);
  EXPECT_EQ(code[0].to_label, 9);
}

TEST(DfsCodeTest, IsomorphicGraphsShareCanonicalCode) {
  // Benzene-like ring with one substituent, built in two vertex orders.
  Graph a;
  for (int i = 0; i < 6; ++i) a.AddVertex(0);
  a.AddVertex(1);
  for (int i = 0; i < 6; ++i) a.AddEdge(i, (i + 1) % 6, 0);
  a.AddEdge(3, 6, 1);

  Graph b;
  b.AddVertex(1);
  for (int i = 0; i < 6; ++i) b.AddVertex(0);
  for (int i = 1; i <= 6; ++i) {
    b.AddEdge(i, i % 6 + 1, 0);
  }
  b.AddEdge(0, 4, 1);

  ASSERT_TRUE(graph::AreIsomorphic(a, b));
  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
}

TEST(DfsCodeTest, DifferentGraphsGetDifferentCodes) {
  Graph path;
  path.AddVertex(0);
  path.AddVertex(0);
  path.AddVertex(0);
  path.AddEdge(0, 1, 0);
  path.AddEdge(1, 2, 0);

  Graph triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(2, 0, 0);

  EXPECT_NE(CanonicalCode(path), CanonicalCode(triangle));
}

TEST(DfsCodeTest, MinCodeIsMinimal) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddVertex(i % 2);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 0);
  g.AddEdge(3, 4, 1);
  g.AddEdge(4, 0, 0);
  DfsCode code = BuildMinDfsCode(g);
  EXPECT_TRUE(IsMinimalDfsCode(code));
  EXPECT_EQ(code.size(), 5u);
  EXPECT_TRUE(graph::AreIsomorphic(code.ToGraph(), g));
}

TEST(DfsCodeTest, NonMinimalCodeDetected) {
  // A path a(0)-b(1)-c(2): starting the DFS at the 'c' end yields a
  // non-minimal code because (0,1,2,...) > (0,1,0,...).
  DfsCode bad;
  bad.Push({0, 1, 2, 0, 1});
  bad.Push({1, 2, 1, 0, 0});
  EXPECT_FALSE(IsMinimalDfsCode(bad));
  DfsCode good;
  good.Push({0, 1, 0, 0, 1});
  good.Push({1, 2, 1, 0, 2});
  EXPECT_TRUE(IsMinimalDfsCode(good));
}

// Property: the canonical code is invariant under random vertex
// permutations, and distinct small graphs collide only when isomorphic.
class CanonicalPropertyTest : public ::testing::TestWithParam<int> {};

Graph RandomConnected(util::Rng* rng, int n, int extra, int vl, int el) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng->NextBounded(vl)));
  }
  for (int i = 1; i < n; ++i) {
    g.AddEdge(static_cast<VertexId>(rng->NextBounded(i)), i,
              static_cast<Label>(rng->NextBounded(el)));
  }
  for (int k = 0; k < extra; ++k) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u != v && !g.HasEdge(u, v)) {
      g.AddEdge(u, v, static_cast<Label>(rng->NextBounded(el)));
    }
  }
  return g;
}

Graph Permute(const Graph& g, util::Rng* rng) {
  std::vector<VertexId> perm(g.num_vertices());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<VertexId>(i);
  rng->Shuffle(&perm);
  Graph out;
  std::vector<VertexId> pos(g.num_vertices());
  for (size_t i = 0; i < perm.size(); ++i) pos[perm[i]] = static_cast<VertexId>(i);
  for (size_t i = 0; i < perm.size(); ++i) {
    out.AddVertex(g.vertex_label(perm[i]));
  }
  for (const graph::EdgeRecord& e : g.edges()) {
    out.AddEdge(pos[e.u], pos[e.v], e.label);
  }
  return out;
}

TEST_P(CanonicalPropertyTest, InvariantUnderPermutation) {
  util::Rng rng(3000 + GetParam());
  Graph g = RandomConnected(&rng, 8, 4, 3, 2);
  std::string base = CanonicalCode(g);
  for (int t = 0; t < 5; ++t) {
    Graph p = Permute(g, &rng);
    EXPECT_EQ(CanonicalCode(p), base);
  }
}

TEST_P(CanonicalPropertyTest, CodeAgreesWithIsomorphism) {
  util::Rng rng(4000 + GetParam());
  Graph a = RandomConnected(&rng, 7, 3, 2, 2);
  Graph b = RandomConnected(&rng, 7, 3, 2, 2);
  EXPECT_EQ(CanonicalCode(a) == CanonicalCode(b),
            graph::AreIsomorphic(a, b));
}

// Every DFS code of `g` that extends `code`: grow along the rightmost
// path with no legality pruning, either backward from the rightmost
// vertex onto the rightmost path or forward from any rightmost-path
// vertex to an unvisited vertex, and keep the codes that use every edge.
void EnumerateCodes(const Graph& g, DfsCode* code,
                    std::vector<VertexId>* dfs_to_g,
                    std::vector<int32_t>* g_to_dfs,
                    std::vector<bool>* edge_used, std::vector<DfsCode>* out) {
  if (static_cast<int32_t>(code->size()) == g.num_edges()) {
    out->push_back(*code);
    return;
  }
  const std::vector<int> rmpath = code->BuildRmPath();
  const int32_t maxtoc = (*code)[rmpath[0]].to;
  std::vector<int32_t> on_rmpath = {maxtoc};
  for (int i : rmpath) on_rmpath.push_back((*code)[i].from);

  auto take = [&](const DfsEdge& e, const graph::AdjEntry& adj) {
    const bool forward = e.IsForward();
    (*edge_used)[adj.edge_index] = true;
    if (forward) {
      dfs_to_g->push_back(adj.to);
      (*g_to_dfs)[adj.to] = e.to;
    }
    code->Push(e);
    EnumerateCodes(g, code, dfs_to_g, g_to_dfs, edge_used, out);
    code->Pop();
    if (forward) {
      (*g_to_dfs)[adj.to] = -1;
      dfs_to_g->pop_back();
    }
    (*edge_used)[adj.edge_index] = false;
  };

  const VertexId rm_g = (*dfs_to_g)[maxtoc];
  for (const graph::AdjEntry& adj : g.neighbors(rm_g)) {
    const int32_t to = (*g_to_dfs)[adj.to];
    if ((*edge_used)[adj.edge_index] || to < 0) continue;
    if (std::find(on_rmpath.begin(), on_rmpath.end(), to) ==
        on_rmpath.end()) {
      continue;
    }
    take({maxtoc, to, g.vertex_label(rm_g), adj.label,
          g.vertex_label(adj.to)},
         adj);
  }
  for (int32_t from : on_rmpath) {
    const VertexId from_g = (*dfs_to_g)[from];
    for (const graph::AdjEntry& adj : g.neighbors(from_g)) {
      if ((*g_to_dfs)[adj.to] >= 0) continue;
      take({from, maxtoc + 1, g.vertex_label(from_g), adj.label,
            g.vertex_label(adj.to)},
           adj);
    }
  }
}

std::vector<DfsCode> AllDfsCodes(const Graph& g) {
  std::vector<DfsCode> out;
  for (int32_t ei = 0; ei < g.num_edges(); ++ei) {
    const graph::EdgeRecord& e = g.edge(ei);
    for (const auto& [a, b] : {std::pair(e.u, e.v), std::pair(e.v, e.u)}) {
      DfsCode code;
      code.Push({0, 1, g.vertex_label(a), e.label, g.vertex_label(b)});
      std::vector<VertexId> dfs_to_g = {a, b};
      std::vector<int32_t> g_to_dfs(g.num_vertices(), -1);
      g_to_dfs[a] = 0;
      g_to_dfs[b] = 1;
      std::vector<bool> edge_used(g.num_edges(), false);
      edge_used[ei] = true;
      EnumerateCodes(g, &code, &dfs_to_g, &g_to_dfs, &edge_used, &out);
    }
  }
  return out;
}

// gSpan's code order: the first edge by its label triple, every later
// edge by DfsEdgeLess.
bool CodeLess(const DfsCode& a, const DfsCode& b) {
  const auto triple = [](const DfsEdge& e) {
    return std::tie(e.from_label, e.edge_label, e.to_label);
  };
  if (triple(a[0]) != triple(b[0])) return triple(a[0]) < triple(b[0]);
  for (size_t i = 1; i < a.size(); ++i) {
    if (DfsEdgeLess(a[i], b[i])) return true;
    if (DfsEdgeLess(b[i], a[i])) return false;
  }
  return false;
}

TEST_P(CanonicalPropertyTest, MinCodeMatchesBruteForce) {
  util::Rng rng(5000 + GetParam());
  for (int t = 0; t < 16; ++t) {
    const int n = 2 + static_cast<int>(rng.NextBounded(5));
    const int extra = static_cast<int>(rng.NextBounded(4));
    const int vl = 1 + static_cast<int>(rng.NextBounded(3));
    const int el = 1 + static_cast<int>(rng.NextBounded(2));
    const Graph g = RandomConnected(&rng, n, extra, vl, el);
    SCOPED_TRACE(g.ToString());

    const std::vector<DfsCode> codes = AllDfsCodes(g);
    ASSERT_FALSE(codes.empty());
    const DfsCode min_code =
        *std::min_element(codes.begin(), codes.end(), CodeLess);
    EXPECT_EQ(BuildMinDfsCode(g).ToString(), min_code.ToString());
    for (const DfsCode& c : codes) {
      EXPECT_EQ(IsMinimalDfsCode(c), c == min_code) << c.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace graphsig::fsm
