#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::fsm {
namespace {

using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

Graph Path(std::vector<Label> vlabels, std::vector<Label> elabels) {
  Graph g;
  for (Label l : vlabels) g.AddVertex(l);
  for (size_t i = 0; i < elabels.size(); ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              elabels[i]);
  }
  return g;
}

// Brute-force frequent connected subgraph mining by edge-subset
// enumeration; ground truth for the miners on tiny inputs.
std::map<std::string, int64_t> BruteForceFrequent(const GraphDatabase& db,
                                                  int64_t min_support,
                                                  int max_edges) {
  std::map<std::string, int64_t> support;
  for (size_t gid = 0; gid < db.size(); ++gid) {
    const Graph& g = db.graph(gid);
    std::set<std::string> seen_in_graph;
    const int m = g.num_edges();
    for (uint32_t mask = 1; mask < (1u << m); ++mask) {
      if (__builtin_popcount(mask) > max_edges) continue;
      // Build edge-induced subgraph.
      std::vector<VertexId> map(g.num_vertices(), -1);
      Graph sub;
      for (int e = 0; e < m; ++e) {
        if (!(mask & (1u << e))) continue;
        const graph::EdgeRecord& rec = g.edge(e);
        for (VertexId v : {rec.u, rec.v}) {
          if (map[v] < 0) {
            map[v] = sub.AddVertex(g.vertex_label(v));
          }
        }
        sub.AddEdge(map[rec.u], map[rec.v], rec.label);
      }
      if (!sub.IsConnected()) continue;
      seen_in_graph.insert(CanonicalCode(sub));
    }
    for (const std::string& key : seen_in_graph) ++support[key];
  }
  std::map<std::string, int64_t> frequent;
  for (const auto& [key, sup] : support) {
    if (sup >= min_support) frequent[key] = sup;
  }
  return frequent;
}

std::map<std::string, int64_t> ToCanonicalMap(const MineResult& result) {
  std::map<std::string, int64_t> out;
  for (const Pattern& p : result.patterns) {
    std::string key = CanonicalCode(p.graph);
    auto [it, inserted] = out.emplace(key, p.support);
    EXPECT_TRUE(inserted) << "duplicate pattern reported: " << key;
  }
  return out;
}

GraphDatabase RandomDatabase(uint64_t seed, int num_graphs, int n, int extra,
                             int vl, int el) {
  util::Rng rng(seed);
  GraphDatabase db;
  for (int i = 0; i < num_graphs; ++i) {
    Graph g(i);
    for (int v = 0; v < n; ++v) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(vl)));
    }
    for (int v = 1; v < n; ++v) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(v)), v,
                static_cast<Label>(rng.NextBounded(el)));
    }
    for (int k = 0; k < extra; ++k) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u != v && !g.HasEdge(u, v)) {
        g.AddEdge(u, v, static_cast<Label>(rng.NextBounded(el)));
      }
    }
    db.Add(std::move(g));
  }
  return db;
}

TEST(SupportFromPercentTest, CeilsAndClamps) {
  EXPECT_EQ(SupportFromPercent(10.0, 100), 10);
  EXPECT_EQ(SupportFromPercent(0.1, 100), 1);
  EXPECT_EQ(SupportFromPercent(0.0, 100), 1);
  EXPECT_EQ(SupportFromPercent(1.0, 150), 2);  // ceil(1.5)
  EXPECT_EQ(SupportFromPercent(80.0, 5), 4);
}

TEST(GSpanTest, MinesSharedPathPattern) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 3}, {0, 0}));
  MinerConfig config;
  config.min_support = 3;
  MineResult result = MineFrequentGSpan(db, config);
  auto patterns = ToCanonicalMap(result);
  Graph edge01 = Path({0, 1}, {0});
  Graph path012 = Path({0, 1, 2}, {0, 0});
  // Edge 0-1 occurs in all three graphs; path 0-1-2 in only two, so it is
  // below the threshold of 3.
  EXPECT_TRUE(patterns.count(CanonicalCode(edge01)));
  EXPECT_EQ(patterns[CanonicalCode(edge01)], 3);
  EXPECT_FALSE(patterns.count(CanonicalCode(path012)));

  config.min_support = 2;
  auto relaxed = ToCanonicalMap(MineFrequentGSpan(db, config));
  ASSERT_TRUE(relaxed.count(CanonicalCode(path012)));
  EXPECT_EQ(relaxed[CanonicalCode(path012)], 2);
}

TEST(GSpanTest, SupportingListsAreCorrect) {
  GraphDatabase db;
  db.Add(Path({0, 1}, {0}));
  db.Add(Path({2, 3}, {0}));
  db.Add(Path({0, 1}, {0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult result = MineFrequentGSpan(db, config);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].supporting, (std::vector<int32_t>{0, 2}));
}

TEST(GSpanTest, MaxPatternsCapSetsIncomplete) {
  GraphDatabase db = RandomDatabase(99, 8, 6, 3, 2, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_patterns = 3;
  MineResult result = MineFrequentGSpan(db, config);
  EXPECT_EQ(result.patterns.size(), 3u);
  EXPECT_FALSE(result.completed);
}

TEST(GSpanTest, MaxEdgesBoundsPatternSize) {
  GraphDatabase db;
  db.Add(Path({0, 0, 0, 0, 0}, {0, 0, 0, 0}));
  db.Add(Path({0, 0, 0, 0, 0}, {0, 0, 0, 0}));
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 2;
  MineResult result = MineFrequentGSpan(db, config);
  for (const Pattern& p : result.patterns) {
    EXPECT_LE(p.graph.num_edges(), 2);
  }
  EXPECT_TRUE(result.completed);
}

TEST(AprioriTest, AgreesOnSharedPath) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult gspan = MineFrequentGSpan(db, config);
  MineResult apriori = MineFrequentApriori(db, config);
  EXPECT_EQ(ToCanonicalMap(gspan), ToCanonicalMap(apriori));
}

TEST(MaximalTest, FiltersContainedPatterns) {
  GraphDatabase db;
  db.Add(Path({0, 1, 2}, {0, 0}));
  db.Add(Path({0, 1, 2}, {0, 0}));
  MinerConfig config;
  config.min_support = 2;
  MineResult result = MineMaximalGSpan(db.GraphPointers(), config);
  // Only the full path 0-1-2 is maximal.
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].graph.num_edges(), 2);
  EXPECT_EQ(result.patterns[0].support, 2);
}

TEST(MaximalTest, IncomparablePatternsBothKept) {
  std::vector<Pattern> patterns;
  Pattern a;
  a.graph = Path({0, 1}, {0});
  a.support = 5;
  Pattern b;
  b.graph = Path({2, 3}, {0});
  b.support = 4;
  patterns.push_back(a);
  patterns.push_back(b);
  auto maximal = FilterMaximal(patterns);
  EXPECT_EQ(maximal.size(), 2u);
}

// Canonical code -> (support, supporting list) of each pattern.
std::map<std::string, std::pair<int64_t, std::vector<int32_t>>> ByCode(
    const std::vector<Pattern>& patterns) {
  std::map<std::string, std::pair<int64_t, std::vector<int32_t>>> out;
  for (const Pattern& p : patterns) {
    out.emplace(CanonicalCode(p.graph),
                std::make_pair(p.support, p.supporting));
  }
  return out;
}

uint64_t PatternsCounted() {
  return obs::MetricsRegistry::Global().GetCounter("gspan/patterns")->value();
}

// Deciding maximality inside the search (no pattern with a frequent
// child is built) gives the post-filter's answer, searches the same
// states and still counts every frequent pattern toward gspan/patterns.
TEST(MaximalTest, SearchMatchesPostFilter) {
  size_t non_maximal = 0;
  for (int seed = 0; seed < 10; ++seed) {
    for (int64_t min_support : {2, 3, 5}) {
      for (int32_t max_edges : {2, 4}) {
        GraphDatabase db = RandomDatabase(5000 + seed, 8, 6, 2, 2, 2);
        MinerConfig config;
        config.min_support = min_support;
        config.max_edges = max_edges;
        const uint64_t before = PatternsCounted();
        const MineResult frequent = MineFrequentGSpan(db, config);
        const uint64_t frequent_counted = PatternsCounted() - before;
        const MineResult maximal =
            MineMaximalGSpan(db.GraphPointers(), config);
        const uint64_t maximal_counted =
            PatternsCounted() - before - frequent_counted;
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", support "
                                        << min_support << ", max_edges "
                                        << max_edges);
        EXPECT_TRUE(maximal.completed);
        EXPECT_EQ(ByCode(maximal.patterns),
                  ByCode(FilterMaximal(frequent.patterns)));
        EXPECT_EQ(maximal.states_expanded, frequent.states_expanded);
        EXPECT_EQ(maximal.embeddings_built, frequent.embeddings_built);
        EXPECT_EQ(frequent_counted, frequent.patterns.size());
        EXPECT_EQ(maximal_counted, frequent_counted);
        non_maximal += frequent.patterns.size() - maximal.patterns.size();
      }
    }
  }
  EXPECT_GT(non_maximal, 0u);
}

// A capped maximal run stops at the same search state as a capped
// frequent run, reports itself incomplete, and keeps only patterns the
// capped frequent run found.
TEST(MaximalTest, CappedRunStopsWhereFrequentRunStops) {
  GraphDatabase db = RandomDatabase(5003, 8, 6, 2, 2, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 4;
  const size_t total = MineFrequentGSpan(db, config).patterns.size();
  ASSERT_GT(total, 10u);
  for (size_t cap : {size_t{1}, size_t{2}, size_t{7}, total / 2, total - 1}) {
    config.max_patterns = cap;
    const MineResult frequent = MineFrequentGSpan(db, config);
    const MineResult maximal = MineMaximalGSpan(db.GraphPointers(), config);
    EXPECT_FALSE(maximal.completed) << "cap " << cap;
    EXPECT_EQ(maximal.states_expanded, frequent.states_expanded)
        << "cap " << cap;
    const auto visited = ByCode(frequent.patterns);
    ASSERT_FALSE(maximal.patterns.empty());
    for (const auto& [code, support] : ByCode(maximal.patterns)) {
      auto it = visited.find(code);
      ASSERT_NE(it, visited.end()) << "cap " << cap << ": " << code;
      EXPECT_EQ(it->second, support);
    }
  }
}

// Cross-validation property: gSpan == apriori == brute force on random
// small databases, over several seeds and support levels.
struct MinerCase {
  uint64_t seed;
  int64_t min_support;
};

class MinerAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinerAgreementTest, AllThreeMinersAgree) {
  const int seed = std::get<0>(GetParam());
  const int64_t min_support = std::get<1>(GetParam());
  GraphDatabase db = RandomDatabase(5000 + seed, 8, 6, 2, 2, 2);
  MinerConfig config;
  config.min_support = min_support;
  config.max_edges = 4;
  auto truth = BruteForceFrequent(db, min_support, 4);
  auto gspan = ToCanonicalMap(MineFrequentGSpan(db, config));
  auto apriori = ToCanonicalMap(MineFrequentApriori(db, config));
  EXPECT_EQ(gspan, truth);
  EXPECT_EQ(apriori, truth);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinerAgreementTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(2, 3, 5)));

// Every mined pattern must actually occur in every supporting graph.
TEST(GSpanTest, PatternsEmbedInSupportingGraphs) {
  GraphDatabase db = RandomDatabase(777, 6, 7, 3, 3, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 5;
  MineResult result = MineFrequentGSpan(db, config);
  for (const Pattern& p : result.patterns) {
    for (int32_t gid : p.supporting) {
      EXPECT_TRUE(graph::IsSubgraphIsomorphic(p.graph, db.graph(gid)));
    }
  }
}

// Each pattern's supporting list is strictly ascending and names exactly
// the graphs that contain it, and its support counts that list.
TEST(GSpanTest, SupportingListsEqualContainingGraphs) {
  for (int seed = 0; seed < 10; ++seed) {
    for (int64_t min_support : {2, 3, 5}) {
      GraphDatabase db = RandomDatabase(5000 + seed, 8, 6, 2, 2, 2);
      MinerConfig config;
      config.min_support = min_support;
      config.max_edges = 4;
      for (const Pattern& p : MineFrequentGSpan(db, config).patterns) {
        std::vector<int32_t> containing;
        for (size_t gid = 0; gid < db.size(); ++gid) {
          if (graph::IsSubgraphIsomorphic(p.graph, db.graph(gid))) {
            containing.push_back(static_cast<int32_t>(gid));
          }
        }
        EXPECT_EQ(p.supporting, containing) << "seed " << seed;
        EXPECT_EQ(p.support, static_cast<int64_t>(p.supporting.size()));
      }
    }
  }
}

// A run capped at N patterns reports the first N patterns of the full run.
TEST(GSpanTest, CappedRunIsPrefixOfFullRun) {
  GraphDatabase db = RandomDatabase(5003, 8, 6, 2, 2, 2);
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 4;
  const MineResult full = MineFrequentGSpan(db, config);
  ASSERT_TRUE(full.completed);
  const size_t total = full.patterns.size();
  ASSERT_GT(total, 10u);
  for (size_t cap : {size_t{1}, size_t{2}, size_t{7}, total / 2, total - 1}) {
    config.max_patterns = cap;
    const MineResult capped = MineFrequentGSpan(db, config);
    EXPECT_FALSE(capped.completed);
    ASSERT_EQ(capped.patterns.size(), cap);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(capped.patterns[i].graph, full.patterns[i].graph)
          << "cap " << cap << ", pattern " << i;
      EXPECT_EQ(capped.patterns[i].supporting, full.patterns[i].supporting);
    }
  }
}

// Two equal stars whose 40 leaves carry distinct labels: the frame of
// each first edge reports dozens of distinct extensions, more than the
// miner's key table starts with room for.
TEST(GSpanTest, WideFrameMatchesExactCountAndApriori) {
  constexpr int kLeaves = 40;
  GraphDatabase db;
  for (int copy = 0; copy < 2; ++copy) {
    Graph star(copy);
    star.AddVertex(0);
    for (int leaf = 1; leaf <= kLeaves; ++leaf) {
      star.AddEdge(0, star.AddVertex(leaf), 0);
    }
    db.Add(std::move(star));
  }
  MinerConfig config;
  config.min_support = 2;
  config.max_edges = 2;
  const MineResult gspan = MineFrequentGSpan(db, config);
  // Every edge, and every pair of edges.
  EXPECT_EQ(gspan.patterns.size(),
            size_t{kLeaves + kLeaves * (kLeaves - 1) / 2});
  EXPECT_EQ(ToCanonicalMap(gspan),
            ToCanonicalMap(MineFrequentApriori(db, config)));
}

}  // namespace
}  // namespace graphsig::fsm
