#include <gtest/gtest.h>

#include "core/graphsig.h"
#include "data/datasets.h"
#include "fsm/dfs_code.h"
#include "graph/statistics.h"

namespace graphsig {
namespace {

TEST(StatisticsTest, ComputesPaperStyleSummary) {
  data::DatasetOptions options;
  options.size = 200;
  options.seed = 91;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  graph::DatabaseStatistics s = graph::ComputeStatistics(db);
  EXPECT_EQ(s.num_graphs, 200u);
  EXPECT_EQ(s.num_tagged_positive, 10u);  // 5% actives
  EXPECT_NEAR(s.mean_vertices, 28.0, 4.0);  // molecules + planted motifs
  EXPECT_GT(s.mean_edges, s.mean_vertices * 0.95);
  EXPECT_GE(s.top5_vertex_label_coverage_percent, 95.0);
  EXPECT_GT(s.num_vertex_labels, 5u);
  EXPECT_GE(s.num_edge_labels, 3u);
  EXPECT_GE(s.max_vertices, 30);

  std::string text = graph::DescribeDatabase(db);
  EXPECT_NE(text.find("200 graphs"), std::string::npos);
  EXPECT_NE(text.find("10 positive"), std::string::npos);
}

TEST(StatisticsTest, EmptyDatabase) {
  graph::GraphDatabase db;
  graph::DatabaseStatistics s = graph::ComputeStatistics(db);
  EXPECT_EQ(s.num_graphs, 0u);
  EXPECT_EQ(s.mean_vertices, 0.0);
  EXPECT_EQ(s.top5_vertex_label_coverage_percent, 0.0);
}

// Golden regression: a fixed seed and configuration must keep producing
// the same mining result — catches silent behavioural drift anywhere in
// the pipeline (RWR, priors, FVMine, gSpan, dedup).
TEST(GoldenTest, FixedSeedMiningIsStable) {
  data::DatasetOptions options;
  options.size = 80;
  options.seed = 4242;
  options.active_fraction = 0.15;
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 14;
  graph::GraphDatabase db = data::MakeCancerScreen("SF-295", options);

  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 3.0;
  config.max_pvalue = 0.05;
  core::GraphSig miner(config);
  core::GraphSigResult a = miner.Mine(db);
  core::GraphSigResult b = miner.Mine(db);

  // Self-consistency (exact determinism).
  ASSERT_EQ(a.subgraphs.size(), b.subgraphs.size());
  for (size_t i = 0; i < a.subgraphs.size(); ++i) {
    EXPECT_EQ(fsm::CanonicalCode(a.subgraphs[i].subgraph),
              fsm::CanonicalCode(b.subgraphs[i].subgraph));
    EXPECT_EQ(a.subgraphs[i].vector_pvalue, b.subgraphs[i].vector_pvalue);
  }
  // Coarse golden anchors (stable across platforms: integer counts).
  EXPECT_GT(a.subgraphs.size(), 0u);
  EXPECT_EQ(a.stats.num_vectors, db.TotalVertices());
  EXPECT_GT(a.stats.num_significant_vectors, 0);
}

}  // namespace
}  // namespace graphsig
