#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "data/datasets.h"
#include "features/rwr.h"
#include "graph/isomorphism.h"
#include "model/artifact.h"
#include "serve/pattern_catalog.h"

namespace graphsig::serve {
namespace {

core::GraphSigConfig FastMiningConfig() {
  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 3.0;
  config.fsm_max_edges = 12;
  return config;
}

graph::GraphDatabase TestScreen(uint64_t seed, size_t size) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  options.active_fraction = 0.25;
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 16;
  return data::MakeCancerScreen("MCF-7", options);
}

// One indexed screen shared by the suite (mining dominates runtime).
struct Fixture {
  graph::GraphDatabase db;
  model::ModelArtifact artifact;
  classify::GraphSigClassifier direct_classifier;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    f->db = TestScreen(2024, 80);

    core::GraphSig miner(FastMiningConfig());
    core::GraphSigResult mined = miner.Mine(f->db.FilterByTag(1));
    f->artifact.feature_space = std::move(mined.feature_space);
    f->artifact.catalog = std::move(mined.subgraphs);

    classify::SigKnnConfig knn;
    knn.mining = FastMiningConfig();
    f->direct_classifier = classify::GraphSigClassifier(knn);
    f->direct_classifier.Train(f->db);
    f->artifact.classifier = f->direct_classifier.ExportModel();
    f->artifact.database = f->db;
    return f;
  }();
  return *fixture;
}

TEST(PatternCatalogTest, MatchesEqualBruteForce) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_GT(catalog.value().num_patterns(), 0u);

  CatalogQueryConfig config;
  config.compute_score = false;
  for (size_t i = 0; i < f.db.size(); i += 3) {
    const graph::Graph& query = f.db.graph(i);
    const QueryResult result = catalog.value().Query(query, config);
    std::vector<int32_t> expected;
    for (size_t p = 0; p < f.artifact.catalog.size(); ++p) {
      if (graph::IsSubgraphIsomorphic(f.artifact.catalog[p].subgraph,
                                      query)) {
        expected.push_back(static_cast<int32_t>(p));
      }
    }
    EXPECT_EQ(result.matched_patterns, expected) << "query " << i;
    // The pruning layers only reject, never accept: every pattern either
    // reached the isomorphism test or was pruned.
    EXPECT_EQ(result.iso_calls + result.pruned,
              static_cast<int32_t>(f.artifact.catalog.size()));
  }
}

TEST(PatternCatalogTest, PruningRejectsMostCandidates) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok());
  CatalogQueryConfig config;
  config.compute_score = false;
  int64_t iso = 0, pruned = 0;
  for (const graph::Graph& query : f.db.graphs()) {
    const QueryResult r = catalog.value().Query(query, config);
    iso += r.iso_calls;
    pruned += r.pruned;
  }
  // The point of the index: most candidates never reach the matcher.
  EXPECT_GT(pruned, iso);
}

TEST(PatternCatalogTest, ScoresMatchDirectClassifier) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE(catalog.value().has_classifier());
  for (size_t i = 0; i < f.db.size(); i += 5) {
    const graph::Graph& g = f.db.graph(i);
    const QueryResult r = catalog.value().Query(g);
    ASSERT_TRUE(r.has_score);
    EXPECT_EQ(r.score, f.direct_classifier.Score(g)) << "query " << i;
  }
}

// Algorithm 3 recomputed from the model with the brute-force minDist:
// each node vector's nearer class at its distance, the k smallest
// (distance, class) pairs kept, and 1 / (distance + delta) summed with
// its class's sign from the largest kept pair down, the order
// GraphSigClassifier::Score pops its heap in.
double BruteForceScore(const classify::SigKnnModel& model,
                       const graph::Graph& query) {
  std::vector<std::pair<double, int>> nearest;
  for (const features::NodeVector& nv :
       features::GraphToVectors(query, -1, model.space, model.rwr)) {
    const double pos = classify::MinDistToSubVector(nv.values, model.positive);
    const double neg = classify::MinDistToSubVector(nv.values, model.negative);
    if (std::isinf(pos) && std::isinf(neg)) continue;
    nearest.push_back(neg < pos ? std::pair{neg, -1} : std::pair{pos, +1});
  }
  std::sort(nearest.begin(), nearest.end());
  nearest.resize(std::min(nearest.size(), static_cast<size_t>(model.k)));
  double score = 0.0;
  for (auto it = nearest.rbegin(); it != nearest.rend(); ++it) {
    score += static_cast<double>(it->second) / (it->first + model.delta);
  }
  return score;
}

TEST(PatternCatalogTest, ScoresMatchBruteForceMinDist) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok());
  const graph::GraphDatabase holdout = TestScreen(555, 30);
  int nonzero = 0;
  for (size_t i = 0; i < holdout.size(); ++i) {
    const graph::Graph& g = holdout.graph(i);
    const QueryResult r = catalog.value().Query(g);
    ASSERT_TRUE(r.has_score);
    EXPECT_EQ(r.score, BruteForceScore(f.artifact.classifier, g))
        << "holdout " << i;
    nonzero += r.score != 0.0;
  }
  EXPECT_GT(nonzero, 0);
}

// The acceptance-criteria golden test: an artifact saved to disk and
// served back answers exactly what the in-process mine + train + score
// pipeline answers — same matched patterns, same classifier scores.
TEST(PatternCatalogTest, GoldenFileRoundTripReproducesInProcessRun) {
  const Fixture& f = SharedFixture();
  const std::string path = testing::TempDir() + "/serve_golden.gsig";
  ASSERT_TRUE(model::SaveArtifact(f.artifact, path).ok());

  auto catalog = PatternCatalog::LoadFromFile(path);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog.value().num_patterns(), f.artifact.catalog.size());

  // Queries the served run never saw at mining time.
  graph::GraphDatabase holdout = TestScreen(777, 40);
  const std::vector<QueryResult> served =
      catalog.value().QueryBatch(holdout.graphs());
  ASSERT_EQ(served.size(), holdout.size());
  for (size_t i = 0; i < holdout.size(); ++i) {
    const graph::Graph& g = holdout.graph(i);
    ASSERT_TRUE(served[i].has_score);
    EXPECT_EQ(served[i].score, f.direct_classifier.Score(g))
        << "holdout " << i;
    std::vector<int32_t> expected;
    for (size_t p = 0; p < f.artifact.catalog.size(); ++p) {
      if (graph::IsSubgraphIsomorphic(f.artifact.catalog[p].subgraph, g)) {
        expected.push_back(static_cast<int32_t>(p));
      }
    }
    EXPECT_EQ(served[i].matched_patterns, expected) << "holdout " << i;
  }
}

TEST(PatternCatalogTest, BatchMatchesSerialAcrossThreadCounts) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok());
  graph::GraphDatabase holdout = TestScreen(888, 24);

  std::vector<QueryResult> serial;
  for (const graph::Graph& g : holdout.graphs()) {
    serial.push_back(catalog.value().Query(g));
  }
  for (int threads : {1, 3}) {
    CatalogQueryConfig config;
    config.num_threads = threads;
    const std::vector<QueryResult> batch =
        catalog.value().QueryBatch(holdout.graphs(), config);
    ASSERT_EQ(batch.size(), serial.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].matched_patterns, serial[i].matched_patterns);
      EXPECT_EQ(batch[i].score, serial[i].score);
    }
  }
}

// The cumulative ServingStats a server's Stats RPC reports: after a
// reset, Snapshot() totals are exactly the sums over the answered
// queries, whether they ran serially or as a 4-thread batch.
TEST(PatternCatalogTest, ServingStatsTotalsMatchQueryResults) {
  const Fixture& f = SharedFixture();
  auto catalog = PatternCatalog::FromArtifact(f.artifact);
  ASSERT_TRUE(catalog.ok());
  graph::GraphDatabase holdout = TestScreen(911, 24);
  CatalogQueryConfig config;
  config.compute_score = false;

  auto expect_totals = [](const std::vector<QueryResult>& results,
                          const ServingStats& stats, const char* how) {
    int64_t iso_calls = 0, pruned = 0, matches = 0;
    for (const QueryResult& r : results) {
      iso_calls += r.iso_calls;
      pruned += r.pruned;
      matches += static_cast<int64_t>(r.matched_patterns.size());
    }
    EXPECT_EQ(stats.queries, static_cast<int64_t>(results.size())) << how;
    EXPECT_EQ(stats.iso_calls, iso_calls) << how;
    EXPECT_EQ(stats.pruned, pruned) << how;
    EXPECT_EQ(stats.pattern_matches, matches) << how;
  };

  catalog.value().ResetStats();
  std::vector<QueryResult> serial;
  for (const graph::Graph& g : holdout.graphs()) {
    serial.push_back(catalog.value().Query(g, config));
  }
  expect_totals(serial, catalog.value().Snapshot(), "serial");

  catalog.value().ResetStats();
  config.num_threads = 4;
  const std::vector<QueryResult> batch =
      catalog.value().QueryBatch(holdout.graphs(), config);
  expect_totals(batch, catalog.value().Snapshot(), "batch at 4 threads");
}

TEST(PatternCatalogTest, ArtifactWithoutClassifierServesMatchesOnly) {
  const Fixture& f = SharedFixture();
  model::ModelArtifact artifact = f.artifact;
  artifact.classifier = classify::SigKnnModel{};
  auto catalog = PatternCatalog::FromArtifact(std::move(artifact));
  ASSERT_TRUE(catalog.ok());
  EXPECT_FALSE(catalog.value().has_classifier());
  const QueryResult r = catalog.value().Query(f.db.graph(0));
  EXPECT_FALSE(r.has_score);
  EXPECT_EQ(r.score, 0.0);
}

TEST(PatternCatalogTest, RejectsEmptyPatternGraph) {
  model::ModelArtifact artifact;
  artifact.catalog.emplace_back();  // empty subgraph
  auto catalog = PatternCatalog::FromArtifact(std::move(artifact));
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(LatencySummaryTest, NearestRankPercentiles) {
  std::vector<double> latencies;
  for (int i = 100; i >= 1; --i) latencies.push_back(i);  // 1..100 shuffled
  const LatencySummary s = SummarizeLatencies(latencies, 2.0);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50_ms, 50.0);
  EXPECT_EQ(s.p95_ms, 95.0);
  EXPECT_EQ(s.max_ms, 100.0);
  EXPECT_EQ(s.qps, 50.0);
  EXPECT_EQ(s.wall_seconds, 2.0);
}

TEST(LatencySummaryTest, EmptyAndSingle) {
  const LatencySummary empty = SummarizeLatencies({}, 1.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.qps, 0.0);
  const LatencySummary one = SummarizeLatencies({3.5}, 0.0);
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.p50_ms, 3.5);
  EXPECT_EQ(one.p95_ms, 3.5);
  EXPECT_EQ(one.qps, 0.0);
}

}  // namespace
}  // namespace graphsig::serve
