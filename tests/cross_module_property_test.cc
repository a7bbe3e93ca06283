#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "classify/sig_knn.h"
#include "data/datasets.h"
#include "data/generator.h"
#include "features/rwr.h"
#include "features/selection.h"
#include "fsm/dfs_code.h"
#include "fsm/miner.h"
#include "graph/io.h"
#include "util/rng.h"

namespace graphsig {
namespace {

// --- gSpan-format I/O round-trips on random molecule databases.
class GSpanIoRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(GSpanIoRoundTripTest, RandomDatabaseRoundTrips) {
  data::DatasetOptions options;
  options.size = 12;
  options.seed = 7100 + GetParam();
  options.active_fraction = 0.25;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  std::ostringstream os;
  graph::WriteGSpanText(db, os);
  auto back = graph::ParseGSpanText(os.str(), nullptr, nullptr);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back.value().graph(i), db.graph(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GSpanIoRoundTripTest,
                         ::testing::Range(0, 8));

// --- RWR invariants across alpha × bins, on two generated molecules.
class RwrInvariantTest
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(RwrInvariantTest, DistributionAndDiscretizationInvariants) {
  const auto [alpha, bins, molecule] = GetParam();
  util::Rng rng(7300 + molecule);
  data::MoleculeGenConfig gen;
  graph::Graph g = data::GenerateMolecule(gen, &rng);
  graph::GraphDatabase db;
  db.Add(g);
  auto fs = features::FeatureSpace::ForChemicalDatabase(db, 5);
  features::RwrConfig config;
  config.restart_prob = alpha;
  config.bins = bins;
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 3) {
    auto p = features::RwrStationaryDistribution(g, v, config);
    const double mass = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(mass, 1.0, 1e-6);
    for (double x : p) EXPECT_GE(x, 0.0);
    // The restart keeps at least alpha of the mass at the source, so
    // from alpha = 0.5 on the source holds the largest share. Molecule 0
    // keeps it from alpha = 0.25 on; molecule 1 does not.
    EXPECT_GE(p[v], alpha);
    if (alpha >= 0.5 || (alpha >= 0.25 && molecule == 0)) {
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
        EXPECT_LE(p[u], p[v] + 1e-9);
      }
    }
    auto dist = features::RwrFeatureDistribution(g, v, fs, config);
    const double dmass = std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_TRUE(dmass == 0.0 || std::abs(dmass - 1.0) < 1e-6);
    auto vec = features::Discretize(dist, bins);
    for (int16_t x : vec) {
      EXPECT_GE(x, 0);
      EXPECT_LE(x, bins);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RwrInvariantTest,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5, 0.9),
                       ::testing::Values(5, 10, 20),
                       ::testing::Values(0, 1)));

// --- Miners agree on molecule-shaped databases too (beyond the uniform
// random graphs of fsm_test).
class MoleculeMinerAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MoleculeMinerAgreementTest, GSpanEqualsApriori) {
  data::DatasetOptions options;
  options.size = 12;
  options.seed = 7400 + GetParam();
  graph::GraphDatabase db = data::MakeAidsLike(options);
  fsm::MinerConfig config;
  config.min_support = 6;
  config.max_edges = 3;
  auto canon = [](const fsm::MineResult& r) {
    std::map<std::string, int64_t> out;
    for (const fsm::Pattern& p : r.patterns) {
      out[fsm::CanonicalCode(p.graph)] = p.support;
    }
    return out;
  };
  EXPECT_EQ(canon(fsm::MineFrequentGSpan(db, config)),
            canon(fsm::MineFrequentApriori(db, config)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoleculeMinerAgreementTest,
                         ::testing::Range(0, 6));

// --- Swapping the class tags swaps the learned vector sets exactly
// (scores are NOT exactly negated because Algorithm 3 tie-breaks toward
// the positive class), and training is deterministic.
TEST(ClassifierPropertyTest, SwappingClassesSwapsVectorSets) {
  data::DatasetOptions options;
  options.size = 120;
  options.seed = 7500;
  options.active_fraction = 0.3;
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 14;
  graph::GraphDatabase db = data::MakeCancerScreen("P388", options);

  graph::GraphDatabase swapped = db;
  for (size_t i = 0; i < swapped.size(); ++i) {
    swapped.mutable_graph(i).set_tag(1 - swapped.mutable_graph(i).tag());
  }
  classify::SigKnnConfig config;
  config.mining.cutoff_radius = 3;
  config.mining.min_freq_percent = 3.0;
  classify::GraphSigClassifier normal(config);
  normal.Train(db);
  classify::GraphSigClassifier flipped(config);
  flipped.Train(swapped);
  auto sorted = [](std::vector<features::FeatureVec> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(normal.positive_vectors()),
            sorted(flipped.negative_vectors()));
  EXPECT_EQ(sorted(normal.negative_vectors()),
            sorted(flipped.positive_vectors()));

  classify::GraphSigClassifier again(config);
  again.Train(db);
  for (size_t i = 0; i < db.size(); i += 11) {
    EXPECT_DOUBLE_EQ(normal.Score(db.graph(i)), again.Score(db.graph(i)));
  }
}

// --- Eq. 2 subgraph feature selection.
TEST(SubgraphFeatureSelectionTest, SelectsFrequentDiverseFeatures) {
  data::DatasetOptions options;
  options.size = 60;
  options.seed = 7600;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  features::SubgraphFeatureOptions sel;
  sel.min_support_percent = 20.0;
  sel.max_edges = 3;
  sel.k = 8;
  auto selected = features::SelectSubgraphFeatures(db, sel);
  ASSERT_FALSE(selected.empty());
  EXPECT_LE(selected.size(), 8u);
  std::set<std::vector<int32_t>> signatures;
  for (const fsm::Pattern& p : selected) {
    EXPECT_GE(p.support, fsm::SupportFromPercent(20.0, db.size()));
    signatures.insert(p.supporting);
  }
  // The redundancy penalty must prevent k copies of one support set.
  EXPECT_GT(signatures.size(), 1u);
  // First pick is the single most frequent candidate.
  for (const fsm::Pattern& p : selected) {
    EXPECT_LE(p.support, selected[0].support);
  }
}

TEST(SubgraphFeatureSelectionTest, EmptyWhenNothingFrequent) {
  graph::GraphDatabase db;
  graph::Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddEdge(0, 1, 0);
  db.Add(g);
  features::SubgraphFeatureOptions sel;
  sel.min_support_percent = 200.0;  // unattainable
  EXPECT_TRUE(features::SelectSubgraphFeatures(db, sel).empty());
}

}  // namespace
}  // namespace graphsig
