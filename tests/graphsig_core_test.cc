#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "core/graphsig.h"
#include "core/mine_pipeline.h"
#include "data/datasets.h"
#include "data/elements.h"
#include "data/generator.h"
#include "data/motifs.h"
#include "fsm/dfs_code.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"

namespace graphsig::core {
namespace {

// A compact planted database: `planted` of the `total` molecules carry
// the motif; all molecules are small so the pipeline runs in ms.
graph::GraphDatabase PlantedDb(const graph::Graph& motif, int total,
                               int planted, uint64_t seed) {
  util::Rng rng(seed);
  data::MoleculeGenConfig gen;
  gen.min_atoms = 8;
  gen.max_atoms = 14;
  graph::GraphDatabase db;
  for (int i = 0; i < total; ++i) {
    graph::Graph g = data::GenerateMolecule(gen, &rng);
    g.set_id(i);
    if (i < planted) {
      data::PlantMotif(&g, motif, &rng);
      g.set_tag(1);
    }
    db.Add(std::move(g));
  }
  return db;
}

GraphSigConfig FastConfig() {
  GraphSigConfig config;
  config.cutoff_radius = 4;
  config.min_freq_percent = 1.0;
  config.max_pvalue = 0.05;
  config.fsm_max_edges = 15;
  return config;
}

TEST(GraphSigTest, RecoversPlantedMotif) {
  const graph::Graph motif = data::AztCoreMotif();
  graph::GraphDatabase db = PlantedDb(motif, 80, 16, 555);
  GraphSig miner(FastConfig());
  GraphSigResult result = miner.Mine(db);
  ASSERT_FALSE(result.subgraphs.empty());
  // Some mined significant subgraph must capture the planted core: a
  // pattern of >= 4 edges contained in the motif or containing it.
  bool recovered = false;
  for (const SignificantSubgraph& sg : result.subgraphs) {
    if (sg.subgraph.num_edges() < 4) continue;
    if (graph::IsSubgraphIsomorphic(sg.subgraph, motif) ||
        graph::IsSubgraphIsomorphic(motif, sg.subgraph)) {
      recovered = true;
      break;
    }
  }
  EXPECT_TRUE(recovered);
}

TEST(GraphSigTest, ResultInvariantsHold) {
  const graph::Graph motif = data::FdtCoreMotif();
  graph::GraphDatabase db = PlantedDb(motif, 60, 12, 556);
  GraphSigConfig config = FastConfig();
  GraphSig miner(config);
  GraphSigResult result = miner.Mine(db);

  std::set<std::string> canonicals;
  for (const SignificantSubgraph& sg : result.subgraphs) {
    // Deduplicated by canonical form.
    EXPECT_TRUE(canonicals.insert(fsm::CanonicalCode(sg.subgraph)).second);
    // Vector evidence respects the thresholds.
    EXPECT_LE(sg.vector_pvalue, config.max_pvalue);
    EXPECT_GE(sg.vector_support, 1);
    // Set support honors the 80% relative threshold.
    EXPECT_GE(sg.set_support,
              std::max<int64_t>(2, static_cast<int64_t>(
                  std::ceil(0.8 * sg.set_size))));
    EXPECT_TRUE(sg.subgraph.IsConnected());
    EXPECT_GE(sg.subgraph.num_edges(), 1);
  }
  // Sorted by ascending p-value.
  for (size_t i = 1; i < result.subgraphs.size(); ++i) {
    EXPECT_LE(result.subgraphs[i - 1].vector_pvalue,
              result.subgraphs[i].vector_pvalue);
  }
  // Profile and stats sanity.
  EXPECT_GT(result.profile.rwr_seconds, 0.0);
  EXPECT_GE(result.profile.feature_seconds, 0.0);
  EXPECT_GE(result.profile.fsm_seconds, 0.0);
  EXPECT_GE(result.profile.total_seconds,
            result.profile.rwr_seconds + result.profile.feature_seconds);
  EXPECT_GT(result.stats.num_vectors, 0);
  EXPECT_GT(result.stats.num_groups, 0);
  EXPECT_GE(result.stats.num_sets_mined, result.stats.num_sets_filtered);
}

TEST(GraphSigTest, DbFrequencyIsExact) {
  const graph::Graph motif = data::MetalloidMotif(data::kAntimony);
  graph::GraphDatabase db = PlantedDb(motif, 50, 10, 557);
  GraphSig miner(FastConfig());
  GraphSigResult result = miner.Mine(db);
  int checked = 0;
  for (const SignificantSubgraph& sg : result.subgraphs) {
    int64_t expected = 0;
    for (const graph::Graph& g : db.graphs()) {
      expected += graph::IsSubgraphIsomorphic(sg.subgraph, g);
    }
    EXPECT_EQ(sg.db_frequency, expected);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// A region set whose gSpan run hit the pattern cap reaches the stats and
// the deterministic mine/region_sets_capped counter.
TEST(GraphSigTest, MergeCountsCappedSets) {
  obs::Counter* const capped =
      obs::MetricsRegistry::Global().GetCounter("mine/region_sets_capped");
  const uint64_t before = capped->value();
  std::map<std::string, SignificantSubgraph> dedup;
  GraphSigStats stats;
  pipeline::RegionTaskOutput complete;
  pipeline::RegionTaskOutput stopped;
  stopped.capped = true;
  pipeline::MergeRegionOutput(std::move(complete), &dedup, &stats);
  pipeline::MergeRegionOutput(std::move(stopped), &dedup, &stats);
  EXPECT_EQ(stats.num_sets_mined, 2);
  EXPECT_EQ(stats.num_sets_capped, 1);
  EXPECT_EQ(capped->value() - before, 1u);
}

TEST(GraphSigTest, FrequencyComputationIsOptional) {
  const graph::Graph motif = data::FdtCoreMotif();
  graph::GraphDatabase db = PlantedDb(motif, 40, 8, 558);
  GraphSigConfig config = FastConfig();
  config.compute_db_frequency = false;
  GraphSig miner(config);
  GraphSigResult result = miner.Mine(db);
  for (const SignificantSubgraph& sg : result.subgraphs) {
    EXPECT_EQ(sg.db_frequency, -1);
  }
}

TEST(GraphSigTest, SignificantVectorsSupportingSetsAreDominators) {
  const graph::Graph motif = data::AztCoreMotif();
  graph::GraphDatabase db = PlantedDb(motif, 40, 10, 559);
  GraphSigConfig config = FastConfig();
  GraphSig miner(config);
  GraphSigProfile profile;
  auto significant = miner.MineSignificantVectors(db, &profile);
  EXPECT_GT(profile.rwr_seconds, 0.0);

  // Recompute the node vectors to validate the supporting indices.
  auto fs = features::FeatureSpace::ForChemicalDatabase(db,
                                                        config.top_k_atoms);
  auto node_vectors = features::DatabaseToVectors(db, fs, config.rwr);
  for (const auto& [label, sv] : significant) {
    EXPECT_LE(sv.p_value, config.max_pvalue);
    for (int32_t idx : sv.supporting) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, static_cast<int32_t>(node_vectors.size()));
      EXPECT_EQ(node_vectors[idx].node_label, label);
      EXPECT_TRUE(features::IsSubVector(sv.vector, node_vectors[idx].values));
    }
  }
}

TEST(GraphSigTest, BenzeneIsNotSignificant) {
  // Benzene is planted everywhere (70%): frequent but expected, so the
  // priors absorb it and it must not surface as a low-p-value pattern.
  data::DatasetOptions options;
  options.size = 120;
  options.seed = 21;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  GraphSigConfig config = FastConfig();
  GraphSig miner(config);
  GraphSigResult result = miner.Mine(db);
  const graph::Graph benzene = data::BenzeneMotif();
  for (const SignificantSubgraph& sg : result.subgraphs) {
    EXPECT_FALSE(graph::AreIsomorphic(sg.subgraph, benzene));
  }
}

}  // namespace
}  // namespace graphsig::core
