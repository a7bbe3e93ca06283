#include <gtest/gtest.h>

#include <numeric>

#include "features/feature_space.h"
#include "features/feature_vector.h"
#include "features/packed_vector_set.h"
#include "features/rwr.h"
#include "features/selection.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace graphsig::features {
namespace {

using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

// Labels: 0 = C, 1 = N, 2 = O, 3 = S. Edge labels: 0 = single, 1 = double.
GraphDatabase ToyChemDb() {
  GraphDatabase db;
  // C-C-N with a double bond to O on the middle C.
  Graph g1(0);
  g1.AddVertex(0);
  g1.AddVertex(0);
  g1.AddVertex(1);
  g1.AddVertex(2);
  g1.AddEdge(0, 1, 0);
  g1.AddEdge(1, 2, 0);
  g1.AddEdge(1, 3, 1);
  db.Add(g1);
  // C-S chain: S is rare.
  Graph g2(1);
  g2.AddVertex(0);
  g2.AddVertex(3);
  g2.AddEdge(0, 1, 0);
  db.Add(g2);
  return db;
}

TEST(FeatureSpaceTest, ChemicalRecipeIncludesAllAtomsAndTopKEdges) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, /*top_k_atoms=*/2);
  // 4 atom types.
  EXPECT_EQ(fs.num_vertex_features(), 4u);
  // Top-2 atoms are C (3 occurrences) and N or O (1 each; N=1 wins by
  // label order). Edge types among {C, N}: C-C single, C-N single.
  EXPECT_GE(fs.num_edge_features(), 2u);
  EXPECT_GE(fs.VertexFeature(0), 0);
  EXPECT_GE(fs.VertexFeature(3), 0);
  EXPECT_EQ(fs.VertexFeature(99), -1);
  EXPECT_GE(fs.EdgeFeature(0, 0, 0), 0);
  EXPECT_GE(fs.EdgeFeature(1, 0, 0), 0);  // order-insensitive
  EXPECT_EQ(fs.EdgeFeature(0, 3, 0), -1);  // S not in top-2
}

TEST(FeatureSpaceTest, SlotLayoutIsStable) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  // Vertex features occupy [0, num_vertex); edge features after.
  for (Label l : {0, 1, 2, 3}) {
    int slot = fs.VertexFeature(l);
    ASSERT_GE(slot, 0);
    EXPECT_LT(slot, static_cast<int>(fs.num_vertex_features()));
  }
  int eslot = fs.EdgeFeature(0, 0, 0);
  EXPECT_GE(eslot, static_cast<int>(fs.num_vertex_features()));
  EXPECT_LT(eslot, static_cast<int>(fs.size()));
}

TEST(FeatureSpaceTest, FeatureNamesAreReadable) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  bool saw_atom = false, saw_edge = false;
  for (size_t s = 0; s < fs.size(); ++s) {
    std::string name = fs.FeatureName(s);
    saw_atom |= name.rfind("atom:", 0) == 0;
    saw_edge |= name.rfind("edge:", 0) == 0;
  }
  EXPECT_TRUE(saw_atom);
  EXPECT_TRUE(saw_edge);
}

TEST(FeatureVectorTest, SubVectorDefinition) {
  FeatureVec x = {1, 0, 2};
  FeatureVec y = {1, 1, 2};
  EXPECT_TRUE(IsSubVector(x, y));
  EXPECT_FALSE(IsSubVector(y, x));
  EXPECT_TRUE(IsSubVector(x, x));
}

TEST(FeatureVectorTest, PaperTableIExamples) {
  // Table I: v4 ⊆ v3 but v2 ⊄ v3.
  FeatureVec v2 = {1, 1, 0, 2};
  FeatureVec v3 = {2, 0, 1, 2};
  FeatureVec v4 = {1, 0, 1, 0};
  EXPECT_TRUE(IsSubVector(v4, v3));
  EXPECT_FALSE(IsSubVector(v2, v3));
}

TEST(FeatureVectorTest, FloorAndCeiling) {
  std::vector<FeatureVec> vs = {{1, 4, 0}, {2, 1, 3}};
  std::vector<int32_t> both = {0, 1};
  FeatureVec floor, ceiling;
  FloorInto(vs.data(), both, &floor);
  CeilingInto(vs.data(), both, &ceiling);
  EXPECT_EQ(floor, (FeatureVec{1, 1, 0}));
  EXPECT_EQ(ceiling, (FeatureVec{2, 4, 3}));
}

// ---------------------------------------------------------------------------
// PackedVectorSet: the word-parallel kernels must agree with the scalar
// reference (IsSubVector / FloorInto / CeilingInto) on every input.
// ---------------------------------------------------------------------------

std::vector<FeatureVec> RandomVectors(uint64_t seed, size_t n, size_t width,
                                      int max_value) {
  util::Rng rng(seed);
  std::vector<FeatureVec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FeatureVec v(width);
    for (auto& x : v) {
      x = static_cast<int16_t>(rng.NextBounded(max_value + 1));
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(PackedVectorSetTest, RoundTripPreservesValues) {
  for (size_t width : {1u, 5u, 15u, 16u, 17u, 31u, 32u, 48u}) {
    auto vs = RandomVectors(100 + width, 20, width, 15);
    auto packed = PackedVectorSet::FromVectors(vs);
    ASSERT_EQ(packed.size(), vs.size());
    ASSERT_EQ(packed.width(), width);
    for (size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(packed.Unpack(static_cast<int32_t>(i)), vs[i])
          << "width=" << width << " i=" << i;
      for (size_t s = 0; s < width; ++s) {
        EXPECT_EQ(packed.at(static_cast<int32_t>(i), s), vs[i][s]);
      }
    }
  }
}

TEST(PackedVectorSetTest, DominatesMatchesScalarReference) {
  // 1k seeded random pairs across widths, plus the degenerate extremes.
  for (size_t width : {1u, 7u, 16u, 23u, 48u}) {
    auto vs = RandomVectors(200 + width, 200, width, 3);
    vs.push_back(FeatureVec(width, 0));   // all-zero dominates everything
    vs.push_back(FeatureVec(width, 15));  // all-max dominated by nothing else
    auto packed = PackedVectorSet::FromVectors(vs);
    PackedOpStats stats;
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = 0; j < vs.size(); ++j) {
        const bool expected = IsSubVector(vs[i], vs[j]);
        const bool got = packed.Dominates(
            packed.row(static_cast<int32_t>(i)), static_cast<int32_t>(j),
            &stats);
        ASSERT_EQ(got, expected)
            << "width=" << width << " i=" << i << " j=" << j;
      }
    }
    EXPECT_GT(stats.words_compared, 0u);
  }
}

TEST(PackedVectorSetTest, FloorCeilingMatchScalarReference) {
  util::Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t width = 1 + rng.NextBounded(40);
    const size_t n = 2 + rng.NextBounded(10);
    auto vs = RandomVectors(3000 + trial, n, width, 15);
    auto packed = PackedVectorSet::FromVectors(vs);

    std::vector<int32_t> indices;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.6)) indices.push_back(static_cast<int32_t>(i));
    }
    if (indices.empty()) indices.push_back(0);

    FeatureVec want_floor, want_ceiling;
    FloorInto(vs.data(), indices, &want_floor);
    CeilingInto(vs.data(), indices, &want_ceiling);

    PackedOpStats stats;
    std::vector<uint64_t> floor_words(packed.words_per_vector());
    std::vector<uint64_t> ceiling_words(packed.words_per_vector());
    packed.FloorInto(indices, floor_words.data(), &stats);
    packed.CeilingInto(indices, ceiling_words.data(), &stats);
    EXPECT_EQ(UnpackWords(floor_words.data(), width), want_floor)
        << "trial=" << trial;
    EXPECT_EQ(UnpackWords(ceiling_words.data(), width), want_ceiling)
        << "trial=" << trial;
  }
}

TEST(PackedVectorSetTest, AllZeroAndAllMaxExtremes) {
  for (size_t width : {1u, 15u, 16u, 17u}) {
    std::vector<FeatureVec> vs = {FeatureVec(width, 0),
                                  FeatureVec(width, 15)};
    auto packed = PackedVectorSet::FromVectors(vs);
    PackedOpStats stats;
    EXPECT_TRUE(packed.Dominates(packed.row(0), 1, &stats));
    EXPECT_TRUE(packed.Dominates(packed.row(0), 0, &stats));
    EXPECT_TRUE(packed.Dominates(packed.row(1), 1, &stats));
    if (width > 0) {
      EXPECT_FALSE(packed.Dominates(packed.row(1), 0, &stats));
    }
    std::vector<int32_t> both = {0, 1};
    std::vector<uint64_t> floor_words(packed.words_per_vector());
    std::vector<uint64_t> ceiling_words(packed.words_per_vector());
    packed.FloorInto(both, floor_words.data(), &stats);
    packed.CeilingInto(both, ceiling_words.data(), &stats);
    EXPECT_EQ(UnpackWords(floor_words.data(), width), FeatureVec(width, 0));
    EXPECT_EQ(UnpackWords(ceiling_words.data(), width),
              FeatureVec(width, 15));
  }
}

TEST(PackedVectorSetTest, WordwisePruneCounterFires) {
  // Vectors that differ in the first word prune before later words are
  // touched; the counter must record it.
  const size_t width = 48;  // 3 words
  std::vector<FeatureVec> vs = {FeatureVec(width, 0), FeatureVec(width, 0)};
  vs[0][0] = 5;  // first slot of row 0 exceeds row 1
  auto packed = PackedVectorSet::FromVectors(vs);
  PackedOpStats stats;
  EXPECT_FALSE(packed.Dominates(packed.row(0), 1, &stats));
  EXPECT_EQ(stats.words_compared, 1u);
  EXPECT_EQ(stats.vectors_pruned_wordwise, 1u);
}

TEST(RwrTest, StationaryDistributionIsProbability) {
  GraphDatabase db = ToyChemDb();
  RwrConfig config;
  auto p = RwrStationaryDistribution(db.graph(0), 1, config);
  double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (double v : p) EXPECT_GE(v, 0.0);
  // The source holds the largest share.
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[1], p[3]);
}

TEST(RwrTest, SymmetricNeighborsGetEqualMass) {
  // Star: center 0, leaves 1..3, all same labels/edges.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(0, 2, 0);
  g.AddEdge(0, 3, 0);
  RwrConfig config;
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_NEAR(p[1], p[2], 1e-9);
  EXPECT_NEAR(p[2], p[3], 1e-9);
}

TEST(RwrTest, IsolatedNodeKeepsAllMass) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);  // no edges
  RwrConfig config;
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_NEAR(p[0], 1.0, 1e-9);
  EXPECT_EQ(p[1], 0.0);
}

TEST(RwrTest, CloserFeaturesGetMoreMass) {
  // Path: source C(0) - N(1) - ... - N(5): the near N arrival mass must
  // exceed the far one; RWR preserves proximity (Section II-C).
  Graph g;
  g.AddVertex(0);
  for (int i = 1; i <= 5; ++i) g.AddVertex(1);
  for (int i = 0; i < 5; ++i) g.AddEdge(i, i + 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace fs = FeatureSpace::VertexLabelsOnly(db);
  RwrConfig config;
  // Compare against a modified graph where the N chain is pushed one hop
  // further (insert a C): total N mass must drop.
  auto near_dist = RwrFeatureDistribution(g, 0, fs, config);

  Graph far;
  far.AddVertex(0);
  far.AddVertex(0);
  for (int i = 2; i <= 6; ++i) far.AddVertex(1);
  for (int i = 0; i < 6; ++i) far.AddEdge(i, i + 1, 0);
  auto far_dist = RwrFeatureDistribution(far, 0, fs, config);
  int n_slot = fs.VertexFeature(1);
  ASSERT_GE(n_slot, 0);
  EXPECT_GT(near_dist[n_slot], far_dist[n_slot]);
}

TEST(RwrTest, EdgeFeatureAbsorbsMassFromAtomFeature) {
  // With the C-C edge type as a feature, traversals of C-C edges must
  // feed the edge slot, not the C atom slot.
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace with_edge = FeatureSpace::ForChemicalDatabase(db, 2);
  RwrConfig config;
  auto dist = RwrFeatureDistribution(g, 0, with_edge, config);
  int c_slot = with_edge.VertexFeature(0);
  int e_slot = with_edge.EdgeFeature(0, 0, 0);
  ASSERT_GE(c_slot, 0);
  ASSERT_GE(e_slot, 0);
  EXPECT_EQ(dist[c_slot], 0.0);
  EXPECT_NEAR(dist[e_slot], 1.0, 1e-9);
}

TEST(RwrTest, DiscretizeMatchesPaperExamples) {
  // Paper: 0.07 -> 1 and 0.34 -> 3 with 10 bins.
  FeatureVec v = Discretize({0.07, 0.34, 0.0, 1.0, 0.96}, 10);
  EXPECT_EQ(v, (FeatureVec{1, 3, 0, 10, 10}));
}

TEST(RwrTest, DatabaseToVectorsProvenance) {
  GraphDatabase db = ToyChemDb();
  FeatureSpace fs = FeatureSpace::ForChemicalDatabase(db, 2);
  RwrConfig config;
  auto vectors = DatabaseToVectors(db, fs, config);
  ASSERT_EQ(vectors.size(), 6u);  // 4 + 2 nodes
  EXPECT_EQ(vectors[0].graph_index, 0);
  EXPECT_EQ(vectors[5].graph_index, 1);
  EXPECT_EQ(vectors[5].node, 1);
  EXPECT_EQ(vectors[5].node_label, 3);
  for (const NodeVector& nv : vectors) {
    EXPECT_EQ(nv.values.size(), fs.size());
  }
}

TEST(RwrTest, CountFeaturizerIgnoresProximity) {
  // The count featurizer gives near and far N chains identical mass, so
  // every node gets the same vector — exactly the structure loss RWR
  // avoids (compare with CloserFeaturesGetMoreMass above).
  Graph g;
  g.AddVertex(0);
  for (int i = 1; i <= 3; ++i) g.AddVertex(1);
  for (int i = 0; i < 3; ++i) g.AddEdge(i, i + 1, 0);
  GraphDatabase db;
  db.Add(g);
  FeatureSpace fs = FeatureSpace::VertexLabelsOnly(db);
  RwrConfig config;
  config.featurizer = Featurizer::kWindowCount;
  const FeatureVec counts =
      Discretize(CountFeatureDistribution(g, fs), config.bins);
  auto vectors = GraphToVectors(g, 0, fs, config);
  ASSERT_EQ(vectors.size(), 4u);
  for (const NodeVector& nv : vectors) EXPECT_EQ(nv.values, counts);
}

TEST(RwrTest, SweepCapEndsAWalkThatNeverConverges) {
  // restart_prob 1e-6 is legal. On one edge the walker's mass swings
  // between the two ends and the swing shrinks by only (1 - 1e-6) per
  // sweep, so no sweep moves less than the tolerance: the cap alone
  // ends the walk, whatever restart_prob an artifact carries.
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  RwrConfig config;
  config.restart_prob = 1e-6;
  obs::Counter* sweeps =
      obs::MetricsRegistry::Global().GetCounter("rwr/power_iterations");
  const uint64_t before = sweeps->value();
  auto p = RwrStationaryDistribution(g, 0, config);
  EXPECT_EQ(sweeps->value() - before, 1000u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
}

TEST(SelectionTest, CumulativeCoverageEndsAtHundred) {
  GraphDatabase db = ToyChemDb();
  auto coverage = CumulativeAtomCoverage(db);
  ASSERT_EQ(coverage.size(), 4u);
  EXPECT_EQ(coverage[0].label, 0);  // C most frequent
  EXPECT_NEAR(coverage.back().cumulative_percent, 100.0, 1e-9);
  for (size_t i = 1; i < coverage.size(); ++i) {
    EXPECT_GE(coverage[i].cumulative_percent,
              coverage[i - 1].cumulative_percent);
    EXPECT_GE(coverage[i - 1].count, coverage[i].count);
  }
}

TEST(SelectionTest, TopKAtoms) {
  GraphDatabase db = ToyChemDb();
  auto top1 = TopKAtoms(db, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0], 0);
  EXPECT_EQ(TopKAtoms(db, 100).size(), 4u);
}

TEST(SelectionTest, GreedyImportanceOnly) {
  std::vector<double> imp = {0.1, 0.9, 0.5};
  auto chosen = GreedySelect(
      3, 2, [&](size_t i) { return imp[i]; },
      [](size_t, size_t) { return 0.0; });
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1u);
  EXPECT_EQ(chosen[1], 2u);
}

TEST(SelectionTest, GreedyPenalizesRedundancy) {
  // Items 0 and 1 are near-duplicates with top importance; item 2 is
  // slightly worse but dissimilar — Eq. 2 must pick {0 or 1} then 2.
  std::vector<double> imp = {1.0, 0.99, 0.8};
  auto sim = [](size_t a, size_t b) {
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) return 1.0;
    return 0.0;
  };
  auto chosen = GreedySelect(3, 2, [&](size_t i) { return imp[i]; }, sim,
                             1.0, 1.0);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 0u);
  EXPECT_EQ(chosen[1], 2u);
}

}  // namespace
}  // namespace graphsig::features
