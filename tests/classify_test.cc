#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "classify/auc.h"
#include "classify/evaluation.h"
#include "classify/hungarian.h"
#include "classify/leap.h"
#include "classify/oa_kernel.h"
#include "classify/sig_knn.h"
#include "classify/svm.h"
#include "data/datasets.h"
#include "util/rng.h"

namespace graphsig::classify {
namespace {

TEST(AucTest, PerfectAndInvertedRanking) {
  std::vector<ScoredExample> perfect = {
      {0.9, true}, {0.8, true}, {0.2, false}, {0.1, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(perfect), 1.0);
  std::vector<ScoredExample> inverted = {
      {0.9, false}, {0.8, false}, {0.2, true}, {0.1, true}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(inverted), 0.0);
}

TEST(AucTest, AllTiedScoresGiveHalf) {
  std::vector<ScoredExample> tied = {
      {0.5, true}, {0.5, false}, {0.5, true}, {0.5, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(tied), 0.5);
}

TEST(AucTest, HandComputedMixedCase) {
  // Positives at 0.8, 0.4; negatives at 0.6, 0.2.
  // Pairs won: (0.8 vs both) = 2, (0.4 vs 0.2) = 1 -> 3/4.
  std::vector<ScoredExample> mixed = {
      {0.8, true}, {0.6, false}, {0.4, true}, {0.2, false}};
  EXPECT_DOUBLE_EQ(AreaUnderRoc(mixed), 0.75);
}

TEST(AucTest, RandomScoresNearHalf) {
  util::Rng rng(77);
  std::vector<ScoredExample> examples;
  for (int i = 0; i < 4000; ++i) {
    examples.push_back({rng.NextDouble(), rng.NextBernoulli(0.3)});
  }
  EXPECT_NEAR(AreaUnderRoc(examples), 0.5, 0.03);
}

TEST(AucTest, RocCurveEndpoints) {
  std::vector<ScoredExample> examples = {
      {0.9, true}, {0.7, false}, {0.5, true}, {0.1, false}};
  auto curve = RocCurve(examples);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().false_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 1.0);
  // Monotone non-decreasing in both axes.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].false_positive_rate,
              curve[i - 1].false_positive_rate);
    EXPECT_GE(curve[i].true_positive_rate, curve[i - 1].true_positive_rate);
  }
}

TEST(HungarianTest, KnownOptimum) {
  // Max-weight assignment must pick the anti-diagonal here.
  std::vector<std::vector<double>> scores = {
      {1.0, 5.0},
      {5.0, 1.0},
  };
  auto assignment = MaxWeightAssignment(scores);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
  EXPECT_DOUBLE_EQ(AssignmentValue(scores, assignment), 10.0);
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  util::Rng rng(88);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(5));
    std::vector<std::vector<double>> scores(n, std::vector<double>(n));
    for (auto& row : scores) {
      for (double& x : row) x = rng.NextDouble();
    }
    auto assignment = MaxWeightAssignment(scores);
    const double got = AssignmentValue(scores, assignment);
    // Brute force over all permutations.
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    double best = -1.0;
    do {
      double value = 0.0;
      for (int i = 0; i < n; ++i) value += scores[i][perm[i]];
      best = std::max(best, value);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(got, best, 1e-9) << "n=" << n << " trial=" << trial;
  }
}

TEST(SvmTest, SeparatesLinearlySeparableData) {
  // Points on a line: x > 0 positive, x < 0 negative.
  std::vector<std::vector<double>> examples;
  std::vector<int> labels;
  util::Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.NextDouble() * 2.0 - 1.0;
    const double y = rng.NextDouble();
    if (std::fabs(x) < 0.1) continue;  // margin gap
    examples.push_back({x, y});
    labels.push_back(x > 0 ? 1 : -1);
  }
  LinearSvm svm;
  svm.Train(examples, labels);
  int correct = 0;
  for (size_t i = 0; i < examples.size(); ++i) {
    correct += (svm.Decision(examples[i]) > 0) == (labels[i] > 0);
  }
  EXPECT_GE(static_cast<double>(correct) / examples.size(), 0.95);
}

TEST(SvmTest, KernelSvmWithPrecomputedGram) {
  // 1-D separable data through an explicit linear gram matrix.
  std::vector<double> xs = {-2.0, -1.5, -1.0, 1.0, 1.5, 2.0};
  std::vector<int> labels = {-1, -1, -1, 1, 1, 1};
  const size_t n = xs.size();
  std::vector<std::vector<double>> gram(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) gram[i][j] = xs[i] * xs[j];
  }
  KernelSvm svm;
  svm.Train(gram, labels);
  for (size_t q = 0; q < n; ++q) {
    std::vector<double> row(n);
    for (size_t i = 0; i < n; ++i) row[i] = xs[q] * xs[i];
    EXPECT_EQ(svm.Decision(row) > 0, labels[q] > 0) << q;
  }
}

TEST(GTestScoreTest, ZeroWhenRatesEqualAndGrowsWithGap) {
  EXPECT_NEAR(GTestScore(0.3, 0.3, 100), 0.0, 1e-9);
  const double small_gap = GTestScore(0.4, 0.3, 100);
  const double large_gap = GTestScore(0.8, 0.1, 100);
  EXPECT_GT(small_gap, 0.0);
  EXPECT_GT(large_gap, small_gap);
  // Symmetric-ish in direction: discriminative either way scores > 0.
  EXPECT_GT(GTestScore(0.1, 0.8, 100), 0.0);
}

TEST(MinDistTest, PaperWorkedExample) {
  // Table I query vectors vs Table III training vectors.
  features::FeatureVec v1 = {1, 0, 0, 2};
  features::FeatureVec v2 = {1, 1, 0, 2};
  features::FeatureVec v3 = {2, 0, 1, 2};
  features::FeatureVec v4 = {1, 0, 1, 0};
  std::vector<features::FeatureVec> neg = {
      {0, 0, 1, 1}, {0, 1, 0, 0}, {1, 1, 0, 1}};
  std::vector<features::FeatureVec> pos = {
      {2, 0, 1, 3}, {1, 0, 0, 0}, {0, 0, 0, 1}};
  // v1: no negative is a sub-vector; P2 and P3 are both at distance 2.
  EXPECT_TRUE(std::isinf(MinDistToSubVector(v1, neg)));
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v1, pos), 2.0);
  // v2: N3 is a sub-vector at distance 1 (the paper's closest).
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v2, neg), 1.0);
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v2, pos), 3.0);
  // v4: P2 at distance 1; no negative applies.
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v4, pos), 1.0);
  EXPECT_TRUE(std::isinf(MinDistToSubVector(v4, neg)));
  // v3: N1 at distance 3 beats the positives at 4.
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v3, neg), 3.0);
  EXPECT_DOUBLE_EQ(MinDistToSubVector(v3, pos), 4.0);
}

// --- The sub-vector index against its brute-force oracle.

// Slots in [1, 10], each zero with probability `zero_p`.
features::FeatureVec RandomSlots(util::Rng& rng, size_t width,
                                 double zero_p) {
  features::FeatureVec v(width, 0);
  for (int16_t& slot : v) {
    if (!rng.NextBernoulli(zero_p)) {
      slot = static_cast<int16_t>(rng.NextInt(1, 10));
    }
  }
  return v;
}

TEST(SubVectorIndexTest, MatchesBruteForceOnRandomSets) {
  util::Rng rng(1729);
  int hits = 0, misses = 0;
  // Widths around the 64-slot mask-word boundaries, plus 79 (the served
  // model's width).
  for (size_t width : {1, 63, 64, 65, 79, 128, 129}) {
    for (int trial = 0; trial < 12; ++trial) {
      const size_t size = trial == 0 ? 0 : 1 + rng.NextBounded(60);
      std::vector<features::FeatureVec> set;
      for (size_t i = 0; i < size; ++i) {
        set.push_back(RandomSlots(rng, width, 0.8));
      }
      // Duplicate rows, and rotated rows: equal sums, other vectors.
      for (size_t i = 0; i < size / 4; ++i) {
        set.push_back(set[rng.NextBounded(size)]);
        features::FeatureVec rotated = set[rng.NextBounded(size)];
        std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
        set.push_back(std::move(rotated));
      }
      rng.Shuffle(&set);
      const SubVectorIndex index(set);

      std::vector<features::FeatureVec> queries = {
          features::FeatureVec(width, 0)};
      for (int q = 0; q < 20; ++q) {
        queries.push_back(RandomSlots(rng, width, 0.4));
      }
      // A member, or a member raised in one slot, is always a hit.
      for (size_t i = 0; i < std::min<size_t>(set.size(), 10); ++i) {
        features::FeatureVec x = set[i];
        if (i % 2 == 1) {
          int16_t& slot = x[rng.NextBounded(width)];
          slot = static_cast<int16_t>(slot + rng.NextInt(1, 3));
        }
        queries.push_back(std::move(x));
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        const double expected = MinDistToSubVector(queries[q], set);
        EXPECT_EQ(index.MinDist(queries[q]), expected)
            << "width " << width << " trial " << trial << " query " << q;
        ++(std::isinf(expected) ? misses : hits);
      }
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);

  // A stored slot may be negative (an artifact can hold any int16). The
  // mask marks slots > 0, so {0, -1, 0} still counts as a sub-vector of
  // the all-zero x.
  const std::vector<features::FeatureVec> signed_set = {
      {-2, 0, 3}, {0, -1, 0}, {1, -3, -1}};
  const SubVectorIndex signed_index(signed_set);
  for (const features::FeatureVec& x : std::vector<features::FeatureVec>{
           {0, 0, 0}, {0, 0, 3}, {1, 0, 0}, {-2, 0, 3}, {-3, -3, -3}}) {
    EXPECT_EQ(signed_index.MinDist(x), MinDistToSubVector(x, signed_set));
  }
  EXPECT_EQ(signed_index.MinDist({0, 0, 0}), 1.0);

  // Width 0: rows with no slots at all, each a sub-vector of the empty x.
  const std::vector<features::FeatureVec> no_slots = {{}, {}};
  EXPECT_EQ(SubVectorIndex(no_slots).MinDist({}),
            MinDistToSubVector({}, no_slots));
}

// --- End-to-end classifier quality on a planted dataset.

graph::GraphDatabase SmallScreen(uint64_t seed, size_t size) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  options.active_fraction = 0.20;  // denser actives keep the test small
  options.molecule.min_atoms = 8;
  options.molecule.max_atoms = 16;
  return data::MakeCancerScreen("MCF-7", options);
}

SigKnnConfig FastSigConfig() {
  SigKnnConfig config;
  config.mining.cutoff_radius = 4;
  config.mining.min_freq_percent = 2.0;
  config.mining.max_pvalue = 0.1;
  return config;
}

TEST(GraphSigClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(321, 240);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.5, 9);
  GraphSigClassifier classifier(FastSigConfig());
  classifier.Train(train);
  EXPECT_FALSE(classifier.positive_vectors().empty());

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.70);
}

TEST(LeapClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(322, 200);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.5, 10);
  LeapConfig config;
  config.min_support_percent = 10.0;
  config.max_edges = 6;
  LeapClassifier classifier(config);
  classifier.Train(train);
  EXPECT_FALSE(classifier.patterns().empty());
  EXPECT_LE(classifier.patterns().size(), config.top_k_patterns);

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.65);
}

TEST(OaKernelClassifierTest, LearnsPlantedSignal) {
  graph::GraphDatabase db = SmallScreen(323, 120);
  graph::GraphDatabase train = BalancedTrainingSample(db, 0.4, 11);
  OaKernelClassifier classifier;
  classifier.Train(train);

  std::vector<ScoredExample> scored;
  for (const graph::Graph& g : db.graphs()) {
    scored.push_back({classifier.Score(g), g.tag() == 1});
  }
  EXPECT_GT(AreaUnderRoc(scored), 0.60);
}

TEST(OaKernelTest, KernelProperties) {
  graph::GraphDatabase db = SmallScreen(324, 20);
  auto space = features::FeatureSpace::ForChemicalDatabase(db, 5);
  features::RwrConfig rwr;
  auto describe = [&](const graph::Graph& g) {
    GraphDescriptor d;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      d.push_back({g.vertex_label(v),
                   features::RwrFeatureDistribution(g, v, space, rwr)});
    }
    return d;
  };
  auto a = describe(db.graph(0));
  auto b = describe(db.graph(1));
  const double kab = OaKernelValue(a, b, 8.0);
  const double kba = OaKernelValue(b, a, 8.0);
  EXPECT_NEAR(kab, kba, 1e-9);  // symmetry
  const double kaa = OaKernelValue(a, a, 8.0);
  // Self-assignment is ideal: every node matches itself with score 1.
  EXPECT_NEAR(kaa, static_cast<double>(a.size()) / a.size(), 1e-9);
  EXPECT_LE(kab, 1.0 + 1e-9);
  EXPECT_GE(kab, 0.0);
}

TEST(EvaluationTest, CrossValidateShapesAndDeterminism) {
  graph::GraphDatabase db = SmallScreen(325, 150);
  EvalOptions options;
  options.folds = 3;
  options.active_train_fraction = 0.5;
  options.seed = 5;
  auto factory = [] {
    return std::make_unique<GraphSigClassifier>(FastSigConfig());
  };
  EvalSummary a = CrossValidate(db, factory, options);
  ASSERT_EQ(a.folds.size(), 3u);
  for (const FoldOutcome& f : a.folds) {
    EXPECT_GT(f.train_size, 0u);
    EXPECT_GT(f.test_size, 0u);
    EXPECT_GE(f.auc, 0.0);
    EXPECT_LE(f.auc, 1.0);
  }
  EXPECT_GE(a.mean_auc, 0.5);  // planted signal, should beat chance
  EvalSummary b = CrossValidate(db, factory, options);
  EXPECT_DOUBLE_EQ(a.mean_auc, b.mean_auc);  // same seed, same folds
}

TEST(EvaluationTest, BalancedSampleIsBalanced) {
  graph::GraphDatabase db = SmallScreen(326, 200);
  graph::GraphDatabase sample = BalancedTrainingSample(db, 0.3, 17);
  size_t pos = 0, neg = 0;
  for (const graph::Graph& g : sample.graphs()) {
    (g.tag() == 1 ? pos : neg) += 1;
  }
  EXPECT_EQ(pos, neg);
  EXPECT_GT(pos, 0u);
}

}  // namespace
}  // namespace graphsig::classify
