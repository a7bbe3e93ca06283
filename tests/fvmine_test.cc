#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fvmine/fvmine.h"
#include "util/rng.h"

namespace graphsig::fvmine {
namespace {

using features::FeatureVec;

// Scalar reference floor over population[indices].
FeatureVec FloorOf(const std::vector<FeatureVec>& population,
                   const std::vector<int32_t>& indices) {
  FeatureVec out;
  features::FloorInto(population.data(), indices, &out);
  return out;
}

// Ground truth by exhaustive subset enumeration: a closed vector is the
// floor of its own supporting set; candidates are floors of all subsets.
std::map<FeatureVec, std::vector<int32_t>> BruteForceClosedSignificant(
    const std::vector<FeatureVec>& population,
    const stats::FeaturePriors& priors, int64_t min_support,
    double max_pvalue) {
  const size_t n = population.size();
  std::map<FeatureVec, std::vector<int32_t>> out;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int32_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(static_cast<int32_t>(i));
    }
    FeatureVec floor = FloorOf(population, subset);
    // Supporting set of the floor over the whole population.
    std::vector<int32_t> supporting;
    for (size_t i = 0; i < n; ++i) {
      if (features::IsSubVector(floor, population[i])) {
        supporting.push_back(static_cast<int32_t>(i));
      }
    }
    // Closedness: floor of the supporting set must be the vector itself.
    if (FloorOf(population, supporting) != floor) continue;
    if (static_cast<int64_t>(supporting.size()) < min_support) continue;
    if (priors.PValue(floor, static_cast<int64_t>(supporting.size())) >
        max_pvalue) {
      continue;
    }
    out[floor] = supporting;
  }
  return out;
}

std::vector<FeatureVec> RandomPopulation(uint64_t seed, size_t n,
                                         size_t width, int max_value) {
  util::Rng rng(seed);
  std::vector<FeatureVec> population;
  for (size_t i = 0; i < n; ++i) {
    FeatureVec v(width);
    for (auto& x : v) {
      // Skewed values: mostly 0 so floors are informative.
      x = rng.NextBernoulli(0.4)
              ? static_cast<int16_t>(1 + rng.NextBounded(max_value))
              : 0;
    }
    population.push_back(std::move(v));
  }
  return population;
}

TEST(FvMineTest, FindsSharedSubVector) {
  // Three vectors share the floor {1, 1, 0}; one outlier does not.
  std::vector<FeatureVec> population = {
      {2, 1, 0}, {1, 2, 0}, {1, 1, 3}, {0, 0, 5}};
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 3;
  config.max_pvalue = 0.9;
  FvMineResult result = FvMine(packed, priors, config);
  bool found = false;
  for (const auto& sv : result.vectors) {
    if (sv.vector == FeatureVec{1, 1, 0}) {
      found = true;
      EXPECT_EQ(sv.supporting, (std::vector<int32_t>{0, 1, 2}));
      EXPECT_EQ(sv.support, 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FvMineTest, EmittedVectorsAreClosedWithExactSupport) {
  auto population = RandomPopulation(42, 12, 5, 3);
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 2;
  config.max_pvalue = 0.8;
  FvMineResult result = FvMine(packed, priors, config);
  for (const auto& sv : result.vectors) {
    // Supporting set is exactly the dominators.
    std::vector<int32_t> expected;
    for (size_t i = 0; i < population.size(); ++i) {
      if (features::IsSubVector(sv.vector, population[i])) {
        expected.push_back(static_cast<int32_t>(i));
      }
    }
    EXPECT_EQ(sv.supporting, expected);
    // Closed: floor of supporters equals the vector.
    EXPECT_EQ(FloorOf(population, sv.supporting), sv.vector);
    // Thresholds hold.
    EXPECT_GE(sv.support, config.min_support);
    EXPECT_LE(sv.p_value, config.max_pvalue);
  }
}

TEST(FvMineTest, NoDuplicateVectorsEmitted) {
  auto population = RandomPopulation(43, 12, 5, 3);
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 2;
  config.max_pvalue = 0.8;
  FvMineResult result = FvMine(packed, priors, config);
  std::set<FeatureVec> seen;
  for (const auto& sv : result.vectors) {
    EXPECT_TRUE(seen.insert(sv.vector).second)
        << "duplicate closed vector emitted";
  }
}

TEST(FvMineTest, SupportThresholdPrunes) {
  std::vector<FeatureVec> population = {{3, 0}, {3, 0}, {0, 3}};
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 3;
  config.max_pvalue = 1.0;
  FvMineResult result = FvMine(packed, priors, config);
  for (const auto& sv : result.vectors) {
    EXPECT_GE(sv.support, 3);
  }
}

// Exhaustive cross-validation against subset enumeration, with and
// without the ceiling prune (the prune must not change the output).
class FvMinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FvMinePropertyTest, MatchesBruteForce) {
  auto population = RandomPopulation(6000 + GetParam(), 10, 4, 3);
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 2;
  config.max_pvalue = 0.75;

  auto truth = BruteForceClosedSignificant(population, priors,
                                           config.min_support,
                                           config.max_pvalue);

  for (bool prune : {true, false}) {
    config.use_ceiling_prune = prune;
    FvMineResult result = FvMine(packed, priors, config);
    std::map<FeatureVec, std::vector<int32_t>> mined;
    for (const auto& sv : result.vectors) {
      mined[sv.vector] = sv.supporting;
    }
    EXPECT_EQ(mined, truth) << "prune=" << prune;
  }
}

TEST_P(FvMinePropertyTest, CeilingPruneOnlyReducesWork) {
  auto population = RandomPopulation(7000 + GetParam(), 12, 5, 3);
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  FvMineConfig config;
  config.min_support = 2;
  config.max_pvalue = 0.5;
  config.use_ceiling_prune = true;
  auto pruned = FvMine(packed, priors, config);
  config.use_ceiling_prune = false;
  auto full = FvMine(packed, priors, config);
  EXPECT_LE(pruned.states_explored, full.states_explored);
  EXPECT_EQ(pruned.vectors.size(), full.vectors.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FvMinePropertyTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace graphsig::fvmine
