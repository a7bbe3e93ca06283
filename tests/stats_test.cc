#include <gtest/gtest.h>

#include <cmath>

#include "stats/distributions.h"
#include "stats/pvalue_model.h"
#include "util/rng.h"

namespace graphsig::stats {
namespace {

using features::FeatureVec;

double BinomialUpperTailBySum(int64_t n, int64_t k, double p) {
  double total = 0.0;
  for (int64_t i = k; i <= n; ++i) total += BinomialPmf(n, i, p);
  return total;
}

TEST(DistributionsTest, LogBinomialCoefficient) {
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(LogBinomialCoefficient(1000, 500),
              1000 * std::log(2.0) - 0.5 * std::log(500 * M_PI), 1e-2);
}

TEST(DistributionsTest, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x.
  for (double x : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, x), x, 1e-12);
  }
  // I_x(1, b) = 1 - (1-x)^b.
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 3, 0.2),
              1.0 - std::pow(0.8, 3), 1e-12);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 4.0, 0.3),
              1.0 - RegularizedIncompleteBeta(4.0, 2.5, 0.7), 1e-12);
  // Median of symmetric beta.
  EXPECT_NEAR(RegularizedIncompleteBeta(5, 5, 0.5), 0.5, 1e-12);
}

TEST(DistributionsTest, PmfSumsToOne) {
  for (double p : {0.1, 0.37, 0.5, 0.93}) {
    double total = 0.0;
    for (int64_t k = 0; k <= 30; ++k) total += BinomialPmf(30, k, p);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(DistributionsTest, UpperTailMatchesExplicitSum) {
  for (int64_t n : {5, 20, 60}) {
    for (double p : {0.05, 0.3, 0.7}) {
      for (int64_t k = 0; k <= n; k += 3) {
        EXPECT_NEAR(BinomialUpperTail(n, k, p),
                    BinomialUpperTailBySum(n, k, p), 1e-10)
            << "n=" << n << " k=" << k << " p=" << p;
      }
    }
  }
}

TEST(DistributionsTest, UpperTailEdgeCases) {
  EXPECT_EQ(BinomialUpperTail(10, 0, 0.5), 1.0);
  EXPECT_EQ(BinomialUpperTail(10, -3, 0.5), 1.0);
  EXPECT_EQ(BinomialUpperTail(10, 11, 0.5), 0.0);
  EXPECT_EQ(BinomialUpperTail(10, 1, 0.0), 0.0);
  EXPECT_EQ(BinomialUpperTail(10, 10, 1.0), 1.0);
  EXPECT_NEAR(BinomialUpperTail(10, 10, 0.5), std::pow(0.5, 10), 1e-12);
}

TEST(DistributionsTest, NormalCdf) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.0) + NormalCdf(1.0), 1.0, 1e-12);
}

// --- FeaturePriors over the paper's Table I vector database.
class TableIPriors : public ::testing::Test {
 protected:
  TableIPriors()
      : population_{{1, 0, 0, 2}, {1, 1, 0, 2}, {2, 0, 1, 2}, {1, 0, 1, 0}},
        v1_(population_[0]),
        v2_(population_[1]),
        v3_(population_[2]),
        v4_(population_[3]),
        priors_(population_, /*bins=*/10) {}

  std::vector<FeatureVec> population_;
  FeatureVec v1_, v2_, v3_, v4_;
  FeaturePriors priors_;
};

TEST_F(TableIPriors, EmpiricalTailProbabilities) {
  // Section III: P(a-b >= 2) = 1/4, P(b-b >= 1) = 2/4.
  EXPECT_NEAR(priors_.FeatureTailProbability(0, 2), 0.25, 1e-12);
  EXPECT_NEAR(priors_.FeatureTailProbability(2, 1), 0.5, 1e-12);
  EXPECT_NEAR(priors_.FeatureTailProbability(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(priors_.FeatureTailProbability(3, 2), 0.75, 1e-12);
  EXPECT_EQ(priors_.FeatureTailProbability(0, 0), 1.0);
  EXPECT_EQ(priors_.FeatureTailProbability(0, 11), 0.0);
}

TEST_F(TableIPriors, PaperExampleProbability) {
  // Section III-A: P(v2) = 1 * 1/4 * 1 * 3/4 = 3/16.
  EXPECT_NEAR(priors_.ProbRandomSuperVector(v2_), 3.0 / 16.0, 1e-12);
}

TEST_F(TableIPriors, PValueMatchesBinomialTail) {
  const double p = 3.0 / 16.0;
  // Observed support of v2's pattern (only v2 dominates v2): mu0 = 1.
  EXPECT_NEAR(priors_.PValue(v2_, 1), BinomialUpperTailBySum(4, 1, p),
              1e-10);
  EXPECT_NEAR(priors_.PValue(v2_, 4), std::pow(p, 4), 1e-12);
}

TEST_F(TableIPriors, ZeroVectorIsNeverSignificant) {
  FeatureVec zero{0, 0, 0, 0};
  EXPECT_EQ(priors_.ProbRandomSuperVector(zero), 1.0);
  EXPECT_EQ(priors_.PValue(zero, 4), 1.0);
}

// Monotonicity properties stated after Eqn. 6, verified on random data.
class PriorMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(PriorMonotonicityTest, SubVectorHasLargerPValue) {
  util::Rng rng(9000 + GetParam());
  std::vector<FeatureVec> population;
  const int width = 5, bins = 10;
  for (int i = 0; i < 30; ++i) {
    FeatureVec v(width);
    for (auto& x : v) x = static_cast<int16_t>(rng.NextBounded(bins + 1));
    population.push_back(std::move(v));
  }
  FeaturePriors priors(population, bins);

  // Random y and a random sub-vector x of y.
  const FeatureVec& y = population[rng.NextBounded(population.size())];
  FeatureVec x(width);
  for (int i = 0; i < width; ++i) {
    x[i] = static_cast<int16_t>(rng.NextBounded(y[i] + 1));
  }
  // Property 1: x ⊆ y ⇒ pvalue(x, mu) >= pvalue(y, mu).
  for (int64_t mu : {1, 5, 15}) {
    EXPECT_GE(priors.PValue(x, mu) + 1e-12, priors.PValue(y, mu));
  }
  // Property 2: mu1 >= mu2 ⇒ pvalue(x, mu1) <= pvalue(x, mu2).
  EXPECT_LE(priors.PValue(x, 20), priors.PValue(x, 10) + 1e-12);
  EXPECT_LE(priors.PValue(x, 10), priors.PValue(x, 2) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorMonotonicityTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace graphsig::stats
