#include "stats/pvalue_model.h"

#include <cmath>

#include "stats/distributions.h"
#include "util/check.h"

namespace graphsig::stats {

FeaturePriors::FeaturePriors(const features::PackedVectorSet& population,
                             int bins)
    : bins_(bins),
      population_size_(static_cast<int64_t>(population.size())) {
  GS_CHECK(!population.empty());
  GS_CHECK_GT(bins, 0);
  const size_t width = population.width();
  tail_counts_.assign(width,
                      std::vector<int64_t>(static_cast<size_t>(bins) + 1, 0));
  for (size_t i = 0; i < population.size(); ++i) {
    const features::PackedSlice row = population.slice(static_cast<int32_t>(i));
    for (size_t slot = 0; slot < width; ++slot) {
      CountValue(slot, row.slot(slot));
    }
  }
  FinalizeTailCounts();
}

FeaturePriors::FeaturePriors(
    const std::vector<features::FeatureVec>& population, int bins)
    : bins_(bins),
      population_size_(static_cast<int64_t>(population.size())) {
  GS_CHECK(!population.empty());
  GS_CHECK_GT(bins, 0);
  const size_t width = population[0].size();
  tail_counts_.assign(width,
                      std::vector<int64_t>(static_cast<size_t>(bins) + 1, 0));
  for (const features::FeatureVec& vec : population) {
    GS_CHECK_EQ(vec.size(), width);
    for (size_t slot = 0; slot < width; ++slot) {
      CountValue(slot, vec[slot]);
    }
  }
  FinalizeTailCounts();
}

void FeaturePriors::CountValue(size_t slot, int value) {
  GS_CHECK_GE(value, 0);
  GS_CHECK_LE(value, bins_);
  // Count the exact value; converted to tail counts in FinalizeTailCounts.
  ++tail_counts_[slot][value];
}

void FeaturePriors::FinalizeTailCounts() {
  // Suffix-sum each slot: tail[v] = #vectors with value >= v.
  for (auto& slot_counts : tail_counts_) {
    for (int v = bins_ - 1; v >= 0; --v) {
      slot_counts[v] += slot_counts[v + 1];
    }
    GS_CHECK_EQ(slot_counts[0], population_size_);
  }
}

double FeaturePriors::FeatureTailProbability(size_t slot, int value) const {
  GS_CHECK_LT(slot, tail_counts_.size());
  if (value <= 0) return 1.0;
  if (value > bins_) return 0.0;
  return static_cast<double>(tail_counts_[slot][value]) /
         static_cast<double>(population_size_);
}

double FeaturePriors::ProbRandomSuperVector(
    const features::FeatureVec& x) const {
  GS_CHECK_EQ(x.size(), tail_counts_.size());
  double prob = 1.0;
  for (size_t slot = 0; slot < x.size(); ++slot) {
    if (x[slot] > 0) {
      prob *= FeatureTailProbability(slot, x[slot]);
      if (prob == 0.0) break;
    }
  }
  return prob;
}

double FeaturePriors::ProbRandomSuperVector(
    const features::PackedSlice& x) const {
  GS_CHECK_EQ(x.width, tail_counts_.size());
  double prob = 1.0;
  for (size_t slot = 0; slot < x.width; ++slot) {
    const int16_t value = x.slot(slot);
    if (value > 0) {
      prob *= FeatureTailProbability(slot, value);
      if (prob == 0.0) break;
    }
  }
  return prob;
}

double FeaturePriors::PValue(const features::FeatureVec& x,
                             int64_t observed_support) const {
  const double p = ProbRandomSuperVector(x);
  return BinomialUpperTail(population_size_, observed_support, p);
}

double FeaturePriors::PValue(const features::PackedSlice& x,
                             int64_t observed_support) const {
  const double p = ProbRandomSuperVector(x);
  return BinomialUpperTail(population_size_, observed_support, p);
}

double FeaturePriors::MinAchievablePValue(
    const features::FeatureVec& x) const {
  // The tail at support = m collapses to P(X >= m) = P(x)^m.
  return std::pow(ProbRandomSuperVector(x),
                  static_cast<double>(population_size_));
}

double FeaturePriors::MinAchievablePValue(
    const features::PackedSlice& x) const {
  return std::pow(ProbRandomSuperVector(x),
                  static_cast<double>(population_size_));
}

}  // namespace graphsig::stats
