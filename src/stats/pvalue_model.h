#ifndef GRAPHSIG_STATS_PVALUE_MODEL_H_
#define GRAPHSIG_STATS_PVALUE_MODEL_H_

#include <cstdint>
#include <vector>

#include "features/feature_vector.h"
#include "features/packed_vector_set.h"

namespace graphsig::stats {

// The statistical model of Section III. Feature priors P(y_i >= v) are
// estimated empirically from a vector population (one label group D_a in
// GraphSig). Under feature independence (Eqn. 4), the probability that a
// random vector dominates a sub-feature vector x is the product of the
// per-feature upper-tail priors; the support of x over m random vectors
// is then Binomial(m, P(x)) and the p-value is the exact upper tail
// (Eqns. 5-6).
class FeaturePriors {
 public:
  // Builds priors from a packed population (the production path: FVMine
  // and pattern scoring hand the same PackedVectorSet to both priors and
  // search). `bins` is the discretization bin count (values in [0, bins]).
  FeaturePriors(const features::PackedVectorSet& population, int bins);

  // Builds priors from a contiguous population; all vectors must share
  // one width.
  FeaturePriors(const std::vector<features::FeatureVec>& population,
                int bins);

  // Number of vectors the priors were estimated from (m).
  int64_t population_size() const { return population_size_; }
  size_t num_features() const { return tail_counts_.size(); }
  int bins() const { return bins_; }

  // Empirical P(y_i >= value) for one feature slot.
  double FeatureTailProbability(size_t slot, int value) const;

  // P(x): probability that a random vector is a super-vector of x
  // (Eqn. 4). Slots with x_i == 0 contribute probability 1.
  double ProbRandomSuperVector(const features::FeatureVec& x) const;
  double ProbRandomSuperVector(const features::PackedSlice& x) const;

  // Exact p-value of observing support >= observed_support over a
  // population of population_size() random vectors (Eqn. 6).
  double PValue(const features::FeatureVec& x,
                int64_t observed_support) const;
  double PValue(const features::PackedSlice& x,
                int64_t observed_support) const;

  // Minimum achievable p-value of x over this population: the exact
  // tail at the most extreme outcome (support = m), which is P(x)^m.
  // This is Tarone's testability statistic psi(x) (stream/tarone.h):
  // psi(x) <= PValue(x, s) for every achievable support s, so a vector
  // with psi > delta can never be significant at level delta.
  double MinAchievablePValue(const features::FeatureVec& x) const;
  double MinAchievablePValue(const features::PackedSlice& x) const;

 private:
  void CountValue(size_t slot, int value);
  void FinalizeTailCounts();

  int bins_;
  int64_t population_size_;
  // tail_counts_[slot][v] = number of vectors with value >= v; the v = 0
  // entry is always population_size_.
  std::vector<std::vector<int64_t>> tail_counts_;
};

}  // namespace graphsig::stats

#endif  // GRAPHSIG_STATS_PVALUE_MODEL_H_
