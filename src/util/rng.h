#ifndef GRAPHSIG_UTIL_RNG_H_
#define GRAPHSIG_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace graphsig::util {

// Deterministic 64-bit PRNG (xoshiro256**), seeded via SplitMix64.
// Every randomized component in the library takes one of these with an
// explicit seed; there is no global RNG, so all experiments replay exactly.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Reseed(seed); }

  void Reseed(uint64_t seed);

  // Uniform over all 64-bit values.
  uint64_t NextU64();

  // Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  // sampling (Lemire) to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Index in [0, weights.size()) sampled proportionally to `weights`.
  // Weights must be non-negative with a positive sum.
  size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_RNG_H_
