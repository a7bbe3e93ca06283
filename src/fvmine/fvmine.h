#ifndef GRAPHSIG_FVMINE_FVMINE_H_
#define GRAPHSIG_FVMINE_FVMINE_H_

#include <cstdint>
#include <vector>

#include "features/feature_vector.h"
#include "features/packed_vector_set.h"
#include "stats/pvalue_model.h"

namespace graphsig::fvmine {

struct FvMineConfig {
  int64_t min_support = 1;  // minSup of Algorithm 1
  double max_pvalue = 0.1;  // maxPvalue of Algorithm 1
  // Line 10's optimistic prune (p-value of the ceiling at the current
  // support). Disabling it is an ablation: same output, more states.
  bool use_ceiling_prune = true;
  // Tarone testability mode (> 0 enables; stream/tarone.h). The search
  // then (a) emits candidates against min(max_pvalue, tarone_alpha),
  // (b) records the testability statistic psi of every evaluated state
  // into FvMineResult::candidate_psis so the caller can solve for the
  // family-wise threshold delta* across groups, and (c) replaces the
  // optimistic ceiling prune with the weaker-but-sound Tarone prune: a
  // subtree is cut only when psi(ceiling) > tarone_alpha, i.e. when no
  // descendant could ever be testable (psi is monotone under growth, so
  // every descendant's psi is >= the ceiling's). Cutting on the plain
  // optimistic bound would silently drop testable states from the
  // family and bias delta* upward.
  double tarone_alpha = 0.0;
};

// A closed significant sub-feature vector found by FVMine.
struct SignificantVector {
  features::FeatureVec vector;      // floor of the supporting set
  std::vector<int32_t> supporting;  // ascending indices into the population
  int64_t support = 0;
  double p_value = 1.0;
};

struct FvMineResult {
  std::vector<SignificantVector> vectors;
  uint64_t states_explored = 0;
  // Tarone mode only (tarone_alpha > 0): psi of every evaluated state,
  // in DFS order — the group's contribution to the testability family.
  std::vector<double> candidate_psis;
};

// Mines every closed sub-feature vector of `population` whose support is
// >= min_support and whose exact p-value (under `priors`, which must be
// built over this same population) is <= max_pvalue. Bottom-up depth-first
// search with support, duplicate-state, and optimistic-ceiling pruning
// (Algorithm 1 of the paper / He & Singh's FVMine).
//
// The recursion runs on the packed SWAR kernels and reuses one scratch
// level per search depth, so its heap allocations grow with the search
// depth, not with the states explored (DESIGN.md §14).
FvMineResult FvMine(const features::PackedVectorSet& population,
                    const stats::FeaturePriors& priors,
                    const FvMineConfig& config);

}  // namespace graphsig::fvmine

#endif  // GRAPHSIG_FVMINE_FVMINE_H_
