#ifndef GRAPHSIG_STREAM_TARONE_H_
#define GRAPHSIG_STREAM_TARONE_H_

// Tarone testability correction for GraphSig's per-vector significance
// test (Tarone 1990; Sugiyama & Borgwardt's significant-subgraph-mining
// formulation, see PAPERS.md).
//
// The problem: FVMine evaluates a whole family of candidate vectors,
// and accepting each at per-comparison level alpha inflates the
// family-wise error rate. Bonferroni divides alpha by the family size
// N, but most members of the family cannot reach significance at any
// outcome: the p-value of a vector x with super-vector probability
// P(x) over m population vectors is bounded below by its testability
// statistic psi(x) = P(x)^m (the tail at the most extreme support,
// m). Untestable members — psi above the threshold — can never produce
// a false positive, so they need no correction budget.
//
// Tarone's threshold: with the family's psis in hand, let
//     m(k) = |{ i : psi_i <= alpha / k }|     (testable at alpha/k)
// and k_T = min{ k >= 1 : m(k) <= k }. Then delta* = alpha / k_T
// controls FWER at alpha, and since k_T <= N it never falls below the
// Bonferroni threshold alpha / N — Tarone's yield dominates
// Bonferroni's (tests/tarone_test.cc calibrates both claims). m(k) is
// non-increasing and k strictly increasing, so m(k) - k crosses zero
// once and k_T falls out of a binary search over sorted psis.
//
// Determinism: Compute() is a pure function of (psis, alpha); callers
// assemble psis in group-label order, so delta* is byte-identical
// across thread counts.

#include <cstdint>
#include <vector>

namespace graphsig::stream {

struct TaroneResult {
  // Family-wise significance threshold delta* = alpha / k_T. A pattern
  // is reported only when its p-value is <= delta*; delta* <= alpha
  // always holds (k_T >= 1).
  double delta_star = 0.0;
  uint64_t k_tarone = 1;
  uint64_t family_size = 0;  // N: candidates whose psi entered the solve
  uint64_t testable = 0;     // m(k_T): members testable at delta*
};

class TaroneThreshold {
 public:
  // Solves for delta* over one family of testability statistics.
  // Bumps the deterministic stream/tarone_candidates and
  // stream/tarone_testable work counters.
  static TaroneResult Compute(std::vector<double> psis, double alpha);
};

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_TARONE_H_
