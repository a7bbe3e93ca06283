#ifndef GRAPHSIG_STATS_DISTRIBUTIONS_H_
#define GRAPHSIG_STATS_DISTRIBUTIONS_H_

#include <cstdint>

namespace graphsig::stats {

// log(n choose k); requires 0 <= k <= n.
double LogBinomialCoefficient(int64_t n, int64_t k);

// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
// x in [0, 1], via the Lentz continued fraction in log space. Accurate to
// ~1e-12 over the ranges the p-value model uses.
double RegularizedIncompleteBeta(double a, double b, double x);

// P[X = k] for X ~ Binomial(n, p).
double BinomialPmf(int64_t n, int64_t k, double p);

// Exact upper tail P[X >= k] for X ~ Binomial(n, p), computed as
// I_p(k, n - k + 1) (Eqn. 6 of the paper reduces to this). k <= 0
// returns 1; k > n returns 0.
double BinomialUpperTail(int64_t n, int64_t k, double p);

// Standard normal CDF.
double NormalCdf(double z);

}  // namespace graphsig::stats

#endif  // GRAPHSIG_STATS_DISTRIBUTIONS_H_
