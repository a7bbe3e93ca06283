#include "stats/distributions.h"

#include <cmath>

#include "util/check.h"

namespace graphsig::stats {
namespace {

// std::lgamma writes the process-global `signgam`, so concurrent
// p-value evaluations (FVMine groups, graph-space tasks) race on it.
// lgamma_r is the reentrant variant; fall back to std::lgamma where it
// is unavailable (single-threaded correctness is unaffected either way).
inline double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Continued-fraction kernel for the incomplete beta function
// (Numerical Recipes' betacf, modified Lentz method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 500;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double LogBinomialCoefficient(int64_t n, int64_t k) {
  GS_CHECK_GE(k, 0);
  GS_CHECK_LE(k, n);
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  GS_CHECK_GT(a, 0.0);
  GS_CHECK_GT(b, 0.0);
  GS_CHECK_GE(x, 0.0);
  GS_CHECK_LE(x, 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double log_front = LogGamma(a + b) - LogGamma(a) -
                           LogGamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  // Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the
  // fast-converging regime of the continued fraction.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(log_front) * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - std::exp(log_front) * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double BinomialPmf(int64_t n, int64_t k, double p) {
  GS_CHECK_GE(n, 0);
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = LogBinomialCoefficient(n, k) +
                         k * std::log(p) + (n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double BinomialUpperTail(int64_t n, int64_t k, double p) {
  GS_CHECK_GE(n, 0);
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  if (p <= 0.0) return 0.0;  // k >= 1 but X is surely 0
  if (p >= 1.0) return 1.0;  // X is surely n >= k
  // P[X >= k] = I_p(k, n - k + 1).
  return RegularizedIncompleteBeta(static_cast<double>(k),
                                   static_cast<double>(n - k + 1), p);
}

double NormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace graphsig::stats
