#include "src/stats/ttest.h"

#include <cassert>
#include <cmath>

#include "src/stats/summary.h"

namespace murphy::stats {
namespace {

// Lentz's algorithm for the incomplete beta continued fraction.
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

// std::lgamma writes the process-global `signgam` on glibc, which is a data
// race when t-tests run on concurrent diagnosis threads; use the reentrant
// variant where the platform provides one.
double lgamma_threadsafe(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = lgamma_threadsafe(a + b) - lgamma_threadsafe(a) -
                          lgamma_threadsafe(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  // Use the symmetry transformation for convergence.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double dof) {
  assert(dof > 0.0);
  const double x = dof / (dof + t * t);
  const double tail = 0.5 * incomplete_beta(dof / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

namespace {

// The evidence-free verdict for degenerate inputs: neutral in both
// directions, so it can never implicate (or exonerate) a candidate.
TTestResult degenerate_ttest() {
  TTestResult r;
  r.t = 0.0;
  r.dof = 1.0;
  r.p_less = 0.5;
  r.p_two_sided = 1.0;
  r.degenerate = true;
  return r;
}

}  // namespace

TTestResult welch_t_test(std::span<const double> x, std::span<const double> y) {
  return welch_from_moments(mean(x), variance(x), x.size(), mean(y),
                            variance(y), y.size());
}

TTestResult welch_from_moments(double mx, double vx, std::size_t x_count,
                               double my, double vy, std::size_t y_count) {
  // Defined, finite semantics for degenerate samples (previously asserted):
  // fewer than 2 points on either side carries no distributional evidence.
  if (x_count < 2 || y_count < 2) return degenerate_ttest();
  const double nx = static_cast<double>(x_count);
  const double ny = static_cast<double>(y_count);
  // A non-finite moment means a poisoned sample (NaN/Inf draw) — neutral
  // verdict rather than NaN p-values that compare false everywhere.
  if (!std::isfinite(mx) || !std::isfinite(my) || !std::isfinite(vx) ||
      !std::isfinite(vy))
    return degenerate_ttest();

  TTestResult r;
  const double se2 = vx / nx + vy / ny;
  if (se2 < 1e-300) {
    // Both samples are (numerically) constant. Equal constants carry no
    // evidence either way: p_less = 1 would read as "certainly higher" and,
    // flipped for a LOW symptom, implicate a candidate with p = 0.
    if (mx == my) return degenerate_ttest();
    r.t = 0.0;
    r.dof = nx + ny - 2.0;
    r.p_less = mx < my ? 0.0 : 1.0;
    r.p_two_sided = 0.0;
    return r;
  }

  r.t = (mx - my) / std::sqrt(se2);
  const double num = se2 * se2;
  const double den = (vx / nx) * (vx / nx) / (nx - 1.0) +
                     (vy / ny) * (vy / ny) / (ny - 1.0);
  r.dof = den > 0.0 ? num / den : nx + ny - 2.0;
  const double cdf = student_t_cdf(r.t, r.dof);
  r.p_less = cdf;  // P(T <= t): small when mean(x) << mean(y)
  r.p_two_sided = 2.0 * std::min(cdf, 1.0 - cdf);
  return r;
}

}  // namespace murphy::stats
