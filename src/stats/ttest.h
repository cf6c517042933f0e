// Welch's unequal-variance t-test, the statistical decision at the heart of
// Murphy's counterfactual inference: the sampled symptom values under the
// counterfactual root-cause value (d1) are compared with samples under the
// factual value (d2); a significantly lower d1 implicates the candidate.
#pragma once

#include <cstddef>
#include <span>

namespace murphy::stats {

struct TTestResult {
  double t = 0.0;        // Welch t statistic (mean(x) - mean(y)) / se
  double dof = 0.0;      // Welch-Satterthwaite degrees of freedom
  double p_less = 1.0;   // one-sided p-value for H1: mean(x) < mean(y)
  double p_two_sided = 1.0;
  // The evidence-free verdict of a degenerate input (below). The caller
  // that owns a metrics registry counts it as `stats.ttest_degenerate`.
  bool degenerate = false;
};

// Total on all inputs — the output is always finite with p values in
// [0, 1] (DESIGN.md §8):
//  * both samples zero-variance with different means: p_less = 0/1 for
//    the appropriate direction, p_two_sided = 0;
//  * fewer than 2 elements on either side, non-finite values anywhere, or
//    both samples the same constant: the evidence-free result (t = 0,
//    p_less = 0.5, p_two_sided = 1, degenerate = true) — neutral in both
//    directions, so a degenerate sample can never implicate a candidate.
[[nodiscard]] TTestResult welch_t_test(std::span<const double> x,
                                       std::span<const double> y);

// The same test from the samples' moments (mean, unbiased variance, count):
// welch_t_test() computes them and calls this, and the exact inference path
// (DESIGN.md §11) calls it with its closed-form moments, so both share the
// degenerate-input rules above.
[[nodiscard]] TTestResult welch_from_moments(double mx, double vx,
                                             std::size_t x_count, double my,
                                             double vy, std::size_t y_count);

// Student-t CDF at t with `dof` degrees of freedom (via regularized
// incomplete beta). Exposed for testing.
[[nodiscard]] double student_t_cdf(double t, double dof);

// Regularized incomplete beta function I_x(a, b) via continued fractions.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

}  // namespace murphy::stats
