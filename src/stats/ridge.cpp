#include "src/stats/ridge.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/stats/summary.h"

namespace murphy::stats {

RidgeRegression::RidgeRegression(double l2) : l2_(l2) { assert(l2 >= 0.0); }

void RidgeRegression::fit(const Matrix& x, const Vector& y) {
  fit_weighted(x, y, Vector(x.rows(), 1.0));
}

void RidgeRegression::fit_weighted(const Matrix& x, const Vector& y,
                                   const Vector& weights) {
  // Kernel-boundary guard (DESIGN.md §8): a NaN/Inf design or target cell
  // would propagate through the Gram matrix and poison every coefficient.
  // Non-finite cells degrade to 0.0 (the engine's missing-value fallback,
  // matching TimeSeries::window) in a local copy; finite inputs take the
  // fast path below untouched, so clean fits are bit-identical.
  bool finite = true;
  for (std::size_t i = 0; i < x.rows() && finite; ++i) {
    const double* row = x.row(i);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (!std::isfinite(row[j])) {
        finite = false;
        break;
      }
    }
    if (!std::isfinite(y[i])) finite = false;
  }
  if (!finite) {
    Matrix xc = x;
    Vector yc = y;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < xc.rows(); ++i) {
      for (std::size_t j = 0; j < xc.cols(); ++j) {
        double& v = xc.at(i, j);
        if (!std::isfinite(v)) {
          v = 0.0;
          ++cells;
        }
      }
      if (!std::isfinite(yc[i])) {
        yc[i] = 0.0;
        ++cells;
      }
    }
    fit_weighted(xc, yc, weights);
    report_.nonfinite_cells = cells;
    return;
  }

  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  report_ = RidgeFitReport{.cells = n * p};
  assert(y.size() == n && weights.size() == n);
  assert(n >= 1);

  double w_total = 0.0;
  for (const double w : weights) {
    assert(w >= 0.0);
    w_total += w;
  }
  if (w_total <= 0.0) w_total = 1.0;

  // Weighted standardization, accumulated row-major so each design row is
  // streamed once per pass instead of once per column. The per-column
  // accumulators still receive their adds in row order, so the results are
  // bit-identical to the column-at-a-time formulation.
  feat_mean_.assign(p, 0.0);
  feat_scale_.assign(p, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = weights[i];
    const double* row = x.row(i);
    for (std::size_t j = 0; j < p; ++j) feat_mean_[j] += wi * row[j];
  }
  for (std::size_t j = 0; j < p; ++j) feat_mean_[j] /= w_total;
  Vector var(p, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = weights[i];
    const double* row = x.row(i);
    for (std::size_t j = 0; j < p; ++j) {
      const double d = row[j] - feat_mean_[j];
      var[j] += wi * d * d;
    }
  }
  for (std::size_t j = 0; j < p; ++j) {
    const double sd = std::sqrt(var[j] / w_total);
    if (sd > 1e-12) {
      feat_scale_[j] = sd;
    } else {
      feat_scale_[j] = 1.0;  // constant column -> weight 0
      ++report_.degenerate_columns;
    }
  }
  {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += weights[i] * y[i];
    y_mean_ = m / w_total;
  }

  // Row-scale the standardized design by sqrt(w): the normal equations then
  // solve the weighted least-squares problem.
  Matrix xs(n, p);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sw = std::sqrt(weights[i]);
    for (std::size_t j = 0; j < p; ++j)
      xs.at(i, j) = sw * (x.at(i, j) - feat_mean_[j]) / feat_scale_[j];
    yc[i] = sw * (y[i] - y_mean_);
  }

  Matrix a = xs.gram();
  // Scale-invariant regularization: lambda grows with the effective sample
  // mass so the model behaves consistently across training lengths.
  const double lambda = l2_ * std::max(1.0, w_total) / 256.0;
  for (std::size_t j = 0; j < p; ++j) a.at(j, j) += lambda + 1e-9;

  const Vector b = xs.transpose_times(yc);
  auto solved = solve_spd(a, b);
  // The diagonal loading makes the system SPD in all practical cases; fall
  // back to the mean-only model if numerics still fail — including a solve
  // that "succeeds" with non-finite coefficients (possible when the Gram
  // matrix overflowed on extreme-scale columns).
  if (solved &&
      std::any_of(solved->begin(), solved->end(),
                  [](double w) { return !std::isfinite(w); }))
    solved.reset();
  w_ = solved ? std::move(*solved) : Vector(p, 0.0);

  OnlineStats resid;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= 0.0) continue;
    double pred = y_mean_;
    for (std::size_t j = 0; j < p; ++j)
      pred += w_[j] * (x.at(i, j) - feat_mean_[j]) / feat_scale_[j];
    resid.add(y[i] - pred);
  }
  sigma_ = resid.count() >= 2 ? resid.stddev() : 0.0;
  fitted_ = true;
}

double RidgeRegression::predict(std::span<const double> x) const {
  assert(fitted_);
  assert(x.size() == w_.size());
  double out = y_mean_;
  for (std::size_t j = 0; j < x.size(); ++j)
    out += w_[j] * (x[j] - feat_mean_[j]) / feat_scale_[j];
  return out;
}

}  // namespace murphy::stats
