// Ridge regression — the metric-prediction model Murphy ships with.
//
// Closed-form solve of (X^T X + lambda I) w = X^T y on standardized features,
// with an unpenalized intercept. Robust to collinear and constant columns,
// and well-behaved with the few hundred training points available from one
// week of telemetry.
#pragma once

#include "src/stats/predictor.h"

namespace murphy::stats {

// What the last fit did. The kernel names no metrics registry; its owner
// counts the report (FactorSet and Sage: stats.ridge_fits, stats.ridge_cells,
// train.nonfinite_cells, train.degenerate_columns).
struct RidgeFitReport {
  std::size_t cells = 0;               // rows x columns of the design
  std::size_t nonfinite_cells = 0;     // design/target cells replaced by 0.0
  std::size_t degenerate_columns = 0;  // constant columns, given weight 0
};

class RidgeRegression final : public Predictor {
 public:
  explicit RidgeRegression(double l2 = 1.0);

  void fit(const Matrix& x, const Vector& y) override;

  // Weighted fit: row r contributes with weight w[r] >= 0 to the loss (and
  // to the standardization statistics). Enables recency-weighted "offline +
  // online" training (§7 of the paper, future work): long histories inform
  // the model without drowning the freshest in-incident points.
  void fit_weighted(const Matrix& x, const Vector& y, const Vector& weights);
  [[nodiscard]] double predict(std::span<const double> x) const override;
  [[nodiscard]] double residual_sigma() const override { return sigma_; }
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kRidge; }

  [[nodiscard]] const RidgeFitReport& fit_report() const { return report_; }

  // Weights in the standardized feature space (diagnostic / tests).
  [[nodiscard]] const Vector& standardized_weights() const { return w_; }

  // Standardization parameters and intercept, exposed so the sampler can
  // flatten fitted ridge models into a branch-free kernel:
  //   predict(x) = y_mean + sum_j w[j] * (x[j] - mean[j]) / scale[j].
  [[nodiscard]] const Vector& feature_means() const { return feat_mean_; }
  [[nodiscard]] const Vector& feature_scales() const { return feat_scale_; }
  [[nodiscard]] double intercept() const { return y_mean_; }

 private:
  double l2_;
  Vector w_;            // weights over standardized features
  Vector feat_mean_;    // per-feature standardization
  Vector feat_scale_;
  double y_mean_ = 0.0;
  double sigma_ = 0.0;
  bool fitted_ = false;
  RidgeFitReport report_;
};

}  // namespace murphy::stats
