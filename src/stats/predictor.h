// Common interface for metric-prediction models.
//
// Murphy's per-entity factor P_v is "predict entity v's metric from its
// neighbors' metrics in the same time slice, plus Gaussian residual noise".
// The paper evaluates four candidate families for this sub-task (Fig. 8a):
// ridge linear regression, Gaussian mixture models, SVMs and small neural
// networks, and selects ridge. All four live behind this interface so the
// factor-model code and the Fig. 8a bench are model-agnostic.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "src/stats/matrix.h"

namespace murphy::stats {

enum class ModelKind {
  kRidge,
  kGmm,
  kSvr,
  kMlp,
};

[[nodiscard]] std::string_view model_kind_name(ModelKind kind);

class Predictor {
 public:
  virtual ~Predictor() = default;

  // Fits y ~ f(X). X has one row per observation; rows of X and entries of y
  // are aligned. Implementations must tolerate zero-variance columns and
  // n < p (all regimes occur with real telemetry).
  virtual void fit(const Matrix& x, const Vector& y) = 0;

  // Point prediction for a single feature row.
  [[nodiscard]] virtual double predict(std::span<const double> x) const = 0;

  // Standard deviation of the training residuals; the Gaussian conditional
  // used when the MRF *samples* (rather than point-predicts) a metric.
  [[nodiscard]] virtual double residual_sigma() const = 0;

  [[nodiscard]] virtual ModelKind kind() const = 0;
};

struct PredictorOptions {
  // Ridge / SVR L2 strength.
  double l2 = 1.0;
  // GMM components.
  int gmm_components = 3;
  // MLP topology (per the paper's footnote: up to 3 layers of 5 neurons).
  int mlp_hidden_layers = 2;
  int mlp_hidden_width = 5;
  int mlp_epochs = 200;
  double mlp_learning_rate = 0.01;
  // SVR epsilon-insensitive tube half-width (in standardized units).
  double svr_epsilon = 0.05;
  int svr_epochs = 120;
  // Random Fourier features approximating an RBF kernel; 0 = linear SVR.
  int svr_rff_features = 48;
};

// `seed` drives the stochastic trainers (GMM initialization, MLP
// initialization, SGD shuffling); ridge ignores it.
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    ModelKind kind, const PredictorOptions& opts = {},
    std::uint64_t seed = 1);

}  // namespace murphy::stats
