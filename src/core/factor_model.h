// Per-entity factors P_v of the MRF (§4.2, "Model" and "Model training").
//
// Each factor relates one metric of entity v in a time slice to the metrics
// of v's in-neighbors in the same slice. Following the paper: the top B = 10
// neighbor metrics are selected by correlation (the "one in ten" rule), a
// ridge regression (by default; the model family is pluggable per Fig. 8a)
// is fit on the training window, and the Gaussian residual sigma makes the
// conditional a sampling distribution rather than a point predictor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/factor_cache.h"
#include "src/core/metric_space.h"
#include "src/obs/hooks.h"
#include "src/stats/predictor.h"

namespace murphy::core {

// The learned conditional for ONE variable (one metric of one entity).
class MetricConditional {
 public:
  // The model is shared-const: the cross-symptom FactorCache hands the same
  // fitted predictor to every FactorSet that hits the cache entry.
  MetricConditional(VarIndex target, std::vector<VarIndex> features,
                    std::shared_ptr<const stats::Predictor> model,
                    double hist_mean, double hist_sigma);

  // predict() and sample() are safe to call concurrently from many threads
  // (scratch space is thread-local); the setters are not.

  [[nodiscard]] VarIndex target() const { return target_; }
  [[nodiscard]] std::span<const VarIndex> features() const {
    return features_;
  }

  // Expected value given the current state.
  [[nodiscard]] double predict(std::span<const double> state) const;
  // Draw from N(predict(state), residual_sigma).
  [[nodiscard]] double sample(std::span<const double> state, Rng& rng) const;

  // Historical marginal statistics over the training window. Two flavors:
  // classic mean/stddev (used for the counterfactual magnitude — "2 standard
  // deviations away" of *recent* behavior, incident included), and robust
  // median/MAD (used for anomaly scoring and labeling, so that the incident
  // points inside the online-training window don't mask their own anomaly).
  [[nodiscard]] double hist_mean() const { return hist_mean_; }
  [[nodiscard]] double hist_sigma() const { return hist_sigma_; }
  [[nodiscard]] double robust_center() const { return robust_center_; }
  [[nodiscard]] double robust_sigma() const { return robust_sigma_; }
  void set_robust(double center, double sigma) {
    robust_center_ = center;
    robust_sigma_ = sigma;
  }
  [[nodiscard]] double residual_sigma() const {
    return model_->residual_sigma();
  }
  // Training prediction error, for the Fig. 8a model comparison (MASE).
  [[nodiscard]] double training_mase() const { return training_mase_; }
  void set_training_mase(double m) { training_mase_ = m; }

  // The fitted model (nullptr when the variable had no usable features).
  // Exposed so FactorSet can flatten ridge conditionals into its sampling
  // kernel.
  [[nodiscard]] const stats::Predictor* model() const { return model_.get(); }

 private:
  VarIndex target_;
  std::vector<VarIndex> features_;
  std::shared_ptr<const stats::Predictor> model_;
  double hist_mean_;
  double hist_sigma_;
  double robust_center_ = 0.0;
  double robust_sigma_ = 0.0;
  double training_mase_ = 0.0;
};

struct FactorTrainingOptions {
  // Top-B neighbor metrics by |Pearson correlation| ("one in ten" rule).
  std::size_t top_b = 10;
  stats::ModelKind model = stats::ModelKind::kRidge;
  // Telemetry features are heavily collinear (a service's request rate, its
  // container's CPU and its client's load all co-move); substantial ridge
  // regularization spreads weight across the collinear group instead of
  // letting sign-flipped pairs cancel, which would invert counterfactuals.
  stats::PredictorOptions predictor{.l2 = 25.0};
  // Recency-weighted "offline + online" hybrid training (§7, future work):
  // when > 0 (in slices) and the model is ridge, row r of the training
  // window is weighted 0.5^((last - r) / half_life), so long histories
  // inform the fit without drowning the freshest in-incident points.
  // 0 = uniform weighting (the paper's shipped configuration).
  double recency_half_life = 0.0;
};

// Flattened, allocation-free view of the trained conditionals, built once
// after training for the Gibbs sampler's inner loop. A flattened conditional
// is linear-Gaussian, x_v = mu(c) + sigma * z with mu linear in the centered
// features, which is what lets the opt-in exact inference path (DESIGN.md
// §11) evaluate a candidate in closed form from the same arrays.
//
// Ridge is the one model family whose predict() is a fixed arithmetic form,
//   mu = base + sum_j (w[j] * (x[j] - mean[j])) / scale[j],
// and because fit_weighted() computes each column's weighted mean with
// weights that depend only on the row index (never on the target), every
// conditional that uses variable f as a feature derives the bitwise-
// identical mean for it. The subtraction is therefore shareable: the
// sampler keeps one centered vector c[v] = state[v] - mean[v], updated once
// per write, and the flattened predict performs exactly the multiply,
// divide and add sequence of MetricConditional::predict — minus the virtual
// dispatch, the feature-gather copy and the repeated subtractions.
// Conditionals that cannot be flattened (non-ridge models, or a bitwise
// mean mismatch, which build_kernel() checks defensively) fall back to the
// virtual path; both paths keep work[] and c[] coherent.
struct SampleKernel {
  struct VarEntry {
    std::uint32_t begin = 0;  // offset into feat/w/fscale
    std::uint32_t count = 0;
    bool flat = false;        // false -> use MetricConditional::sample
    double base = 0.0;        // intercept (y_mean, or hist_mean if no model)
    double sigma = 0.0;       // sampling stddev (residual or historical)
  };
  std::vector<VarEntry> vars;
  std::vector<std::uint32_t> feat;  // feature VarIndex, contiguous per var
  std::vector<double> w;            // standardized-space weight per slot
  std::vector<double> fscale;       // feature scale per slot
  // Shared per-variable centering; 0 for variables that never appear as a
  // feature of a flattened conditional.
  std::vector<double> mean;
  std::size_t flat_count = 0;  // vars flattened (diagnostics/tests)
};

// The MRF: one MetricConditional per variable, trained online.
class FactorSet {
 public:
  // Trains every conditional on the window [train_begin, train_end); the
  // trained set is immutable afterwards and safe for concurrent readers.
  //
  // The per-call inputs that are not training options (MurphyDiagnoser
  // derives them from its own options and hooks):
  //  - seed: each target's predictor seed is mix_seed(seed, target), so
  //    stochastic families are reproducible per variable.
  //  - num_threads: threads for the independent per-variable fits; 0 = one
  //    per hardware core, 1 = serial. Any value yields bitwise-identical
  //    factors, since no fit draws from a shared sequential stream.
  //  - caches: optional training caches (null = train everything locally):
  //    the per-column moment cache (correlations against cached columns are
  //    single dot products) and cross-symptom factor reuse (each (entity,
  //    kind, in-neighbor-set) conditional trains once and is shared; ridge
  //    only, since stochastic families seed per VarIndex, which is
  //    graph-dependent). Both yield bitwise-identical factors (see
  //    factor_cache.h for the proof). Every key mixes in the train window
  //    and the write epoch (MetricStore::series_epoch) of each series the
  //    entry reads: the window stats key covers the one series the column
  //    reads, the factor key the target plus every candidate-feature series
  //    (all metric kinds of the target's entity and of its sorted
  //    in-neighbor entities, so a freshly appearing series changes the key
  //    too). A value write therefore retires exactly the entries that read
  //    the touched series, and requests with different windows coexist. The
  //    CALLER owns the rest of validity: call caches->renew(db, opts) before
  //    training (DiagnosisService and BatchDiagnoser do).
  //  - hooks: optional tracer and metrics registry (null = off); every
  //    training and cache counter goes to hooks.metrics, and so do the
  //    reports of the stats kernels and the telemetry reads (stats.ridge_*,
  //    train.nonfinite_cells, train.degenerate_columns,
  //    ingest.nonfinite_reads), once per fit or column actually built.
  //  - trace_parent: the stable span id the per-variable fit spans attach
  //    to. Fits run on worker threads whose span stacks are empty, so the
  //    parent must be explicit for the trace to be identical at every
  //    thread count.
  FactorSet(const telemetry::MonitoringDb& db,
            const graph::RelationshipGraph& graph, const MetricSpace& space,
            TimeIndex train_begin, TimeIndex train_end,
            const FactorTrainingOptions& opts, std::uint64_t seed = 1,
            std::size_t num_threads = 1, TrainingCaches* caches = nullptr,
            const obs::ObsHooks& hooks = {}, std::uint64_t trace_parent = 0);

  [[nodiscard]] const MetricConditional& conditional(VarIndex v) const {
    return *conditionals_[v];
  }
  [[nodiscard]] std::size_t size() const { return conditionals_.size(); }

  // Resamples every metric of graph node `n` in place.
  void resample_node(graph::NodeIndex node, const MetricSpace& space,
                     std::vector<double>& state, Rng& rng) const;

  [[nodiscard]] const SampleKernel& kernel() const { return kernel_; }

  // Centered value of raw metric value x for variable v.
  [[nodiscard]] double center(VarIndex v, double x) const {
    return x - kernel_.mean[v];
  }

  // Conditional mean of a flattened variable v given the centered state `c`:
  // exactly the multiply, divide and add sequence of
  // MetricConditional::predict. The exact inference path (DESIGN.md §11)
  // sweeps with it noise-free.
  [[nodiscard]] double kernel_mean(VarIndex v,
                                   std::span<const double> c) const {
    const SampleKernel::VarEntry& e = kernel_.vars[v];
    double mu = e.base;
    const std::uint32_t* f = kernel_.feat.data() + e.begin;
    const double* w = kernel_.w.data() + e.begin;
    const double* s = kernel_.fscale.data() + e.begin;
    for (std::uint32_t k = 0; k < e.count; ++k) mu += w[k] * c[f[k]] / s[k];
    return mu;
  }

  // Draws variable v given the current raw state (`work`) and its centered
  // mirror (`c`). Bit-identical to conditional(v).sample(work, rng); the
  // flattened path just skips the virtual dispatch, the feature-gather copy
  // and the per-feature mean subtractions.
  [[nodiscard]] double kernel_sample(VarIndex v, std::span<const double> work,
                                     std::span<const double> c,
                                     Rng& rng) const {
    const SampleKernel::VarEntry& e = kernel_.vars[v];
    if (e.flat) [[likely]]
      return kernel_mean(v, c) + e.sigma * rng.normal();
    return conditionals_[v]->sample(work, rng);
  }

 private:
  void build_kernel();

  std::vector<std::unique_ptr<MetricConditional>> conditionals_;
  SampleKernel kernel_;
};

}  // namespace murphy::core
