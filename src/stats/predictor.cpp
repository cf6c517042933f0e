#include "src/stats/predictor.h"

#include "src/stats/gmm.h"
#include "src/stats/mlp.h"
#include "src/stats/ridge.h"
#include "src/stats/svr.h"

namespace murphy::stats {

std::string_view model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRidge: return "ridge";
    case ModelKind::kGmm: return "gmm";
    case ModelKind::kSvr: return "svm";
    case ModelKind::kMlp: return "neural_net";
  }
  return "unknown";
}

std::unique_ptr<Predictor> make_predictor(ModelKind kind,
                                          const PredictorOptions& opts,
                                          std::uint64_t seed) {
  switch (kind) {
    case ModelKind::kRidge:
      return std::make_unique<RidgeRegression>(opts.l2);
    case ModelKind::kGmm:
      return std::make_unique<GmmRegressor>(opts.gmm_components, seed);
    case ModelKind::kSvr:
      return std::make_unique<LinearSvr>(opts.l2, opts.svr_epsilon,
                                         opts.svr_epochs, seed,
                                         opts.svr_rff_features);
    case ModelKind::kMlp:
      return std::make_unique<MlpRegressor>(
          opts.mlp_hidden_layers, opts.mlp_hidden_width, opts.mlp_epochs,
          opts.mlp_learning_rate, seed);
  }
  return nullptr;
}

}  // namespace murphy::stats
