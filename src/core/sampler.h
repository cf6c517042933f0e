// The counterfactual Gibbs-variant sampler of §4.2 ("Inference algorithm").
//
// To test whether candidate entity A explains the symptom at entity D:
//  1. set A's driver metric to a counterfactual value 2 sigma toward normal;
//  2. resample every entity on the shortest-path subgraph T(A -> D) in
//     increasing distance from A, using the learned conditionals;
//  3. repeat step 2 for W rounds (Gibbs re-visits propagate effects around
//     cycles);
//  4. collect the resulting sample of D's symptom metric; repeat to build
//     distributions d1 (counterfactual start) and d2 (factual start);
//  5. a one-sided Welch t-test decides whether the counterfactual moved the
//     symptom toward normal — if so, A is a root cause.
//
// The scalar sampler computes only the resampling updates that can reach
// D's final value; the others just advance the random stream, so every
// verdict is bitwise the one of the full sweep (DESIGN.md §11).
//
// The opt-in exact path (SamplerOptions::fast_inference, DESIGN.md §11)
// replaces steps 4-5 on paths whose conditionals are all flattened ridge
// factors: d1 and d2 are then exactly Gaussian, so their means and shared
// variance are computed in closed form and the t-test runs on them.
#pragma once

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"

namespace murphy::core {

struct SamplerOptions {
  std::size_t gibbs_rounds = 4;   // W of the paper
  std::size_t num_samples = 500;  // per side; the paper's prototype uses 5000
  double significance = 0.01;     // t-test alpha
  double counterfactual_sigmas = 2.0;
  // Extra path length admitted into the resampled subgraph T beyond the
  // shortest src->dst distance. Slack 2 includes the "sibling" entities (a
  // service's container, a VM's host) whose pinned values would otherwise
  // absorb the counterfactual through collinear features.
  std::size_t path_slack = 2;
  // Opt-in exact inference (DESIGN.md §11). When every conditional on the
  // resample path is a flattened (ridge) factor, d1 and d2 are exactly
  // Gaussian with one shared variance: their means come from one noise-free
  // sweep per side, the variance from one reverse (adjoint) sweep, and the
  // verdict from the expected-t form of the Welch test at n = num_samples.
  // No random draws, so the result depends on neither seed nor thread
  // count. The contract with the scalar Monte-Carlo path is STATISTICAL
  // equivalence (same verdicts and rankings, score deltas
  // indistinguishable), not bitwise identity: the exact form is the
  // n -> infinity limit of the sampled estimator. Candidates whose resample
  // order touches a non-flattened conditional (non-ridge model families)
  // fall back to the scalar path per candidate. This is the one switch for
  // the mode: MurphyDiagnoser reads it from MurphyOptions::sampler, and
  // murphyd's --fast-inference sets it.
  bool fast_inference = false;
};

struct CounterfactualVerdict {
  bool is_root_cause = false;
  double p_value = 1.0;
  double mean_factual = 0.0;        // mean of d2
  double mean_counterfactual = 0.0; // mean of d1
  // Work accounting for the observability layer (deterministic: a function
  // of the graph and options, not of scheduling).
  std::size_t path_len = 0;         // resampled subgraph size, incl. endpoints
  std::size_t node_resamples = 0;   // resample_node calls across both sides
  // Flattened-kernel multiply-add slots of the (sample, round, variable)
  // grid (w * c / s terms) across both sides — the sampler's arithmetic
  // volume, again deterministic. The exact path reports the same nominal
  // grid for the same request, so the accounting is a function of the
  // request, never of the execution mode (regression-tested).
  std::size_t kernel_cells = 0;
  // The subset of kernel_cells in live steps, those that can reach d's final
  // value (DESIGN.md §11); the scalar loop computes only these. Structural
  // like kernel_cells, so both modes report the same count.
  std::size_t live_cells = 0;
  // True when the Welch test (run once per verdict with path_len > 0) gave
  // the evidence-free result of a degenerate input (stats::TTestResult).
  bool ttest_degenerate = false;
  // True when the exact path produced this verdict (false in scalar mode and
  // for per-candidate fallbacks), so audits record which mode it came from.
  bool fast_path = false;
  // Exact path only: the shared closed-form variance of d1 and d2 (0 for a
  // Monte-Carlo verdict).
  double variance = 0.0;
};

class CounterfactualSampler {
 public:
  CounterfactualSampler(const graph::RelationshipGraph& graph,
                        const MetricSpace& space, const FactorSet& factors,
                        SamplerOptions opts);

  // Precomputes the backward BFS distance map for symptom node `dst`, so
  // that every subsequent evaluate(..., d == dst, ...) builds its path
  // subgraph with a single bounded forward BFS instead of two full ones.
  // Call once per diagnosis, BEFORE the parallel candidate loop: evaluate()
  // only reads the prepared map. Evaluating against a different symptom node
  // falls back to the self-contained two-BFS path. Purely a work-saving
  // cache — verdicts are bitwise identical either way.
  void prepare(graph::NodeIndex dst);

  // Evaluates candidate node A (driver variable `a_var`) against symptom
  // variable `d_var`. `state` holds the current (incident-time) values;
  // `symptom_high` says whether D's problem is an abnormally HIGH value
  // (true) or LOW (false) — it sets the t-test direction. The caller
  // supplies the RNG (MurphyDiagnoser derives one per candidate via
  // mix_seed), so a verdict never depends on call order. Const and free of
  // shared mutable state: many threads may evaluate concurrently on one
  // sampler.
  [[nodiscard]] CounterfactualVerdict evaluate(graph::NodeIndex a,
                                               VarIndex a_var,
                                               graph::NodeIndex d,
                                               VarIndex d_var,
                                               std::span<const double> state,
                                               bool symptom_high,
                                               Rng& rng) const;

  // One resampling pass (steps 2-3): resample nodes of `path` (excluding the
  // first, which holds the pinned candidate value) for W rounds, returning
  // the final value of `d_var`. Exposed for the Fig. 8b cyclic-effects
  // experiment, which uses the raw resampler for multi-hop prediction.
  [[nodiscard]] double resample_path(std::span<const graph::NodeIndex> path,
                                     VarIndex d_var,
                                     std::vector<double>& state, Rng& rng,
                                     std::size_t gibbs_rounds) const;

 private:
  const graph::RelationshipGraph& graph_;
  const MetricSpace& space_;
  const FactorSet& factors_;
  SamplerOptions opts_;
  // Backward distance map from prepare(); read-only during evaluation.
  std::vector<std::size_t> dist_to_;
  graph::NodeIndex prepared_dst_ = graph::kUnreachable;
};

}  // namespace murphy::core
