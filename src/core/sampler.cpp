#include "src/core/sampler.h"

#include <algorithm>
#include <cassert>

#include "src/stats/ttest.h"
#include "src/stats/summary.h"

namespace murphy::core {

CounterfactualSampler::CounterfactualSampler(
    const graph::RelationshipGraph& graph, const MetricSpace& space,
    const FactorSet& factors, SamplerOptions opts)
    : graph_(graph),
      space_(space),
      factors_(factors),
      opts_(opts) {}

void CounterfactualSampler::prepare(graph::NodeIndex dst) {
  dist_to_ = graph_.distances_to(dst);
  prepared_dst_ = dst;
}

double CounterfactualSampler::resample_path(
    std::span<const graph::NodeIndex> path, VarIndex d_var,
    std::vector<double>& state, Rng& rng, std::size_t gibbs_rounds) const {
  for (std::size_t round = 0; round < gibbs_rounds; ++round) {
    for (std::size_t i = 1; i < path.size(); ++i)  // skip pinned candidate
      factors_.resample_node(path[i], space_, state, rng);
  }
  return state[d_var];
}

CounterfactualVerdict CounterfactualSampler::evaluate(
    graph::NodeIndex a, VarIndex a_var, graph::NodeIndex d, VarIndex d_var,
    std::span<const double> state, bool symptom_high, Rng& rng) const {
  CounterfactualVerdict verdict;
  if (a == d) return verdict;

  // One backward BFS per diagnosis (prepare), one bounded forward BFS per
  // candidate; same path vector as the self-contained overload.
  const auto path =
      d == prepared_dst_
          ? graph_.shortest_path_subgraph(a, d, opts_.path_slack, dist_to_)
          : graph_.shortest_path_subgraph(a, d, opts_.path_slack);
  if (path.empty()) return verdict;  // A cannot influence D
  verdict.path_len = path.size();
  verdict.node_resamples =
      2 * opts_.num_samples * opts_.gibbs_rounds * (path.size() - 1);

  const MetricConditional& a_cond = factors_.conditional(a_var);
  const double a_now = state[a_var];
  // Counterfactual: push A's driver metric 2 sigma toward its historical
  // normal (lower when it's abnormally high, higher when abnormally low).
  // Direction comes from the robust center; the magnitude uses the classic
  // stddev of the window, which (incident included) reflects the scale of
  // recent excursions (§4.2 step 1).
  const double sigma = std::max(a_cond.hist_sigma(), 1e-6);
  const double direction = a_now >= a_cond.robust_center() ? -1.0 : 1.0;
  const double a_cf =
      a_now + direction * opts_.counterfactual_sigmas * sigma;

  // Resampling order: the vars of path[1..] in path order; the candidate's
  // own vars stay pinned. One sample of one side is the unrolled sweep of
  // `rounds` x `order` steps, each writing one variable.
  thread_local std::vector<VarIndex> order;
  order.clear();
  for (std::size_t i = 1; i < path.size(); ++i)
    for (const VarIndex v : space_.vars_of(path[i])) order.push_back(v);

  const SampleKernel& kernel = factors_.kernel();
  const std::size_t rounds = opts_.gibbs_rounds;
  std::size_t cells_per_round = 0;
  bool all_flat = true;
  for (const VarIndex v : order) {
    cells_per_round += kernel.vars[v].count;
    all_flat = all_flat && kernel.vars[v].flat;
  }
  verdict.kernel_cells =
      2 * opts_.num_samples * rounds * cells_per_round;

  // Liveness (DESIGN.md §11): which steps can reach d's final value. Walk
  // the unrolled sweep backward from live = {d_var}; a step is live iff its
  // variable is live, and a live step kills its variable (the write hides
  // the older value) and makes its features live. Non-flattened steps read
  // the raw state through their own predict(), so they always count as live.
  // The mask depends on the graph and factors alone, never on a draw, so
  // it is the same for every sample and both sides.
  const std::size_t n_vars = state.size();
  thread_local std::vector<char> live_var, live_step;
  live_var.assign(n_vars, 0);
  live_var[d_var] = 1;
  live_step.resize(rounds * order.size());
  std::size_t live_cells_per_sample = 0;
  for (std::size_t k = live_step.size(); k-- > 0;) {
    const VarIndex v = order[k % order.size()];
    const SampleKernel::VarEntry& e = kernel.vars[v];
    live_step[k] = static_cast<char>(!e.flat || live_var[v] != 0);
    if (live_step[k] == 0) continue;
    live_var[v] = 0;
    live_cells_per_sample += e.count;
    if (e.flat) {
      for (std::uint32_t j = e.begin; j < e.begin + e.count; ++j)
        live_var[kernel.feat[j]] = 1;
    } else {
      for (const VarIndex f : factors_.conditional(v).features())
        live_var[f] = 1;
    }
  }
  verdict.live_cells = 2 * opts_.num_samples * live_cells_per_sample;

  thread_local std::vector<double> work, cent, cent0, d1, d2, adj;
  cent.resize(n_vars);
  for (VarIndex v = 0; v < n_vars; ++v)
    cent[v] = factors_.center(v, state[v]);
  cent0.assign(cent.begin(), cent.end());
  const double a_cf_c = factors_.center(a_var, a_cf);

  stats::TTestResult t;
  if (opts_.fast_inference && all_flat) {
    // Exact path (DESIGN.md §11). Every update is linear-Gaussian, so d1
    // and d2 are Gaussian with one shared variance. Means: one noise-free
    // sweep per side, in the scalar kernel's arithmetic.
    auto mean_side = [&](double a_start_c) {
      cent[a_var] = a_start_c;
      double x_d = state[d_var];
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const VarIndex v : order) {
          const double mu = factors_.kernel_mean(v, cent);
          cent[v] = factors_.center(v, mu);
          if (v == d_var) x_d = mu;
        }
      }
      for (const VarIndex v : order) cent[v] = cent0[v];
      cent[a_var] = cent0[a_var];
      return x_d;
    };
    verdict.mean_counterfactual = mean_side(a_cf_c);
    verdict.mean_factual = mean_side(cent0[a_var]);
    // Variance: one reverse (adjoint) sweep over the same updates. adj[v] is
    // d's sensitivity to the live value of v; the update that wrote it
    // added sigma_v * z with weight lambda = adj[v], and read its features
    // through the coefficients w / s.
    adj.assign(n_vars, 0.0);
    adj[d_var] = 1.0;
    double var = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const SampleKernel::VarEntry& e = kernel.vars[*it];
        const double lambda = adj[*it];
        adj[*it] = 0.0;
        var += (lambda * e.sigma) * (lambda * e.sigma);
        for (std::uint32_t k = e.begin; k < e.begin + e.count; ++k)
          adj[kernel.feat[k]] += lambda * kernel.w[k] / kernel.fscale[k];
      }
    }
    verdict.variance = var;
    verdict.fast_path = true;
    // The expected-t form of the Welch test at the requested sample size:
    // t = delta / sqrt(2 V / n), dof 2n - 2.
    t = stats::welch_from_moments(verdict.mean_counterfactual, var,
                                  opts_.num_samples, verdict.mean_factual,
                                  var, opts_.num_samples);
  } else {
    // The scalar Monte-Carlo loop, the engine's hottest code. It draws
    // exactly what resample_path() over a fresh copy of `state` per sample
    // would (tests/fast_inference_test.cpp checks it bitwise), but
    //  - conditionals are drawn through FactorSet::kernel_sample over the
    //    shared standardized z-state (see SampleKernel);
    //  - a dead step only advances the stream (Rng::skip_normal): every
    //    conditional draws exactly one normal, so each live step still gets
    //    the draw it would get with every step computed, and a dead step's
    //    value is never read by a live one;
    //  - instead of re-copying the full state per sample, only the
    //    variables a live step writes (and a_var) are restored.
    thread_local std::vector<VarIndex> written;
    written.clear();
    for (std::size_t j = 0; j < order.size(); ++j) {
      for (std::size_t round = 0; round < rounds; ++round) {
        if (live_step[round * order.size() + j] != 0) {
          written.push_back(order[j]);
          break;
        }
      }
    }
    work.assign(state.begin(), state.end());
    d1.clear();
    d2.clear();
    d1.reserve(opts_.num_samples);
    d2.reserve(opts_.num_samples);
    auto run_side = [&](double a_start, double a_start_c,
                        std::vector<double>& out) {
      work[a_var] = a_start;
      cent[a_var] = a_start_c;
      const char* live = live_step.data();
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const VarIndex v : order) {
          if (*live++ == 0) {
            rng.skip_normal();
            continue;
          }
          const double val = factors_.kernel_sample(v, work, cent, rng);
          work[v] = val;
          cent[v] = factors_.center(v, val);
        }
      }
      out.push_back(work[d_var]);
      for (const VarIndex v : written) {
        work[v] = state[v];
        cent[v] = cent0[v];
      }
      work[a_var] = state[a_var];
      cent[a_var] = cent0[a_var];
    };
    for (std::size_t s = 0; s < opts_.num_samples; ++s) {
      // Counterfactual start, then factual start (same resampling so the
      // distributions are comparable).
      run_side(a_cf, a_cf_c, d1);
      run_side(a_now, cent0[a_var], d2);
    }
    t = stats::welch_t_test(d1, d2);
    verdict.mean_counterfactual = stats::mean(d1);
    verdict.mean_factual = stats::mean(d2);
  }

  // Symptom abnormally high: root cause iff counterfactual lowers D
  // (d1 << d2, small p_less). Abnormally low: iff it raises D.
  verdict.ttest_degenerate = t.degenerate;
  verdict.p_value = symptom_high ? t.p_less : 1.0 - t.p_less;
  verdict.is_root_cause = verdict.p_value < opts_.significance;
  return verdict;
}

}  // namespace murphy::core
