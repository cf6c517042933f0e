#include "src/baselines/netmedic.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "src/core/anomaly.h"
#include "src/core/factor_model.h"
#include "src/stats/correlation.h"
#include "src/stats/summary.h"

namespace murphy::baselines {

NetMedic::NetMedic(NetMedicOptions opts) : opts_(opts) {}

core::DiagnosisResult NetMedic::diagnose(
    const core::DiagnosisRequest& request) {
  core::DiagnosisResult result;
  obs::Span diag_span(opts_.obs.tracer, "netmedic_diagnose");
  if (diag_span.enabled()) diag_span.arg("symptom_metric", request.symptom_metric);
  const telemetry::MonitoringDb& db = *request.db;

  const std::vector<EntityId> seeds{request.symptom_entity};
  const auto graph =
      graph::RelationshipGraph::build(db, seeds, request.max_hops);
  const auto symptom_node = graph.index_of(request.symptom_entity);
  if (!symptom_node) return result;
  const core::MetricSpace space(db, graph);

  // Historical statistics via Murphy's factor trainer (only the marginals
  // are used; NetMedic has no learned conditionals).
  const core::FactorTrainingOptions topts;
  const core::FactorSet factors(db, graph, space, request.train_begin,
                                request.train_end, topts);
  std::size_t nonfinite_reads = 0;
  const auto state = space.snapshot(db, request.now, &nonfinite_reads);

  // Per-node abnormality in [0, 1). NetMedic uses plain historical
  // statistics over the window (its design predates any robust-statistics
  // treatment; the original expects a clean reference period that online
  // use doesn't provide — one of the brittleness sources §2.3 points at).
  std::vector<double> abnormality(graph.node_count(), 0.0);
  for (graph::NodeIndex n = 0; n < graph.node_count(); ++n) {
    double z = 0.0;
    for (const core::VarIndex v : space.vars_of(n)) {
      const auto& cond = factors.conditional(v);
      z = std::max(z, std::abs(stats::zscore(state[v], cond.hist_mean(),
                                             cond.hist_sigma(), 1e-3)));
    }
    abnormality[n] = z / (z + opts_.abnormality_scale);
  }

  const TimeIndex begin = request.train_begin;
  const TimeIndex end = request.train_end;
  std::vector<std::vector<double>> hist(space.size());
  for (core::VarIndex v = 0; v < space.size(); ++v)
    hist[v] = space.history(db, v, begin, end, &nonfinite_reads);

  // Per-variable scale for state-distance normalization.
  std::vector<double> scale(space.size(), 1.0);
  for (core::VarIndex v = 0; v < space.size(); ++v)
    scale[v] = std::max(stats::stddev(hist[v]), 1e-6);

  // Normalized distance between a node's state at history slice t and its
  // current state.
  const auto state_distance = [&](graph::NodeIndex n, std::size_t t) {
    double d = 0.0;
    std::size_t k = 0;
    for (const core::VarIndex v : space.vars_of(n)) {
      const double diff = (hist[v][t] - state[v]) / scale[v];
      d += diff * diff;
      ++k;
    }
    return k > 0 ? std::sqrt(d / static_cast<double>(k)) : 0.0;
  };

  // The original NetMedic edge weight: among the history slices where the
  // source S looked most like it does now, how closely did the destination
  // D track its own current state? If D was in a similar state whenever S
  // was, S plausibly controls D.
  const std::size_t n_slices = end - begin;
  const auto similarity_weight = [&](graph::NodeIndex s,
                                     graph::NodeIndex d) -> double {
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(n_slices);
    for (std::size_t t = 0; t < n_slices; ++t)
      ranked.emplace_back(state_distance(s, t), t);
    const std::size_t keep = std::min(opts_.similar_slices, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end());
    double weight = 0.0;
    for (std::size_t i = 0; i < keep; ++i) {
      const double dd = state_distance(d, ranked[i].second);
      weight += 1.0 / (1.0 + dd);  // 1 when D matched exactly, -> 0 when far
    }
    return keep > 0 ? weight / static_cast<double>(keep) : 0.0;
  };

  // Fallback weight: co-abnormality correlation of the endpoint metrics.
  const auto correlation_weight = [&](graph::NodeIndex s,
                                      graph::NodeIndex d) -> double {
    double best = 0.0;
    for (const core::VarIndex vs : space.vars_of(s))
      for (const core::VarIndex vd : space.vars_of(d))
        best = std::max(
            best, std::abs(stats::abnormality_correlation(hist[vs], hist[vd])));
    return best;
  };

  // Both variants are dampened when the source currently looks normal
  // (NetMedic's "ignore normal influence" heuristic). Weights are memoized:
  // the per-candidate path search revisits the same edges many times.
  std::unordered_map<std::uint64_t, double> weight_cache;
  const auto edge_weight = [&](graph::NodeIndex s,
                               graph::NodeIndex d) -> double {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint32_t>(d);
    if (const auto it = weight_cache.find(key); it != weight_cache.end())
      return it->second;
    const double raw = opts_.use_state_similarity ? similarity_weight(s, d)
                                                  : correlation_weight(s, d);
    const double w =
        std::clamp(raw, 0.01, 1.0) * (0.2 + 0.8 * abnormality[s]);
    weight_cache.emplace(key, w);
    return w;
  };

  // Candidate set (shared pruned space for fairness, per the paper).
  std::vector<graph::NodeIndex> candidates;
  if (opts_.use_pruned_search_space) {
    candidates = core::candidate_search(db, graph, space, factors, state,
                                        *symptom_node, core::Thresholds{},
                                        core::CandidateSearchOptions{});
  } else {
    candidates.resize(graph.node_count());
    for (graph::NodeIndex n = 0; n < graph.node_count(); ++n)
      candidates[n] = n;
  }

  // Best-path (max geometric mean) from candidate to symptom: maximize
  // sum(log w)/len over paths via a bounded BFS with log-weight relaxation.
  // NetMedic's original uses the max-weight path with geometric-mean
  // normalization; we approximate with per-hop-count dynamic programming.
  const std::size_t max_len = 6;
  const auto path_score = [&](graph::NodeIndex from) -> double {
    // dp[len][node] = best sum of log edge weights using exactly `len` hops.
    std::vector<std::vector<double>> dp(
        max_len + 1,
        std::vector<double>(graph.node_count(),
                            -std::numeric_limits<double>::infinity()));
    dp[0][from] = 0.0;
    double best = 0.0;
    // Influence can flow against a known call direction (a slow callee
    // affects its caller), so the dependency traversal uses both edge
    // directions — NetMedic's dependency graphs encode "affects" both ways.
    const auto relax = [&](std::size_t len, graph::NodeIndex n,
                           graph::NodeIndex nb) {
      const double w = std::log(edge_weight(n, nb));
      if (dp[len][n] + w > dp[len + 1][nb]) dp[len + 1][nb] = dp[len][n] + w;
    };
    for (std::size_t len = 0; len < max_len; ++len) {
      for (graph::NodeIndex n = 0; n < graph.node_count(); ++n) {
        if (!std::isfinite(dp[len][n])) continue;
        for (const graph::NodeIndex nb : graph.out_neighbors(n))
          relax(len, n, nb);
        for (const graph::NodeIndex nb : graph.in_neighbors(n))
          relax(len, n, nb);
      }
      if (std::isfinite(dp[len + 1][*symptom_node])) {
        const double gm =
            std::exp(dp[len + 1][*symptom_node] / static_cast<double>(len + 1));
        best = std::max(best, gm);
      }
    }
    return best;
  };

  // Global impact: fraction of abnormal nodes reachable from the candidate
  // (either edge direction, as above).
  const auto global_impact = [&](graph::NodeIndex from) -> double {
    const auto d_out = graph.distances_from(from);
    const auto d_in = graph.distances_to(from);
    double reach_abnormal = 0.0, total_abnormal = 1e-9;
    for (graph::NodeIndex n = 0; n < graph.node_count(); ++n) {
      if (abnormality[n] < 0.5) continue;
      total_abnormal += 1.0;
      if (d_out[n] != graph::kUnreachable || d_in[n] != graph::kUnreachable)
        reach_abnormal += 1.0;
    }
    return reach_abnormal / total_abnormal;
  };

  std::vector<core::RankedRootCause> ranked;
  for (const graph::NodeIndex n : candidates) {
    // The symptom entity itself may be the cause (path weight 1 to itself).
    const double path = n == *symptom_node ? 1.0 : path_score(n);
    const double score =
        path * (0.5 + 0.5 * global_impact(n)) * abnormality[n];
    if (score >= opts_.min_score)
      ranked.push_back(core::RankedRootCause{graph.entity_of(n), score});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::RankedRootCause& a, const core::RankedRootCause& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  result.causes = std::move(ranked);
  if (opts_.obs.metrics != nullptr) {
    opts_.obs.metrics->counter("netmedic.candidates_scored")
        ->add(candidates.size());
    opts_.obs.metrics->counter("netmedic.causes_reported")
        ->add(result.causes.size());
    opts_.obs.metrics->add_nonzero("ingest.nonfinite_reads", nonfinite_reads);
  }
  return result;
}

}  // namespace murphy::baselines
