#include "src/core/anomaly.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/stats/summary.h"

namespace murphy::core {

double variable_anomaly(const FactorSet& factors, VarIndex v, double current) {
  // Robust statistics: with online training the incident sits inside the
  // window and would otherwise inflate mean/sigma enough to mask itself.
  const MetricConditional& c = factors.conditional(v);
  return std::abs(
      stats::zscore(current, c.robust_center(), c.robust_sigma(), 1e-3));
}

NodeAnomaly node_anomaly(const FactorSet& factors, const MetricSpace& space,
                         graph::NodeIndex node,
                         std::span<const double> state) {
  NodeAnomaly out;
  bool first = true;
  for (const VarIndex v : space.vars_of(node)) {
    const double a = variable_anomaly(factors, v, state[v]);
    const double center = factors.conditional(v).robust_center();
    const double ratio =
        std::abs(state[v] - center) / std::max(std::abs(center), 1.0);
    out.rank_score = std::max(out.rank_score, a * (1.0 + ratio));
    if (first || a > out.score) {
      out.score = a;
      out.driver = v;
      out.high = state[v] >= center;
      first = false;
    }
  }
  return out;
}

std::vector<graph::NodeIndex> candidate_search(
    const telemetry::MonitoringDb& db, const graph::RelationshipGraph& graph,
    const MetricSpace& space, const FactorSet& factors,
    std::span<const double> state, graph::NodeIndex symptom,
    const Thresholds& thresholds, const CandidateSearchOptions& opts) {
  auto suspicious = [&](graph::NodeIndex n) {
    for (const VarIndex v : space.vars_of(n)) {
      const auto& var = space.var(v);
      const auto name = db.catalog().name(var.kind);
      if (thresholds.is_above(name, state[v])) return true;
      if (variable_anomaly(factors, v, state[v]) > opts.z_min) return true;
    }
    return false;
  };

  std::vector<graph::NodeIndex> out;
  std::vector<bool> seen(graph.node_count(), false);
  std::deque<std::pair<graph::NodeIndex, std::size_t>> queue;
  queue.emplace_back(symptom, 0);
  seen[symptom] = true;

  while (!queue.empty() && out.size() < opts.max_candidates) {
    const auto [cur, depth] = queue.front();
    queue.pop_front();
    out.push_back(cur);
    if (depth >= opts.max_hops) continue;
    // Explore both edge directions: influence may flow either way through a
    // loose association.
    auto visit = [&](graph::NodeIndex nb) {
      if (seen[nb]) return;
      seen[nb] = true;
      if (suspicious(nb)) queue.emplace_back(nb, depth + 1);
    };
    for (const graph::NodeIndex nb : graph.out_neighbors(cur)) visit(nb);
    for (const graph::NodeIndex nb : graph.in_neighbors(cur)) visit(nb);
  }
  return out;
}

}  // namespace murphy::core
