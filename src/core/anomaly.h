// Anomaly scoring and candidate search.
//
// Anomaly score (§4.2, "Ranking the root causes"): how many historical
// standard deviations an entity's most anomalous current metric is from its
// historical mean. Candidate search: breadth-first exploration from the
// symptom entity through entities whose metrics look suspicious, pruning the
// rest — this bounds the root-cause search space and, per the paper, is
// shared with the baselines for fairness.
#pragma once

#include <vector>

#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/thresholds.h"

namespace murphy::core {

// |z-score| of variable v's current value vs its training-window marginal.
[[nodiscard]] double variable_anomaly(const FactorSet& factors, VarIndex v,
                                      double current);

// Max anomaly across the node's metrics; also reports which variable.
struct NodeAnomaly {
  double score = 0.0;
  // Ranking score: z * (1 + |x - center| / max(|center|, 1)). The extra
  // relative-excursion factor discounts chronically jittery or tiny-baseline
  // metrics whose MAD-based z explodes, so a client whose request rate rose
  // 14x outranks a container whose CPU rose 3x even when both are >20 sigma.
  double rank_score = 0.0;
  VarIndex driver = 0;  // the most anomalous variable of the node
  bool high = true;     // driver is abnormally high (vs low)
};
[[nodiscard]] NodeAnomaly node_anomaly(const FactorSet& factors,
                                       const MetricSpace& space,
                                       graph::NodeIndex node,
                                       std::span<const double> state);

struct CandidateSearchOptions {
  // Alternative criterion for metrics that collapse rather than spike (a
  // crashed VM's CPU never crosses a "too high" threshold): a metric is
  // suspicious when |z| exceeds this.
  double z_min = 2.0;
  // Hop budget from the symptom entity (expansion never crosses a
  // non-suspicious entity).
  std::size_t max_hops = 6;
  std::size_t max_candidates = 200;
};

// The pruned candidate set (§4.2): BFS from `symptom`, expanding only
// through entities with at least one suspicious metric (a value above its
// `thresholds` entry, or |z| above opts.z_min). The symptom node
// itself is always included and is a legal candidate (self-caused
// incidents exist, e.g. a stuck process on the symptomatic VM).
[[nodiscard]] std::vector<graph::NodeIndex> candidate_search(
    const telemetry::MonitoringDb& db, const graph::RelationshipGraph& graph,
    const MetricSpace& space, const FactorSet& factors,
    std::span<const double> state, graph::NodeIndex symptom,
    const Thresholds& thresholds, const CandidateSearchOptions& opts);

}  // namespace murphy::core
