#include "src/core/metric_space.h"

namespace murphy::core {

MetricSpace::MetricSpace(const telemetry::MonitoringDb& db,
                         const graph::RelationshipGraph& graph) {
  node_vars_.resize(graph.node_count());
  for (graph::NodeIndex n = 0; n < graph.node_count(); ++n) {
    const EntityId entity = graph.entity_of(n);
    for (const MetricKindId kind : db.metrics().kinds_of(entity)) {
      const VarIndex v = vars_.size();
      vars_.push_back(Var{n, entity, kind});
      node_vars_[n].push_back(v);
      index_.emplace(MetricRef{entity, kind}, v);
    }
  }
}

std::optional<VarIndex> MetricSpace::find(EntityId entity,
                                          MetricKindId kind) const {
  const auto it = index_.find(MetricRef{entity, kind});
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> MetricSpace::snapshot(const telemetry::MonitoringDb& db,
                                          TimeIndex t,
                                          std::size_t* nonfinite_reads) const {
  std::vector<double> out(vars_.size(), 0.0);
  for (VarIndex v = 0; v < vars_.size(); ++v) {
    const auto* ts = db.metrics().find(vars_[v].entity, vars_[v].kind);
    if (ts != nullptr) out[v] = ts->value_or(t, 0.0, nonfinite_reads);
  }
  return out;
}

std::vector<double> MetricSpace::history(const telemetry::MonitoringDb& db,
                                         VarIndex v, TimeIndex from,
                                         TimeIndex to,
                                         std::size_t* nonfinite_reads) const {
  // An inverted window (to < from) is a telemetry defect, not a caller bug:
  // unsigned subtraction below would request ~2^64 slices. Treat it as empty.
  if (to < from) return {};
  const auto* ts = db.metrics().find(vars_[v].entity, vars_[v].kind);
  if (ts == nullptr) return std::vector<double>(to - from, 0.0);
  return ts->window(from, to, 0.0, nonfinite_reads);
}

}  // namespace murphy::core
