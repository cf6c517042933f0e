// The flattened variable space of the MRF.
//
// The MRF's random variables are (entity, metric-kind) pairs over one
// relationship graph. MetricSpace assigns each such pair a dense VarIndex so
// samplers and factors can work on flat arrays, and snapshots the monitoring
// database's values at a time slice into a state vector.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/graph/relationship_graph.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

using VarIndex = std::size_t;

class MetricSpace {
 public:
  // Enumerates every metric recorded for every node of `graph`, in node
  // order then kind order (deterministic).
  MetricSpace(const telemetry::MonitoringDb& db,
              const graph::RelationshipGraph& graph);

  [[nodiscard]] std::size_t size() const { return vars_.size(); }

  struct Var {
    graph::NodeIndex node;
    EntityId entity;
    MetricKindId kind;
  };
  [[nodiscard]] const Var& var(VarIndex i) const { return vars_[i]; }
  [[nodiscard]] std::optional<VarIndex> find(EntityId entity,
                                             MetricKindId kind) const;
  // Variable indices belonging to one graph node.
  [[nodiscard]] std::span<const VarIndex> vars_of(
      graph::NodeIndex node) const {
    return node_vars_[node];
  }

  // Snapshot of all variable values at time slice t (missing -> 0, the
  // paper's placeholder default). Stored non-finite values read as missing
  // and are added to *nonfinite_reads when it is non-null (see
  // TimeSeries::value_or); the caller counts them as
  // `ingest.nonfinite_reads`.
  [[nodiscard]] std::vector<double> snapshot(
      const telemetry::MonitoringDb& db, TimeIndex t,
      std::size_t* nonfinite_reads = nullptr) const;

  // Per-variable training matrix column: values over [from, to), with
  // non-finite reads reported as in snapshot().
  [[nodiscard]] std::vector<double> history(
      const telemetry::MonitoringDb& db, VarIndex v, TimeIndex from,
      TimeIndex to, std::size_t* nonfinite_reads = nullptr) const;

 private:
  std::vector<Var> vars_;
  std::vector<std::vector<VarIndex>> node_vars_;
  std::unordered_map<MetricRef, VarIndex> index_;
};

}  // namespace murphy::core
