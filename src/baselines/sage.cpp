#include "src/baselines/sage.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "src/core/metric_space.h"
#include "src/common/rng.h"
#include "src/stats/matrix.h"
#include "src/stats/ridge.h"
#include "src/stats/summary.h"

namespace murphy::baselines {
namespace {

using telemetry::RelationKind;

// Dependency semantics of the association kinds Sage understands: X -> Y
// means "X's behaviour depends on Y". Sage is *given* the call-graph
// directions (that is its input requirement); what it cannot use are the
// loose associations whose direction nobody knows.
struct DepEdge {
  EntityId from;  // dependent
  EntityId to;    // dependency
};

// Extracts the dependency edges Sage can interpret. Returns nullopt when a
// required direction is unknown (the association is marked undirected), in
// which case Sage cannot construct its causal DAG from that edge.
std::vector<DepEdge> dependency_edges(const telemetry::MonitoringDb& db,
                                      bool* saw_undirected_call) {
  std::vector<DepEdge> out;
  *saw_undirected_call = false;
  for (std::size_t i = 0; i < db.association_count(); ++i) {
    const auto& assoc = db.association(i);
    switch (assoc.kind) {
      case RelationKind::kCallerCallee:
      case RelationKind::kClientOfService:
        if (!assoc.directed) {
          // Direction unknown -> Sage cannot place this edge in a DAG.
          *saw_undirected_call = true;
          continue;
        }
        // Directed associations are stored in influence order (callee ->
        // caller / service -> client); the dependent is the target side.
        out.push_back(DepEdge{assoc.b, assoc.a});
        break;
      case RelationKind::kServiceOnContainer:
        out.push_back(DepEdge{assoc.a, assoc.b});  // service depends on ctr
        break;
      case RelationKind::kContainerOnNode:
        out.push_back(DepEdge{assoc.a, assoc.b});
        break;
      default:
        // Loose association without causal semantics: unusable by Sage.
        break;
    }
  }
  return out;
}

}  // namespace

Sage::Sage(SageOptions opts) : opts_(opts) {}

core::DiagnosisResult Sage::diagnose(const core::DiagnosisRequest& request) {
  core::DiagnosisResult result;
  obs::Span diag_span(opts_.obs.tracer, "sage_diagnose");
  if (diag_span.enabled()) diag_span.arg("symptom_metric", request.symptom_metric);
  const telemetry::MonitoringDb& db = *request.db;

  bool saw_undirected_call = false;
  const auto deps = dependency_edges(db, &saw_undirected_call);
  if (deps.empty()) return result;  // no causal structure available at all

  // Model scope: the symptom's dependency subtree (BFS along dep edges).
  std::vector<EntityId> model;
  std::unordered_map<EntityId, std::size_t> index;
  std::deque<EntityId> queue{request.symptom_entity};
  index.emplace(request.symptom_entity, 0);
  model.push_back(request.symptom_entity);
  while (!queue.empty()) {
    const EntityId cur = queue.front();
    queue.pop_front();
    for (const DepEdge& e : deps) {
      if (e.from != cur) continue;
      if (index.find(e.to) != index.end()) continue;
      index.emplace(e.to, model.size());
      model.push_back(e.to);
      queue.push_back(e.to);
    }
  }
  if (model.size() < 2) return result;  // nothing to reason over

  // Adjacency within the model + cycle check (Kahn). A cyclic dependency
  // graph is outside Sage's model class: refuse.
  std::vector<std::vector<std::size_t>> deps_of(model.size());
  std::vector<std::size_t> out_degree(model.size(), 0);
  for (const DepEdge& e : deps) {
    const auto fi = index.find(e.from);
    const auto ti = index.find(e.to);
    if (fi == index.end() || ti == index.end()) continue;
    deps_of[fi->second].push_back(ti->second);
    ++out_degree[fi->second];
  }
  std::vector<std::size_t> order;  // leaves (no deps) first
  {
    std::vector<std::size_t> remaining = out_degree;
    std::deque<std::size_t> ready;
    for (std::size_t i = 0; i < model.size(); ++i)
      if (remaining[i] == 0) ready.push_back(i);
    std::vector<std::vector<std::size_t>> dependents(model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
      for (const std::size_t d : deps_of[i]) dependents[d].push_back(i);
    while (!ready.empty()) {
      const std::size_t cur = ready.front();
      ready.pop_front();
      order.push_back(cur);
      for (const std::size_t parent : dependents[cur])
        if (--remaining[parent] == 0) ready.push_back(parent);
    }
    if (order.size() != model.size()) return result;  // cyclic: refuse
  }

  // Variables: all metrics of the model entities.
  struct SageVar {
    std::size_t node;
    MetricKindId kind;
  };
  std::vector<SageVar> vars;
  std::unordered_map<MetricRef, std::size_t> var_index;
  std::vector<std::vector<std::size_t>> node_vars(model.size());
  for (std::size_t n = 0; n < model.size(); ++n) {
    for (const MetricKindId kind : db.metrics().kinds_of(model[n])) {
      var_index.emplace(MetricRef{model[n], kind}, vars.size());
      node_vars[n].push_back(vars.size());
      vars.push_back(SageVar{n, kind});
    }
  }
  const auto symptom_kind = db.catalog().find(request.symptom_metric);
  const auto symptom_it =
      var_index.find(MetricRef{request.symptom_entity, symptom_kind});
  if (symptom_it == var_index.end()) return result;
  const std::size_t symptom_var = symptom_it->second;

  // Histories + per-variable generative model: predict each variable from
  // the metrics of the node's dependencies.
  const TimeIndex begin = request.train_begin;
  const TimeIndex end = request.train_end;
  const std::size_t rows = end - begin;
  std::size_t nonfinite_reads = 0;
  std::vector<std::vector<double>> hist(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const auto* ts = db.metrics().find(vars[v].node < model.size()
                                           ? model[vars[v].node]
                                           : EntityId::invalid(),
                                       vars[v].kind);
    hist[v] = ts ? ts->window(begin, end, 0.0, &nonfinite_reads)
                 : std::vector<double>(rows, 0.0);
  }

  struct NodeModel {
    std::vector<std::size_t> features;
    std::unique_ptr<stats::Predictor> predictor;
    double normal = 0.0;  // historical median, the "healthy" value
  };
  std::vector<NodeModel> models(vars.size());
  Rng rng(opts_.seed);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    NodeModel& m = models[v];
    m.normal = stats::median(hist[v]);
    for (const std::size_t dep : deps_of[vars[v].node])
      for (const std::size_t f : node_vars[dep]) m.features.push_back(f);
    if (m.features.empty()) continue;  // leaf: exogenous
    stats::Matrix x(rows, m.features.size());
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < m.features.size(); ++c)
        x.at(r, c) = hist[m.features[c]][r];
    m.predictor =
        stats::make_predictor(opts_.node_model, opts_.predictor, rng());
    m.predictor->fit(x, hist[v]);
    if (opts_.obs.metrics != nullptr &&
        opts_.node_model == stats::ModelKind::kRidge) {
      // Counted under the engine's names (DESIGN.md §6).
      const auto& fit =
          static_cast<const stats::RidgeRegression&>(*m.predictor)
              .fit_report();
      obs::MetricsRegistry& reg = *opts_.obs.metrics;
      reg.add_nonzero("stats.ridge_fits", 1);
      reg.add_nonzero("stats.ridge_cells", fit.cells);
      reg.add_nonzero("train.nonfinite_cells", fit.nonfinite_cells);
      reg.add_nonzero("train.degenerate_columns", fit.degenerate_columns);
    }
  }

  // Current state + counterfactual replay.
  std::vector<double> current(vars.size(), 0.0);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const auto* ts = db.metrics().find(model[vars[v].node], vars[v].kind);
    if (ts) current[v] = ts->value_or(request.now, 0.0, &nonfinite_reads);
  }
  if (opts_.obs.metrics != nullptr)
    opts_.obs.metrics->add_nonzero("ingest.nonfinite_reads", nonfinite_reads);

  const auto replay = [&](std::size_t pinned_node) -> double {
    std::vector<double> state = current;
    // Pin the candidate's metrics to their historical normal.
    for (const std::size_t v : node_vars[pinned_node])
      state[v] = models[v].normal;
    // Recompute every non-leaf variable in dependency order (leaves first),
    // skipping the pinned node.
    std::vector<double> row;
    for (const std::size_t n : order) {
      if (n == pinned_node) continue;
      for (const std::size_t v : node_vars[n]) {
        const NodeModel& m = models[v];
        if (!m.predictor) continue;
        row.resize(m.features.size());
        for (std::size_t c = 0; c < m.features.size(); ++c)
          row[c] = state[m.features[c]];
        state[v] = m.predictor->predict(row);
      }
    }
    return state[symptom_var];
  };

  const double symptom_now = current[symptom_var];
  const double symptom_normal = models[symptom_var].normal;
  const double deviation = symptom_now - symptom_normal;
  if (std::abs(deviation) < 1e-9) return result;

  std::vector<core::RankedRootCause> ranked;
  for (std::size_t n = 1; n < model.size(); ++n) {  // skip the symptom itself
    const double cf = replay(n);
    // Fraction of the deviation the counterfactual removes.
    const double restored = (symptom_now - cf) / deviation;
    if (restored >= opts_.restoration_threshold)
      ranked.push_back(core::RankedRootCause{model[n], restored});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::RankedRootCause& a, const core::RankedRootCause& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  result.causes = std::move(ranked);
  if (opts_.obs.metrics != nullptr) {
    opts_.obs.metrics->counter("sage.candidates_replayed")
        ->add(model.size() - 1);
    opts_.obs.metrics->counter("sage.causes_reported")
        ->add(result.causes.size());
  }
  return result;
}

}  // namespace murphy::baselines
