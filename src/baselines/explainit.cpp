#include "src/baselines/explainit.h"

#include <algorithm>
#include <cmath>

#include "src/core/anomaly.h"
#include "src/core/factor_model.h"
#include "src/stats/correlation.h"

namespace murphy::baselines {

ExplainIt::ExplainIt(ExplainItOptions opts) : opts_(opts) {}

core::DiagnosisResult ExplainIt::diagnose(
    const core::DiagnosisRequest& request) {
  core::DiagnosisResult result;
  obs::Span diag_span(opts_.obs.tracer, "explainit_diagnose");
  if (diag_span.enabled()) diag_span.arg("symptom_metric", request.symptom_metric);
  const telemetry::MonitoringDb& db = *request.db;

  const std::vector<EntityId> seeds{request.symptom_entity};
  const auto graph =
      graph::RelationshipGraph::build(db, seeds, request.max_hops);
  const auto symptom_node = graph.index_of(request.symptom_entity);
  if (!symptom_node) return result;
  const core::MetricSpace space(db, graph);
  const auto kind = db.catalog().find(request.symptom_metric);
  if (!kind.valid()) return result;

  // Correlation window: trailing part of the training range.
  const TimeIndex end = request.train_end;
  const TimeIndex begin =
      request.train_begin +
      static_cast<TimeIndex>(static_cast<double>(end - request.train_begin) *
                             (1.0 - opts_.window_fraction));
  std::size_t nonfinite_reads = 0;
  const auto symptom_series =
      space.history(db, *space.find(request.symptom_entity, kind), begin, end,
                    &nonfinite_reads);

  // Candidate set: Murphy's pruned space when enabled, else every node.
  std::vector<graph::NodeIndex> candidates;
  if (opts_.use_pruned_search_space) {
    const core::FactorTrainingOptions topts;
    const core::FactorSet factors(db, graph, space, request.train_begin,
                                  request.train_end, topts);
    const auto state = space.snapshot(db, request.now, &nonfinite_reads);
    candidates = core::candidate_search(db, graph, space, factors, state,
                                        *symptom_node, core::Thresholds{},
                                        core::CandidateSearchOptions{});
  } else {
    candidates.resize(graph.node_count());
    for (graph::NodeIndex n = 0; n < graph.node_count(); ++n)
      candidates[n] = n;
  }

  std::vector<core::RankedRootCause> ranked;
  for (const graph::NodeIndex n : candidates) {
    double best = 0.0;
    for (const core::VarIndex v : space.vars_of(n)) {
      const auto& var = space.var(v);
      // The symptom entity itself is a legal answer (self-caused problems),
      // scored by its OTHER metrics' correlation with the symptom metric.
      if (var.entity == request.symptom_entity && var.kind == kind) continue;
      const auto series = space.history(db, v, begin, end, &nonfinite_reads);
      best = std::max(best, std::abs(stats::pearson(series, symptom_series)));
    }
    if (best >= opts_.min_correlation)
      ranked.push_back(core::RankedRootCause{graph.entity_of(n), best});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::RankedRootCause& a, const core::RankedRootCause& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  result.causes = std::move(ranked);
  if (opts_.obs.metrics != nullptr) {
    opts_.obs.metrics->counter("explainit.candidates_scored")
        ->add(candidates.size());
    opts_.obs.metrics->counter("explainit.causes_reported")
        ->add(result.causes.size());
    opts_.obs.metrics->add_nonzero("ingest.nonfinite_reads", nonfinite_reads);
  }
  return result;
}

}  // namespace murphy::baselines
