#include "src/core/symptom_finder.h"

#include <algorithm>
#include <cmath>

#include "src/stats/summary.h"

namespace murphy::core {

std::vector<Symptom> find_symptoms(const telemetry::MonitoringDb& db,
                                   AppId app, TimeIndex now,
                                   const SymptomFinderOptions& opts,
                                   TimeIndex history_begin) {
  return find_symptoms(db, db.app(app).members, now, opts, history_begin);
}

std::vector<Symptom> find_symptoms(const telemetry::MonitoringDb& db,
                                   std::span<const EntityId> entities,
                                   TimeIndex now,
                                   const SymptomFinderOptions& opts,
                                   TimeIndex history_begin) {
  std::vector<Symptom> out;
  std::size_t scanned = 0;
  std::size_t nonfinite_reads = 0;
  for (const EntityId entity : entities) {
    if (!db.has_entity(entity)) continue;
    for (const MetricKindId kind : db.metrics().kinds_of(entity)) {
      ++scanned;
      const auto* ts = db.metrics().find(entity, kind);
      if (ts == nullptr || now >= ts->size()) continue;
      const double value = ts->value_or(now, 0.0, &nonfinite_reads);

      const auto history =
          ts->window(history_begin, now + 1, 0.0, &nonfinite_reads);
      const double center = stats::median(history);
      const double sigma = stats::mad_sigma(history);
      const double z = std::abs(stats::zscore(value, center, sigma, 1e-3));

      const auto name = db.catalog().name(kind);
      // A symptom is a metric that is BOTH beyond the operator's alert
      // threshold AND unusual for this entity, or one that is wildly
      // unusual regardless of thresholds (covers collapses). A steadily
      // busy metric (e.g. a db VM always receiving 30 MB/s) is not a
      // symptom even though it crosses the static threshold.
      const bool above = opts.thresholds.is_above(name, value);
      if (!(above && z >= 2.0) && z < opts.z_min) continue;

      Symptom s;
      s.entity = entity;
      s.metric = std::string(name);
      s.value = value;
      s.severity = z;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Symptom& a, const Symptom& b) {
    if (a.severity != b.severity) return a.severity > b.severity;
    if (a.entity != b.entity) return a.entity < b.entity;
    return a.metric < b.metric;
  });
  if (out.size() > opts.max_symptoms) out.resize(opts.max_symptoms);
  if (opts.metrics != nullptr) {
    opts.metrics->counter("finder.metrics_scanned")->add(scanned);
    opts.metrics->counter("finder.symptoms_found")->add(out.size());
    opts.metrics->add_nonzero("ingest.nonfinite_reads", nonfinite_reads);
  }
  return out;
}

}  // namespace murphy::core
