// Automatic problematic-symptom identification (Appendix A.1).
//
// A trouble ticket ("app foo is slow") rarely names an (entity, metric)
// pair. Given an affected application, this scans its member entities for
// metrics that are anomalous in the current time slice — above the
// conservative alert thresholds operators configure, or far from their
// historical behaviour — and emits ranked (E_o, M_o) symptoms that Murphy
// can then diagnose one by one.
#pragma once

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"
#include "src/core/thresholds.h"
#include "src/obs/metrics.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

struct Symptom {
  EntityId entity;
  std::string metric;
  double value = 0.0;      // current value
  double severity = 0.0;   // robust z-score vs the history window
};

struct SymptomFinderOptions {
  Thresholds thresholds;
  // Also report metrics whose robust |z| exceeds this even when below the
  // static thresholds (catches collapses: a web VM doing 0 rx is a symptom
  // even though 0 crosses no "too high" line).
  double z_min = 3.0;
  std::size_t max_symptoms = 10;
  // Optional observability sink: counts metrics scanned / symptoms found.
  obs::MetricsRegistry* metrics = nullptr;
};

// Scans all members of `app` at time `now`; returns symptoms ordered most
// severe first. An empty result means the application looks healthy. The
// robust baseline is each series' history over [history_begin, now].
[[nodiscard]] std::vector<Symptom> find_symptoms(
    const telemetry::MonitoringDb& db, AppId app, TimeIndex now,
    const SymptomFinderOptions& opts = {}, TimeIndex history_begin = 0);

// Same scan for an explicit entity set (e.g. "these three VMs from the
// ticket").
[[nodiscard]] std::vector<Symptom> find_symptoms(
    const telemetry::MonitoringDb& db, std::span<const EntityId> entities,
    TimeIndex now, const SymptomFinderOptions& opts = {},
    TimeIndex history_begin = 0);

}  // namespace murphy::core
