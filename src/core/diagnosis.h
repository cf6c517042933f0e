// Common interface implemented by Murphy and the reference baselines.
//
// Every scheme consumes the same inputs (the monitoring database, one
// problematic symptom and the time of the incident) and produces the same
// output shape (a ranked list of candidate root-cause entities), so the
// evaluation harness and benches can treat them interchangeably.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"
#include "src/obs/audit.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

struct DiagnosisRequest {
  const telemetry::MonitoringDb* db = nullptr;

  // The problematic symptom (E_o, M_o).
  EntityId symptom_entity;
  std::string symptom_metric;

  // Time slice at which the diagnosis runs (the "current" values). Training
  // uses history in [train_begin, train_end); with online training
  // train_end == now + 1 so the window includes in-incident points (§4.2).
  TimeIndex now = 0;
  TimeIndex train_begin = 0;
  TimeIndex train_end = 0;

  // Relationship-graph expansion depth from the symptom entity (§4.1).
  std::size_t max_hops = 4;

  // Cooperative cancellation (the service's per-request deadline, DESIGN.md
  // §9). When set, MurphyDiagnoser polls it between phases; once it returns
  // true the remaining phases are abandoned and the result comes back with
  // `cancelled` set and no causes. Polling happens ONLY at phase boundaries,
  // so a completed diagnosis is bit-identical whether or not a hook was
  // attached — cancellation can stop work, never alter it. Baselines ignore
  // it.
  std::function<bool()> cancel;
};

struct RankedRootCause {
  EntityId entity;
  // Scheme-specific score; larger = more suspect. Used only for ordering.
  double score = 0.0;
};

// Per-phase wall-clock timings of one diagnosis, in milliseconds. Murphy
// fills these (baselines leave zeros) so benches and tests can assert where
// time goes instead of guessing from end-to-end numbers. Since the
// observability layer landed they are derived from the engine's phase spans
// (obs::Span::finish), one source of truth shared with the trace export.
// Timings are the one part of a DiagnosisResult that is NOT deterministic.
struct PhaseTimings {
  double graph_ms = 0.0;      // relationship-graph build + metric space
  double training_ms = 0.0;   // online factor training
  double search_ms = 0.0;     // snapshot + candidate pruning
  double inference_ms = 0.0;  // counterfactual evaluation of all candidates
  double explain_ms = 0.0;    // labeling + explanation chains
  double total_ms = 0.0;      // whole diagnose() call
};

struct DiagnosisResult {
  // Candidates in rank order (index 0 = top suspect).
  std::vector<RankedRootCause> causes;

  // Human-readable explanation chains (Murphy only; empty for baselines).
  // Each chain explains causes[i] for matching i.
  std::vector<std::string> explanations;

  // Recent configuration changes around the incident (§4.2 "Edge cases"):
  // presented alongside the metric-driven diagnosis so that problems caused
  // by freshly spawned/migrated/resized entities are not missed. Murphy
  // fills this from the db's config-event log; baselines leave it empty.
  std::vector<telemetry::ConfigEvent> recent_config_changes;

  // Where the wall-clock went (see PhaseTimings).
  PhaseTimings timings;

  // Per-candidate evidence behind the ranking (Murphy only, and only when
  // MurphyOptions::obs.collect_audit is set; empty otherwise). Everything in
  // it is deterministic — see src/obs/audit.h.
  obs::DiagnosisAudit audit;

  // True when the diagnosis was abandoned at a phase boundary by the
  // cooperative cancellation hook (DiagnosisRequest::cancel — the service's
  // deadline enforcement). A cancelled result carries no causes; consumers
  // must check this before trusting an empty ranking to mean "healthy".
  bool cancelled = false;

  // Rank (1-based) of `entity`, or 0 when absent.
  [[nodiscard]] std::size_t rank_of(EntityId entity) const {
    for (std::size_t i = 0; i < causes.size(); ++i)
      if (causes[i].entity == entity) return i + 1;
    return 0;
  }
};

class Diagnoser {
 public:
  virtual ~Diagnoser() = default;
  [[nodiscard]] virtual DiagnosisResult diagnose(
      const DiagnosisRequest& request) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace murphy::core
