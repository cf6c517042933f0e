#include "src/eval/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace murphy::eval {

core::DiagnosisRequest request_for(const emulation::DiagnosisCase& c) {
  core::DiagnosisRequest req;
  req.db = &c.db;
  req.symptom_entity = c.symptom_entity;
  req.symptom_metric = c.symptom_metric;
  req.now = c.incident_end > 0 ? c.incident_end - 1 : 0;
  req.train_begin = 0;
  req.train_end = c.incident_end;
  req.max_hops = c.max_hops;
  return req;
}

core::DiagnosisRequest request_for(const enterprise::EnterpriseIncident& inc) {
  core::DiagnosisRequest req;
  req.db = &inc.topo.db;
  req.symptom_entity = inc.symptom_entity;
  req.symptom_metric = inc.symptom_metric;
  req.now = inc.incident_end > 0 ? inc.incident_end - 1 : 0;
  req.train_begin = 0;
  req.train_end = inc.incident_end;
  return req;
}

CaseOutcome run_case(core::Diagnoser& scheme,
                     const emulation::DiagnosisCase& c) {
  const auto result = scheme.diagnose(request_for(c));
  const std::vector<EntityId> truth{c.root_cause};
  return score_result(result, truth, c.relaxed_set);
}

CaseOutcome run_case(core::Diagnoser& scheme,
                     const enterprise::EnterpriseIncident& inc) {
  const auto result = scheme.diagnose(request_for(inc));
  return score_result(result, inc.ground_truth);
}

core::DiagnosisResult truncated(core::DiagnosisResult result, std::size_t k) {
  if (result.causes.size() > k) result.causes.resize(k);
  if (result.explanations.size() > k) result.explanations.resize(k);
  return result;
}

double calibrate_score_floor(
    core::Diagnoser& scheme,
    const std::vector<const enterprise::EnterpriseIncident*>& calibration) {
  double floor = std::numeric_limits<double>::infinity();
  for (const auto* inc : calibration) {
    const auto result = scheme.diagnose(request_for(*inc));
    for (const EntityId t : inc->ground_truth) {
      bool found = false;
      for (const auto& cause : result.causes) {
        if (cause.entity == t) {
          floor = std::min(floor, cause.score);
          found = true;
          break;
        }
      }
      if (!found) return 0.0;  // recall 1 unreachable: keep everything
    }
  }
  if (!std::isfinite(floor)) return 0.0;
  return floor * 0.999;  // keep the calibration truths themselves
}

core::DiagnosisResult filtered_by_score(core::DiagnosisResult result,
                                        double floor) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < result.causes.size(); ++i) {
    if (result.causes[i].score < floor) continue;
    result.causes[keep] = result.causes[i];
    if (i < result.explanations.size() && keep < result.explanations.size())
      result.explanations[keep] = result.explanations[i];
    ++keep;
  }
  result.causes.resize(keep);
  if (result.explanations.size() > keep) result.explanations.resize(keep);
  return result;
}

}  // namespace murphy::eval
