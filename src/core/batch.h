// Multi-symptom diagnosis (§3 / Appendix A.1).
//
// A real ticket maps to several problematic symptoms; Murphy runs its
// inference separately per symptom and the operator wants one consolidated
// list. BatchDiagnosis runs the symptom finder over an affected application
// (or an explicit symptom list), diagnoses each symptom, and merges the
// per-symptom rankings: an entity implicated for several independent
// symptoms is a stronger suspect than one implicated once.
#pragma once

#include <span>

#include "src/core/murphy.h"
#include "src/core/symptom_finder.h"

namespace murphy::core {

// Reciprocal-rank fusion of per-symptom rankings: entity score = sum over
// symptoms of 1/rank, counting only the top `per_symptom_top_k` causes of
// each symptom and excluding each symptom's own entity (it is an effect
// there). The result is sorted by score, ties broken by entity id, and is
// invariant under permutation of the (symptoms, per_symptom) pairs.
// `per_symptom` must parallel `symptoms`.
[[nodiscard]] std::vector<RankedRootCause> fuse_reciprocal_rank(
    std::span<const Symptom> symptoms,
    std::span<const DiagnosisResult> per_symptom,
    std::size_t per_symptom_top_k);

struct BatchOptions {
  MurphyOptions murphy;
  SymptomFinderOptions finder;
  // Per-symptom candidates below this rank do not contribute to the merge.
  std::size_t per_symptom_top_k = 10;
};

struct BatchResult {
  std::vector<Symptom> symptoms;                // what was diagnosed
  std::vector<DiagnosisResult> per_symptom;     // parallel to `symptoms`
  // Merged ranking: score = sum over symptoms of 1/rank (reciprocal-rank
  // fusion), so breadth of implication beats a single high placement.
  std::vector<RankedRootCause> merged;
};

class BatchDiagnoser {
 public:
  explicit BatchDiagnoser(BatchOptions opts = {});

  // Finds symptoms of `app` at `now` and diagnoses each.
  [[nodiscard]] BatchResult diagnose_app(const telemetry::MonitoringDb& db,
                                         AppId app, TimeIndex now,
                                         TimeIndex train_begin,
                                         TimeIndex train_end);

  // Diagnoses an explicit symptom list. Symptoms are diagnosed in parallel
  // per opts.murphy.num_threads (each symptom is an independent inference);
  // because every diagnosis is deterministic regardless of thread count, the
  // batch result is too, and the inner per-candidate parallelism is disabled
  // while the outer per-symptom loop is parallel without changing output.
  [[nodiscard]] BatchResult diagnose_symptoms(
      const telemetry::MonitoringDb& db, std::vector<Symptom> symptoms,
      TimeIndex now, TimeIndex train_begin, TimeIndex train_end);

  // The persistent training caches, for inspection (sizes, hit/miss
  // tallies). Either cache exceeds max_entries() by at most one call's
  // working set: each call prunes before it trains.
  [[nodiscard]] TrainingCaches& caches() { return caches_; }

 private:
  BatchOptions opts_;
  // Cross-symptom training caches (window column moments + trained
  // factors), persistent across calls. Symptoms of one incident share most
  // of their graph neighborhoods, so each shared factor trains once instead
  // of once per symptom, and a repeat diagnosis reuses every factor whose
  // inputs did not change. Purely a work-saving measure: results are
  // bitwise identical to uncached per-symptom diagnoses.
  TrainingCaches caches_;
};

}  // namespace murphy::core
