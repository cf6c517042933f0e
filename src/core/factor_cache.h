// Training caches: cross-symptom factor reuse and the one owner of their
// generation.
//
// A batch diagnosis runs one full FactorSet training per symptom, but the
// symptoms of one incident overwhelmingly share their relationship-graph
// neighborhoods: the same (entity, metric) conditional, fit on the same
// window against the same in-neighbor candidate set, is re-trained once per
// symptom. FactorCache trains each such factor exactly once and shares the
// fitted model across symptoms (and, in the service, across requests).
//
// Why sharing is bitwise safe: a ridge factor is a pure function of
//   (target history, candidate feature histories in selection order,
//    training options),
// none of which depend on the graph's node numbering. Feature selection is
// graph-invariant too — candidates are scored by |pearson| (a pure function
// of the two histories) and ties break on (entity, kind), not VarIndex (see
// FactorSet). The cache key is (entity, kind, sorted in-neighbor entity
// set, the write epoch of every series the trainer may read, train window):
// equal keys imply identical candidate histories, hence an identical scored
// list, selection, fit, residual and historical moments. Ridge's
// closed-form fit ignores the per-target RNG seed; stochastic model
// families (MLP/SVR/GMM) seed by VarIndex and are therefore NOT cacheable —
// FactorSet bypasses the cache for them.
//
// Validity has two parts. A value write changes the touched series' epoch
// and with it every key that read the series, so stale entries are simply
// never looked up again. Everything the keys do not cover — which db this
// is (MonitoringDb::uid(), a process-unique id immune to the address
// recycling that made an &db fingerprint an ABA hazard), its structure
// (structural_data_version()) and the training options — forms the
// generation fingerprint that TrainingCaches owns: a change empties both
// caches.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/ids.h"
#include "src/stats/build_once_map.h"
#include "src/stats/predictor.h"
#include "src/stats/window_stats.h"

namespace murphy::telemetry {
class MonitoringDb;
}

namespace murphy::core {

struct FactorTrainingOptions;

// One trained factor in graph-independent form: features are (entity, kind)
// refs, not VarIndex, so any graph containing the entities can rebind it.
struct CachedFactor {
  std::vector<MetricRef> features;  // selection order
  std::shared_ptr<const stats::Predictor> model;  // null when no features
  double hist_mean = 0.0;
  double hist_sigma = 0.0;
  double robust_center = 0.0;
  double robust_sigma = 0.0;
  double training_mase = 0.0;
  std::size_t considered = 0;  // candidates scored before top-B pruning
};

// 64-bit hash chaining for cache keys/fingerprints (splitmix64 finalizer —
// not cryptographic, just well-mixed).
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

using FactorCache = stats::BuildOnceMap<CachedFactor>;

// Both training caches plus the generation they are valid for. Pass one to
// MurphyDiagnoser (or the FactorSet constructor); DiagnosisService and
// BatchDiagnoser each own one.
class TrainingCaches {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 8192;

  explicit TrainingCaches(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  // Empties both caches unless (db.uid(), db.structural_data_version(),
  // the training options that shape a fit) match the current generation.
  // Call before every training against `db`, while `db` cannot change.
  // Concurrent calls against one frozen db agree on the generation, so at
  // most the first of them empties anything; no reference obtained from
  // the caches may be live across a call that changes the generation.
  void renew(const telemetry::MonitoringDb& db,
             const FactorTrainingOptions& opts);

  // Empties either cache that holds more than the bound. Stale entries
  // expire by key change rather than by generation, so this is what bounds
  // memory. Same precondition: no cache reference may be live.
  void prune();

  [[nodiscard]] stats::WindowStats& window_stats() { return window_stats_; }
  [[nodiscard]] FactorCache& factors() { return factors_; }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }

 private:
  std::mutex mu_;  // guards generation_ against concurrent renew() calls
  std::uint64_t generation_ = 0;
  std::size_t max_entries_;
  stats::WindowStats window_stats_;
  FactorCache factors_;
};

}  // namespace murphy::core
