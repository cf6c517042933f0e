#include "src/core/factor_cache.h"

#include <bit>

#include "src/core/factor_model.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void TrainingCaches::renew(const telemetry::MonitoringDb& db,
                           const FactorTrainingOptions& opts) {
  std::uint64_t g = hash_mix(0x5E21BCE5u, db.uid());
  g = hash_mix(g, db.structural_data_version());
  g = hash_mix(g, opts.top_b);
  g = hash_mix(g, static_cast<std::uint64_t>(opts.model));
  g = hash_mix(g, std::bit_cast<std::uint64_t>(opts.predictor.l2));
  g = hash_mix(g, std::bit_cast<std::uint64_t>(opts.recency_half_life));
  std::lock_guard lock(mu_);
  if (g == generation_) return;
  window_stats_.prune(0);
  factors_.prune(0);
  generation_ = g;
}

void TrainingCaches::prune() {
  window_stats_.prune(max_entries_);
  factors_.prune(max_entries_);
}

}  // namespace murphy::core
