#include "src/eval/chaos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/rng.h"

namespace murphy::eval {
namespace {

bool is_protected(std::span<const MetricRef> protect, EntityId entity,
                  MetricKindId kind) {
  return std::any_of(protect.begin(), protect.end(), [&](const MetricRef& m) {
    return m.entity == entity && m.kind == kind;
  });
}

bool entity_protected(std::span<const MetricRef> protect, EntityId entity) {
  return std::any_of(protect.begin(), protect.end(),
                     [&](const MetricRef& m) { return m.entity == entity; });
}

// Applies the per-series value faults; returns through `report`. The series
// is addressed through find_mutable so raw payloads (including non-finite
// ones) land in storage exactly as a buggy collector would leave them.
void corrupt_series(telemetry::MonitoringDb& db, EntityId entity,
                    MetricKindId kind, const ChaosOptions& opts, Rng& rng,
                    ChaosReport& report) {
  telemetry::TimeSeries* ts = db.metrics().find_mutable(entity, kind);
  if (ts == nullptr || ts->size() == 0) return;
  const std::size_t n = ts->size();

  if (rng.chance(opts.p_nan_slice)) {
    ts->set(rng.below(n), std::numeric_limits<double>::quiet_NaN());
    ++report.nan_slices;
  }
  if (rng.chance(opts.p_inf_slice)) {
    const double inf = std::numeric_limits<double>::infinity();
    ts->set(rng.below(n), rng.chance(0.5) ? inf : -inf);
    ++report.inf_slices;
  }
  if (rng.chance(opts.p_denormal_slice)) {
    ts->set(rng.below(n), std::numeric_limits<double>::denorm_min());
    ++report.denormal_slices;
  }
  if (rng.chance(opts.p_constant_column)) {
    const double c = rng.uniform(0.0, 10.0);
    for (std::size_t t = 0; t < n; ++t) ts->set(t, c);
    ++report.constant_columns;
  }
  if (rng.chance(opts.p_near_constant_column)) {
    // A constant plus jitter on the order of one ulp: the regime the old
    // absolute variance epsilon misread as informative at large scales.
    const double c = rng.uniform(1.0, 2.0) * 1e9;
    for (std::size_t t = 0; t < n; ++t) {
      const double jitter =
          static_cast<double>(rng.below(3)) - 1.0;  // -1, 0, or +1
      ts->set(t, c * (1.0 + jitter * 2.220446049250313e-16));
    }
    ++report.near_constant_columns;
  }
  if (rng.chance(opts.p_huge_scale_column)) {
    for (std::size_t t = 0; t < n; ++t) ts->set(t, ts->value(t) * 1e9);
    ++report.huge_scale_columns;
  }
  if (rng.chance(opts.p_drop_history)) {
    ts->invalidate_before(rng.below(n));
    ++report.dropped_histories;
  }
  if (rng.chance(opts.p_duplicate_run)) {
    // What a run of duplicated timestamps collapses to after last-write-wins:
    // one value smeared across consecutive slices.
    const std::size_t start = rng.below(n);
    const std::size_t len = 1 + rng.below(4);
    const double v = ts->value(start);
    for (std::size_t t = start; t < std::min(n, start + len); ++t)
      ts->set(t, v);
    ++report.duplicate_runs;
  }
  if (rng.chance(opts.p_swap_slices)) {
    const std::size_t i = rng.below(n);
    const std::size_t j = rng.below(n);
    const double vi = ts->value(i);
    ts->set(i, ts->value(j));
    ts->set(j, vi);
    ++report.swapped_slices;
  }

  if (opts.reingest) {
    // Round-trip the corrupted payload through ingest: put() re-sanitizes,
    // so the non-finite slices above arrive as missing instead of stored.
    report.drops += db.metrics().put(entity, kind, telemetry::TimeSeries(*ts));
  }
}

}  // namespace

ChaosReport apply_chaos(telemetry::MonitoringDb& db, const ChaosOptions& opts,
                        std::span<const MetricRef> protect) {
  ChaosReport report;

  // Value faults, in (entity id, kind insertion) order with one RNG stream
  // per series: the corruption a series receives depends only on
  // (seed, entity, kind), never on map iteration order.
  const std::vector<EntityId> entities = db.all_entities();
  for (const EntityId e : entities) {
    for (const MetricKindId k : db.metrics().kinds_of(e)) {
      if (is_protected(protect, e, k)) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(e.value()) << 32) | k.value();
      Rng rng(mix_seed(opts.seed, key));
      corrupt_series(db, e, k, opts, rng, report);
    }
  }

  // Structural faults draw from a dedicated stream so changing the value
  // fault mix doesn't reshuffle them.
  Rng srng(mix_seed(opts.seed, 0xC4A05u));

  if (!entities.empty()) {
    for (std::size_t i = 0; i < opts.self_loops; ++i) {
      const EntityId e = entities[srng.below(entities.size())];
      report.drops +=
          db.add_association(e, e, telemetry::RelationKind::kGeneric);
      ++report.self_loops_offered;
    }
    for (std::size_t i = 0; i < opts.orphan_edges; ++i) {
      const EntityId e = entities[srng.below(entities.size())];
      // An id beyond every slot ever allocated: never present.
      const EntityId ghost(
          static_cast<std::uint32_t>(db.entity_count() + 1000 + i));
      report.drops +=
          srng.chance(0.5)
              ? db.add_association(e, ghost, telemetry::RelationKind::kGeneric)
              : db.add_association(ghost, e,
                                   telemetry::RelationKind::kGeneric);
      ++report.orphan_edges_offered;
    }
  }

  // Entities with zero metrics: strip every series from a few victims
  // (protected entities are exempt so the ticket stays diagnosable).
  std::vector<EntityId> victims;
  for (const EntityId e : entities) {
    if (entity_protected(protect, e)) continue;
    if (!db.metrics().kinds_of(e).empty()) victims.push_back(e);
  }
  for (std::size_t i = 0; i < opts.strip_entities && !victims.empty(); ++i) {
    const std::size_t pick = srng.below(victims.size());
    db.metrics().erase_entity(victims[pick]);
    victims.erase(victims.begin() + static_cast<std::ptrdiff_t>(pick));
    ++report.stripped_entities;
  }

  return report;
}

}  // namespace murphy::eval
