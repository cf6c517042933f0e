// MonitoringDb — the query surface of the observability platform.
//
// This is the substrate Murphy reads: typed entities, loose associations
// between them, application definitions (operator tags / tiers), and metric
// time series. It mirrors the data model of the enterprise platform of §2.1
// (the paper's data source) without any of its collection machinery — both
// the enterprise generator and the microservice simulator populate it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/telemetry/config_events.h"
#include "src/telemetry/entity.h"
#include "src/telemetry/metric_catalog.h"
#include "src/telemetry/metric_store.h"

namespace murphy::telemetry {

struct Association {
  EntityId a;
  EntityId b;
  RelationKind kind = RelationKind::kGeneric;
  // When true, influence is known to flow a -> b only: a's state affects
  // b's, not vice versa. For an RPC pair this means the association is
  // stored (callee, caller) — a slow callee degrades its caller. When false
  // (default, the common case), the direction of influence is unknown and
  // consumers must treat it as bidirectional.
  bool directed = false;
};

struct AppInfo {
  AppId id;
  std::string name;
  std::vector<EntityId> members;
};

// Process-unique monotonic database identity, used by the training caches'
// generation to name the db they were built against. An address-based
// identity suffers ABA: a freed-and-reallocated db at the same address with
// coincidentally equal versions and series epochs false-hits and serves
// stale factors.
// DbUid draws from a global monotonic counter and keeps uniqueness through
// value semantics: a copy gets a fresh id (copies may diverge while their
// version counters coincide), a move transfers the id and re-keys the
// moved-from source (whose now-empty state must not alias the destination).
class DbUid {
 public:
  DbUid() : value_(next()) {}
  DbUid(const DbUid&) : value_(next()) {}
  DbUid& operator=(const DbUid&) {
    value_ = next();
    return *this;
  }
  DbUid(DbUid&& other) noexcept : value_(other.value_) {
    other.value_ = next();
  }
  DbUid& operator=(DbUid&& other) noexcept {
    value_ = other.value_;
    other.value_ = next();
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  static std::uint64_t next();
  std::uint64_t value_;
};

class MonitoringDb {
 public:
  MonitoringDb() = default;

  // --- population (used by the generators/simulators) -----------------------
  EntityId add_entity(EntityType type, std::string name,
                      AppId app = AppId::invalid());
  // Records a loose association. Malformed edges — self-loops and edges
  // whose endpoint is absent (never added, or removed) — are real telemetry
  // defects; they are dropped at ingest and reported in the returned
  // IngestDrops (selfloop_edges_dropped, orphan_edges_dropped) rather than
  // stored, so no consumer ever sees them (DESIGN.md §8).
  IngestDrops add_association(EntityId a, EntityId b, RelationKind kind,
                              bool directed = false);
  AppId define_app(std::string name);
  void add_to_app(AppId app, EntityId entity);

  // Monotonic version of everything diagnosis-relevant: entity/association
  // structure (bumped by the population and degradation mutators here) plus
  // the metric data (the store's own version, which also covers mutable
  // series access). Any mutation anywhere moves it; the service reports it
  // as the db version a diagnosis ran at.
  [[nodiscard]] std::uint64_t data_version() const {
    return structural_version_ + metrics_.version();
  }

  // Structural slice of data_version(): entity/association mutations plus
  // the store's structural changes (axis swap, series erasure) — but NOT
  // value writes, which are tracked per series by MetricStore::series_epoch.
  // The training caches key their generation on this, so streaming appends
  // leave the generation intact and retire only the entries whose keys
  // carry the touched series' epoch (DESIGN.md §9).
  [[nodiscard]] std::uint64_t structural_data_version() const {
    return structural_version_ + metrics_.structural_version();
  }

  // Process-unique identity of this db object (see DbUid). The cache
  // generation chains (uid, structural_data_version) — never the object's
  // address.
  [[nodiscard]] std::uint64_t uid() const { return uid_.value(); }

  // --- queries (used by Murphy and the baselines) ---------------------------
  [[nodiscard]] std::size_t entity_count() const { return entities_.size(); }
  [[nodiscard]] const EntityInfo& entity(EntityId id) const;
  [[nodiscard]] bool has_entity(EntityId id) const;
  [[nodiscard]] std::vector<EntityId> all_entities() const;
  // Lookup by exact name; invalid id when absent.
  [[nodiscard]] EntityId find_entity(std::string_view name) const;

  // Associations touching `id` (either side).
  [[nodiscard]] std::span<const std::size_t> association_indices(
      EntityId id) const;
  [[nodiscard]] const Association& association(std::size_t index) const;
  [[nodiscard]] std::size_t association_count() const {
    return associations_.size();
  }

  // Neighbor entities of `id` across all its associations (deduplicated,
  // insertion order).
  [[nodiscard]] std::vector<EntityId> neighbors(EntityId id) const;

  [[nodiscard]] const AppInfo& app(AppId id) const;
  [[nodiscard]] AppId find_app(std::string_view name) const;
  [[nodiscard]] std::size_t app_count() const { return apps_.size(); }

  [[nodiscard]] MetricCatalog& catalog() { return catalog_; }
  [[nodiscard]] const MetricCatalog& catalog() const { return catalog_; }
  [[nodiscard]] MetricStore& metrics() { return metrics_; }
  [[nodiscard]] const MetricStore& metrics() const { return metrics_; }
  [[nodiscard]] ConfigEventLog& config_events() { return config_events_; }
  [[nodiscard]] const ConfigEventLog& config_events() const {
    return config_events_;
  }

  // --- degradation (Table 2 robustness experiments) --------------------------
  // Removes the association at `index` (compacts indices).
  void remove_association(std::size_t index);
  // Removes an entity: its associations and all its metric series. The
  // EntityInfo slot remains (ids stay stable) but is marked absent.
  void remove_entity(EntityId id);

 private:
  friend class SnapshotIo;  // snapshot.cpp serializer; raw member access

  std::vector<EntityInfo> entities_;
  std::vector<bool> present_;
  std::uint64_t structural_version_ = 0;
  std::vector<Association> associations_;
  std::unordered_map<EntityId, std::vector<std::size_t>> assoc_index_;
  std::unordered_map<std::string, EntityId> name_index_;
  std::vector<AppInfo> apps_;
  std::unordered_map<std::string, AppId> app_index_;
  MetricCatalog catalog_;
  MetricStore metrics_;
  ConfigEventLog config_events_;
  DbUid uid_;

  void rebuild_assoc_index();
};

}  // namespace murphy::telemetry
