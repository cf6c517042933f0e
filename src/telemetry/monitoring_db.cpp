#include "src/telemetry/monitoring_db.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace murphy::telemetry {

std::uint64_t DbUid::next() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

EntityId MonitoringDb::add_entity(EntityType type, std::string name,
                                  AppId app) {
  ++structural_version_;
  const EntityId id(static_cast<std::uint32_t>(entities_.size()));
  name_index_.emplace(name, id);
  entities_.push_back(EntityInfo{id, type, std::move(name), app});
  present_.push_back(true);
  if (app.valid()) add_to_app(app, id);
  return id;
}

IngestDrops MonitoringDb::add_association(EntityId a, EntityId b,
                                          RelationKind kind, bool directed) {
  // Defined semantics for malformed edges (DESIGN.md §8): drop and report
  // instead of storing an edge no consumer can interpret. Nothing changes
  // for well-formed input, so no version bump on the drop paths.
  if (a == b) return {.selfloop_edges_dropped = 1};
  if (!has_entity(a) || !has_entity(b)) return {.orphan_edges_dropped = 1};
  ++structural_version_;
  const std::size_t index = associations_.size();
  associations_.push_back(Association{a, b, kind, directed});
  assoc_index_[a].push_back(index);
  assoc_index_[b].push_back(index);
  return {};
}

AppId MonitoringDb::define_app(std::string name) {
  const AppId id(static_cast<std::uint32_t>(apps_.size()));
  app_index_.emplace(name, id);
  apps_.push_back(AppInfo{id, std::move(name), {}});
  return id;
}

void MonitoringDb::add_to_app(AppId app, EntityId entity) {
  assert(app.valid() && app.value() < apps_.size());
  ++structural_version_;
  apps_[app.value()].members.push_back(entity);
  entities_[entity.value()].app = app;
}

const EntityInfo& MonitoringDb::entity(EntityId id) const {
  assert(id.valid() && id.value() < entities_.size());
  return entities_[id.value()];
}

bool MonitoringDb::has_entity(EntityId id) const {
  return id.valid() && id.value() < entities_.size() && present_[id.value()];
}

std::vector<EntityId> MonitoringDb::all_entities() const {
  std::vector<EntityId> out;
  out.reserve(entities_.size());
  for (const auto& e : entities_)
    if (present_[e.id.value()]) out.push_back(e.id);
  return out;
}

EntityId MonitoringDb::find_entity(std::string_view name) const {
  const auto it = name_index_.find(std::string(name));
  if (it == name_index_.end() || !present_[it->second.value()])
    return EntityId::invalid();
  return it->second;
}

std::span<const std::size_t> MonitoringDb::association_indices(
    EntityId id) const {
  static const std::vector<std::size_t> kEmpty;
  const auto it = assoc_index_.find(id);
  return it == assoc_index_.end() ? std::span<const std::size_t>(kEmpty)
                                  : std::span<const std::size_t>(it->second);
}

const Association& MonitoringDb::association(std::size_t index) const {
  assert(index < associations_.size());
  return associations_[index];
}

std::vector<EntityId> MonitoringDb::neighbors(EntityId id) const {
  std::vector<EntityId> out;
  for (const std::size_t idx : association_indices(id)) {
    const Association& assoc = associations_[idx];
    const EntityId other = assoc.a == id ? assoc.b : assoc.a;
    if (!present_[other.value()]) continue;
    if (std::find(out.begin(), out.end(), other) == out.end())
      out.push_back(other);
  }
  return out;
}

const AppInfo& MonitoringDb::app(AppId id) const {
  assert(id.valid() && id.value() < apps_.size());
  return apps_[id.value()];
}

AppId MonitoringDb::find_app(std::string_view name) const {
  const auto it = app_index_.find(std::string(name));
  return it == app_index_.end() ? AppId::invalid() : it->second;
}

void MonitoringDb::remove_association(std::size_t index) {
  assert(index < associations_.size());
  ++structural_version_;
  associations_.erase(associations_.begin() +
                      static_cast<std::ptrdiff_t>(index));
  rebuild_assoc_index();
}

void MonitoringDb::remove_entity(EntityId id) {
  assert(has_entity(id));
  ++structural_version_;
  present_[id.value()] = false;
  associations_.erase(
      std::remove_if(associations_.begin(), associations_.end(),
                     [id](const Association& a) {
                       return a.a == id || a.b == id;
                     }),
      associations_.end());
  rebuild_assoc_index();
  metrics_.erase_entity(id);
  for (auto& app : apps_) {
    auto& m = app.members;
    m.erase(std::remove(m.begin(), m.end(), id), m.end());
  }
}

void MonitoringDb::rebuild_assoc_index() {
  assoc_index_.clear();
  for (std::size_t i = 0; i < associations_.size(); ++i) {
    assoc_index_[associations_[i].a].push_back(i);
    assoc_index_[associations_[i].b].push_back(i);
  }
}

}  // namespace murphy::telemetry
