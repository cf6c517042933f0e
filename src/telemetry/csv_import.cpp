#include "src/telemetry/csv_import.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <unordered_map>
#include <vector>

namespace murphy::telemetry {
namespace {

// Splits one CSV line, honouring double-quoted fields with "" escapes.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

bool parse_u32(const std::string& s, std::uint32_t* out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_size(const std::string& s, std::size_t* out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(const std::string& s, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

std::optional<EntityType> entity_type_from(const std::string& name) {
  for (const auto t :
       {EntityType::kVm, EntityType::kHost, EntityType::kContainer,
        EntityType::kVirtualNic, EntityType::kPhysicalNic, EntityType::kFlow,
        EntityType::kSwitch, EntityType::kSwitchPort, EntityType::kDatastore,
        EntityType::kService, EntityType::kClient, EntityType::kNode}) {
    if (entity_type_name(t) == name) return t;
  }
  return std::nullopt;
}

std::optional<RelationKind> relation_kind_from(const std::string& name) {
  for (const auto k :
       {RelationKind::kVmOnHost, RelationKind::kVnicOfVm,
        RelationKind::kPnicOfHost, RelationKind::kFlowEndpoint,
        RelationKind::kPortOfSwitch, RelationKind::kHostUplink,
        RelationKind::kVmOnDatastore, RelationKind::kServiceOnContainer,
        RelationKind::kContainerOnNode, RelationKind::kCallerCallee,
        RelationKind::kClientOfService, RelationKind::kGeneric}) {
    if (relation_kind_name(k) == name) return k;
  }
  return std::nullopt;
}

bool fail(ImportError* error, std::string message, std::size_t line) {
  if (error != nullptr) {
    error->message = std::move(message);
    error->line = line;
  }
  return false;
}

}  // namespace

std::optional<ImportResult> import_csv(std::istream& entities,
                                       std::istream& associations,
                                       std::istream& metrics,
                                       double interval_seconds,
                                       ImportError* error) {
  ImportResult result;
  MonitoringDb& db = result.db;
  // exported id -> imported EntityId.
  std::unordered_map<std::uint32_t, EntityId> id_map;
  std::unordered_map<std::string, AppId> app_map;

  std::string line;
  std::size_t line_no = 0;

  // --- entities --------------------------------------------------------------
  if (!std::getline(entities, line))
    return fail(error, "empty entities file", 0), std::nullopt;
  ++line_no;
  while (std::getline(entities, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 4)
      return fail(error, "entities: expected 4 fields", line_no),
             std::nullopt;
    std::uint32_t exported_id = 0;
    if (!parse_u32(fields[0], &exported_id))
      return fail(error, "entities: bad id '" + fields[0] + "'", line_no),
             std::nullopt;
    const auto type = entity_type_from(fields[1]);
    if (!type)
      return fail(error, "entities: unknown type '" + fields[1] + "'",
                  line_no),
             std::nullopt;
    AppId app;
    if (!fields[3].empty()) {
      if (const auto it = app_map.find(fields[3]); it != app_map.end())
        app = it->second;
      else {
        app = db.define_app(fields[3]);
        app_map.emplace(fields[3], app);
      }
    }
    id_map.emplace(exported_id, db.add_entity(*type, fields[2], app));
    ++result.entities;
  }

  // --- associations -----------------------------------------------------------
  line_no = 0;
  if (!std::getline(associations, line))
    return fail(error, "empty associations file", 0), std::nullopt;
  ++line_no;
  while (std::getline(associations, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 4)
      return fail(error, "associations: expected 4 fields", line_no),
             std::nullopt;
    std::uint32_t a = 0, b = 0;
    if (!parse_u32(fields[0], &a) || !parse_u32(fields[1], &b))
      return fail(error, "associations: bad entity id", line_no),
             std::nullopt;
    const auto ia = id_map.find(a);
    const auto ib = id_map.find(b);
    if (ia == id_map.end() || ib == id_map.end())
      return fail(error, "associations: unknown entity id", line_no),
             std::nullopt;
    const auto kind = relation_kind_from(fields[2]);
    if (!kind)
      return fail(error, "associations: unknown kind '" + fields[2] + "'",
                  line_no),
             std::nullopt;
    result.drops +=
        db.add_association(ia->second, ib->second, *kind, fields[3] == "1");
    ++result.associations;
  }

  // --- metrics (long format) ----------------------------------------------------
  struct SeriesAccumulator {
    std::vector<double> values;
    std::vector<bool> valid;
    // Duplicate / ordering detection (see ImportResult): which slices have
    // been written, and the highest slice written so far.
    std::vector<bool> written;
    std::size_t max_slice_written = 0;
    bool any_written = false;
  };
  std::unordered_map<MetricRef, SeriesAccumulator> series;
  std::size_t max_slice = 0;
  line_no = 0;
  if (!std::getline(metrics, line))
    return fail(error, "empty metrics file", 0), std::nullopt;
  ++line_no;
  while (std::getline(metrics, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 5)
      return fail(error, "metrics: expected 5 fields", line_no), std::nullopt;
    std::uint32_t exported_id = 0;
    std::size_t slice = 0;
    double value = 0.0;
    if (!parse_u32(fields[0], &exported_id) ||
        !parse_size(fields[2], &slice) || !parse_double(fields[3], &value))
      return fail(error, "metrics: malformed row", line_no), std::nullopt;
    const auto it = id_map.find(exported_id);
    if (it == id_map.end())
      return fail(error, "metrics: unknown entity id", line_no), std::nullopt;
    const MetricKindId kind = db.catalog().intern(fields[1]);
    auto& acc = series[MetricRef{it->second, kind}];
    if (slice >= acc.values.size()) {
      acc.values.resize(slice + 1, 0.0);
      acc.valid.resize(slice + 1, false);
      acc.written.resize(slice + 1, false);
    }
    // Defined defect semantics (ImportResult): duplicated keys are
    // last-write-wins, out-of-order rows land on their slice regardless of
    // file order; both are tallied so degradation is observable. The tallies
    // are disjoint — a repeated key is a duplicate, never also out-of-order.
    if (acc.written[slice]) {
      ++result.duplicate_rows;
    } else if (acc.any_written && slice < acc.max_slice_written) {
      ++result.out_of_order_rows;
    }
    if (!std::isfinite(value)) ++result.nonfinite_values;
    acc.values[slice] = value;
    acc.valid[slice] = fields[4] == "1";
    acc.written[slice] = true;
    acc.max_slice_written = std::max(acc.max_slice_written, slice);
    acc.any_written = true;
    max_slice = std::max(max_slice, slice);
  }

  db.metrics().set_axis(TimeAxis(0.0, interval_seconds, max_slice + 1));
  for (auto& [ref, acc] : series) {
    acc.values.resize(max_slice + 1, 0.0);
    acc.valid.resize(max_slice + 1, false);
    result.drops += db.metrics().put(
        ref.entity, ref.kind,
        TimeSeries(std::move(acc.values), std::move(acc.valid)));
    ++result.series;
  }
  return result;
}

std::optional<ImportResult> import_csv_files(const std::string& path_prefix,
                                             double interval_seconds,
                                             ImportError* error) {
  std::ifstream entities(path_prefix + "_entities.csv");
  std::ifstream associations(path_prefix + "_associations.csv");
  std::ifstream metrics(path_prefix + "_metrics.csv");
  if (!entities || !associations || !metrics) {
    if (error != nullptr)
      error->message = "could not open one of the csv files under '" +
                       path_prefix + "'";
    return std::nullopt;
  }
  return import_csv(entities, associations, metrics, interval_seconds, error);
}

}  // namespace murphy::telemetry
