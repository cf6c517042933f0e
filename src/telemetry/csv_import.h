// CSV import — the inverse of csv_export.
//
// Rebuilds a MonitoringDb from the three files the exporter writes, so
// captured datasets (or externally produced ones in the same schema) can be
// diagnosed offline: export a production window, load it on a laptop, run
// Murphy. Entity ids are re-assigned densely on import; names are the stable
// key, and associations/metrics refer to entities by their exported id.
#pragma once

#include <istream>
#include <optional>
#include <string>

#include "src/telemetry/monitoring_db.h"

namespace murphy::telemetry {

struct ImportError {
  std::string message;
  std::size_t line = 0;  // 1-based line in the offending file
};

struct ImportResult {
  MonitoringDb db;
  std::size_t entities = 0;
  std::size_t associations = 0;
  std::size_t series = 0;
  // Telemetry-defect tallies (DESIGN.md §8). Real exports carry duplicated
  // and out-of-order timestamps; the importer accepts both with defined
  // semantics instead of failing or silently mangling:
  //  * rows may arrive in any slice order — series are rebuilt sorted on the
  //    slice index (the long format's explicit timestamp), and every row
  //    whose slice is smaller than one already seen for its series is
  //    tallied here;
  //  * a repeated (entity, metric, slice) key is last-write-wins: the later
  //    row replaces the earlier one, and the collision is tallied.
  // The two tallies are disjoint: a repeated key counts as a duplicate only,
  // never additionally as out-of-order.
  std::size_t out_of_order_rows = 0;
  std::size_t duplicate_rows = 0;
  // Rows whose value parsed as NaN/Inf. They are imported and immediately
  // dropped to missing by MetricStore::put's ingest sanitizer (the slice
  // keeps valid=0), so a round-trip through export_csv converges.
  std::size_t nonfinite_values = 0;
  // What the db's ingest paths dropped: malformed association rows, and the
  // nonfinite_values rows marked valid. A caller that holds a metrics
  // registry counts these as `ingest.*` (murphyd does).
  IngestDrops drops;
};

// Stream-based import. The metrics stream must use the long format written
// by export_metrics_csv; `interval_seconds` sets the rebuilt axis (the CSV
// stores slice indices, not wall-clock times). Returns nullopt and fills
// `error` on malformed input. Duplicated / out-of-order / non-finite metric
// rows are accepted with the semantics documented on ImportResult; the
// rebuilt db's data_version() reflects every series put (one bump per
// series), never the pre-ingest collisions.
[[nodiscard]] std::optional<ImportResult> import_csv(
    std::istream& entities, std::istream& associations, std::istream& metrics,
    double interval_seconds, ImportError* error = nullptr);

// File-based convenience matching export_csv's path scheme.
[[nodiscard]] std::optional<ImportResult> import_csv_files(
    const std::string& path_prefix, double interval_seconds,
    ImportError* error = nullptr);

}  // namespace murphy::telemetry
