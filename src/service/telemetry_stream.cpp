#include "src/service/telemetry_stream.h"

#include <algorithm>
#include <cmath>

namespace murphy::service {

void count_ingest_drops(obs::MetricsRegistry& metrics,
                        const telemetry::IngestDrops& drops) {
  metrics.add_nonzero("ingest.nonfinite_dropped", drops.nonfinite_dropped);
  metrics.add_nonzero("ingest.noop_puts", drops.noop_puts);
  metrics.add_nonzero("ingest.selfloop_edges_dropped",
                      drops.selfloop_edges_dropped);
  metrics.add_nonzero("ingest.orphan_edges_dropped",
                      drops.orphan_edges_dropped);
}

TelemetryStream::TelemetryStream(telemetry::MonitoringDb db,
                                 obs::MetricsRegistry* metrics)
    : db_(std::move(db)), metrics_(metrics) {
  if (metrics_ != nullptr) c_cells_ = metrics_->counter("ingest.cells");
}

TelemetryStream::ReadLock TelemetryStream::read() const {
  return ReadLock(mu_, &db_);
}

TelemetryStream::WriteLock TelemetryStream::write() {
  return WriteLock(mu_, &db_);
}

std::size_t TelemetryStream::append(std::span<const TelemetryCell> cells) {
  std::size_t written = 0;
  std::size_t unknown = 0;
  std::size_t out_of_axis = 0;
  telemetry::IngestDrops drops;
  std::vector<SeriesTouch> touches;
  CommitObserver observer;
  {
    std::unique_lock lock(mu_);
    const std::size_t slices = db_.metrics().axis().size();
    const bool observed = static_cast<bool>(observer_);
    if (observed) touches.reserve(cells.size());
    // Feed batches usually arrive grouped by series in ref order; sortedness
    // is tracked inline (the adjacency dedup is comparing refs anyway), so
    // the common case pays no extra pass below.
    bool refs_ascending = true;
    for (const TelemetryCell& c : cells) {
      if (!db_.has_entity(c.entity)) {
        ++unknown;
        continue;
      }
      if (c.t >= slices) {
        ++out_of_axis;
        continue;
      }
      std::uint64_t epoch = 0;
      db_.metrics().upsert_cell(c.entity, c.kind, c.t, c.value,
                                observed ? &epoch : nullptr);
      ++written;
      if (!std::isfinite(c.value)) ++drops.nonfinite_dropped;
      if (observed) {
        // The epoch is captured at the write itself; the adjacency check
        // dedups grouped batches (keeping the newest write's epoch) and the
        // sort/unique below catches stragglers.
        const MetricRef ref{c.entity, c.kind};
        if (!touches.empty() && touches.back().ref == ref) {
          touches.back().epoch = epoch;
        } else {
          if (!touches.empty() && ref < touches.back().ref)
            refs_ascending = false;
          touches.push_back({ref, epoch});
        }
      }
    }
    if (!touches.empty()) {
      if (!refs_ascending) {
        // Out-of-order batch: dedup keeping each series' newest epoch — sort
        // (ref asc, epoch desc) so unique-first wins. An ascending batch
        // needs neither pass: adjacency already deduped it (a non-adjacent
        // duplicate would have broken monotonicity).
        std::sort(touches.begin(), touches.end(),
                  [](const SeriesTouch& a, const SeriesTouch& b) {
                    if (!(a.ref == b.ref)) return a.ref < b.ref;
                    return a.epoch > b.epoch;
                  });
        touches.erase(
            std::unique(touches.begin(), touches.end(),
                        [](const SeriesTouch& a, const SeriesTouch& b) {
                          return a.ref == b.ref;
                        }),
            touches.end());
      }
      observer = observer_;
    }
  }
  // Counters outside the lock.
  if (metrics_ != nullptr) {
    c_cells_->add(written);
    metrics_->add_nonzero("ingest.unknown_entity_dropped", unknown);
    metrics_->add_nonzero("ingest.out_of_axis_dropped", out_of_axis);
    count_ingest_drops(*metrics_, drops);
  }
  // Post-commit notification, outside the lock so the observer may read the
  // stream (and so a slow observer never blocks readers or other writers).
  if (observer && !touches.empty()) observer(touches);
  return written;
}

void TelemetryStream::set_commit_observer(CommitObserver observer) {
  std::unique_lock lock(mu_);
  observer_ = std::move(observer);
}

bool TelemetryStream::append_cell(EntityId entity, std::string_view metric,
                                  TimeIndex t, double value) {
  MetricKindId kind;
  {
    std::unique_lock lock(mu_);
    kind = db_.catalog().intern(metric);
  }
  const TelemetryCell cell{entity, kind, t, value};
  return append(std::span<const TelemetryCell>(&cell, 1)) == 1;
}

void TelemetryStream::extend_axis(std::size_t extra_slices) {
  std::unique_lock lock(mu_);
  db_.metrics().extend_axis(extra_slices);
}

std::size_t TelemetryStream::slice_count() const {
  std::shared_lock lock(mu_);
  return db_.metrics().axis().size();
}

std::uint64_t TelemetryStream::data_version() const {
  std::shared_lock lock(mu_);
  return db_.data_version();
}

bool TelemetryStream::save_snapshot(const std::string& path) const {
  std::shared_lock lock(mu_);
  return telemetry::save_snapshot_file(db_, path);
}

bool TelemetryStream::restore_snapshot(const std::string& path,
                                       telemetry::SnapshotError* error) {
  // Parse outside the lock (the slow part), swap under it.
  auto loaded = telemetry::load_snapshot_file(path, error);
  if (!loaded.has_value()) return false;
  std::unique_lock lock(mu_);
  db_ = std::move(*loaded);
  return true;
}

}  // namespace murphy::service
