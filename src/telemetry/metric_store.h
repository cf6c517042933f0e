// Time-series storage for entity metrics.
//
// All series share one TimeAxis (the monitoring platform's collection grid).
// Values may be missing — a newly spawned entity has no history, and the
// robustness experiments (Table 2) deliberately delete values — so each
// series carries a validity mask alongside its values.
//
// Telemetry-defect semantics (DESIGN.md §8): real collectors emit NaN/Inf
// payloads, and a single non-finite slice would otherwise poison every
// moment, factor and ranking downstream. The store therefore defines
// non-finite values as MISSING:
//  * MetricStore::put() sanitizes at ingest — non-finite slices are marked
//    invalid and reported in the returned IngestDrops, the stored payload is
//    untouched;
//  * TimeSeries::value_or() / window() treat a stored non-finite value as
//    missing even when its validity bit is set, covering raw writes through
//    set() / find_mutable() that bypass ingest, and report each such read
//    to the caller;
//  * the raw accessors value() / values() still expose the stored payload
//    (the exporter round-trips it; the importer re-drops it).
// Finite data is returned bit-for-bit unchanged on every path.
//
// The telemetry layer names no metrics registry. Mutators return what they
// dropped and degraded reads are reported to the reader; the owner that
// holds a registry counts them under the `ingest.*` names given below
// (TelemetryStream, the engine's training and inference, the CSV importer's
// and the chaos harness's callers).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"

namespace murphy::telemetry {

// What an ingest mutator dropped instead of storing. Each field is counted
// as `ingest.<field name>` by the owner that holds a metrics registry.
struct IngestDrops {
  std::size_t nonfinite_dropped = 0;  // non-finite slices marked missing
  std::size_t noop_puts = 0;          // puts identical to the stored series
  std::size_t selfloop_edges_dropped = 0;
  std::size_t orphan_edges_dropped = 0;  // an endpoint is not in the db

  IngestDrops& operator+=(const IngestDrops& o) {
    nonfinite_dropped += o.nonfinite_dropped;
    noop_puts += o.noop_puts;
    selfloop_edges_dropped += o.selfloop_edges_dropped;
    orphan_edges_dropped += o.orphan_edges_dropped;
    return *this;
  }
};

// One metric's samples on the store's axis, with per-slice validity.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values);
  TimeSeries(std::vector<double> values, std::vector<bool> valid);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double value(TimeIndex t) const { return values_[t]; }
  [[nodiscard]] bool is_valid(TimeIndex t) const { return valid_[t]; }
  // Value at t, or `fallback` when the slice is missing. The paper uses a
  // default (e.g. 0% CPU) as placeholder for missing history (§4.2).
  // Non-finite stored values count as missing (see header comment); each
  // such read adds 1 to *nonfinite_reads when it is non-null
  // (`ingest.nonfinite_reads`).
  [[nodiscard]] double value_or(TimeIndex t, double fallback,
                                std::size_t* nonfinite_reads = nullptr) const;

  [[nodiscard]] std::span<const double> values() const { return values_; }

  void set(TimeIndex t, double v);
  void invalidate(TimeIndex t);
  // Marks every valid-but-non-finite slice invalid; returns how many were
  // dropped. put() applies this to everything it ingests.
  std::size_t sanitize();
  // Drop history before `t` (keeps values from t onward). Used by the
  // "missing values" degradation, which removes history but keeps the
  // incident window.
  void invalidate_before(TimeIndex t);

  // True when `other` stores the same payload bit-for-bit (values compared
  // by bit pattern — NaN payloads and signed zeros included) and the same
  // validity mask. The no-op-put detection in MetricStore::put uses this.
  [[nodiscard]] bool bitwise_equal(const TimeSeries& other) const;

  // Appends `n` missing slices (axis growth under streaming ingestion).
  void append_missing(std::size_t n);

  // Values restricted to [from, to) with missing slices replaced by
  // `fallback`; the shape the trainers consume. Total: an inverted window
  // (to < from) is empty, slices beyond the axis read as `fallback`.
  // Non-finite reads are reported as in value_or().
  [[nodiscard]] std::vector<double> window(
      TimeIndex from, TimeIndex to, double fallback = 0.0,
      std::size_t* nonfinite_reads = nullptr) const;

 private:
  std::vector<double> values_;
  std::vector<bool> valid_;
};

class SnapshotIo;  // snapshot.cpp serializer; needs raw member access

class MetricStore {
 public:
  MetricStore() = default;
  explicit MetricStore(TimeAxis axis) : axis_(axis) {}

  [[nodiscard]] const TimeAxis& axis() const { return axis_; }
  void set_axis(TimeAxis axis) {
    axis_ = axis;
    ++version_;
    ++structural_version_;
  }

  // Monotonic data version: bumped by every mutation path, including
  // find_mutable() (conservatively — the caller may write through the
  // pointer), so any mutation is detectable without diffing series.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Structural subset of version(): bumped only by mutations that change
  // WHICH series exist or how they are read (axis replacement, erase paths),
  // never by value writes to an existing or fresh series. The training
  // caches key their generation on this plus per-series epochs, so a
  // streaming append invalidates only the entries that read the touched
  // series instead of the whole cache (DESIGN.md §9).
  [[nodiscard]] std::uint64_t structural_version() const {
    return structural_version_;
  }

  // Per-series write epoch: bumped every time (entity, kind) is written
  // (put / upsert_cell / find_mutable). 0 = the series has never existed;
  // the first write makes it 1. Epoch-keyed caches mix this into their entry
  // keys, so a write retires exactly the entries that read this series.
  [[nodiscard]] std::uint64_t series_epoch(EntityId entity,
                                           MetricKindId kind) const;

  // Replaces any existing series for (entity, kind). `values.size()` must
  // equal axis().size(). Ingest sanitizes: non-finite slices are marked
  // missing (reported as nonfinite_dropped). A no-op put — a series bitwise
  // identical (values and validity) to the one already stored — bumps
  // nothing (reported as noop_puts), so idempotent re-ingestion keeps warm
  // caches warm.
  IngestDrops put(EntityId entity, MetricKindId kind,
                  std::vector<double> values);
  IngestDrops put(EntityId entity, MetricKindId kind, TimeSeries series);

  // Streaming ingestion: writes one slice of (entity, kind), creating the
  // series (all slices missing) when absent. Non-finite values are the usual
  // telemetry defect: the slice stays missing (TelemetryStream counts these
  // cells as `ingest.nonfinite_dropped`).
  // Bumps version() and the series epoch. Returns true when the series was
  // created by this call. When `epoch_out` is non-null it receives the
  // post-write series epoch — the commit-observer path captures it here,
  // at the write, instead of paying a second lookup per cell.
  bool upsert_cell(EntityId entity, MetricKindId kind, TimeIndex t, double v,
                   std::uint64_t* epoch_out = nullptr);

  // Grows the axis by `extra_slices`; every stored series is padded with
  // missing slices. Existing window reads are unchanged (slices past the old
  // end already read as missing), so neither series epochs nor the
  // structural version move; version() bumps conservatively.
  void extend_axis(std::size_t extra_slices);

  [[nodiscard]] const TimeSeries* find(EntityId entity,
                                       MetricKindId kind) const;
  [[nodiscard]] TimeSeries* find_mutable(EntityId entity, MetricKindId kind);

  // Metric kinds recorded for this entity, in insertion order.
  [[nodiscard]] std::vector<MetricKindId> kinds_of(EntityId entity) const;

  // Removes one metric (Table 2 "missing metric" degradation).
  void erase(EntityId entity, MetricKindId kind);
  // Removes all series of an entity (Table 2 "missing entity").
  void erase_entity(EntityId entity);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

 private:
  friend class SnapshotIo;

  TimeAxis axis_;
  std::uint64_t version_ = 0;
  std::uint64_t structural_version_ = 0;
  std::unordered_map<MetricRef, TimeSeries> series_;
  std::unordered_map<MetricRef, std::uint64_t> epochs_;
  std::unordered_map<EntityId, std::vector<MetricKindId>> kinds_;
};

}  // namespace murphy::telemetry
