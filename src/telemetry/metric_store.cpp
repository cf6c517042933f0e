#include "src/telemetry/metric_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace murphy::telemetry {

TimeSeries::TimeSeries(std::vector<double> values)
    : values_(std::move(values)), valid_(values_.size(), true) {}

TimeSeries::TimeSeries(std::vector<double> values, std::vector<bool> valid)
    : values_(std::move(values)), valid_(std::move(valid)) {
  assert(values_.size() == valid_.size());
}

double TimeSeries::value_or(TimeIndex t, double fallback,
                            std::size_t* nonfinite_reads) const {
  if (t >= values_.size() || !valid_[t]) return fallback;
  const double v = values_[t];
  if (!std::isfinite(v)) {
    // Raw writes (set / find_mutable) can store non-finite payloads past the
    // ingest sanitizer; the read path defines them as missing so a poisoned
    // slice degrades to the documented fallback instead of NaN-ing every
    // moment downstream.
    if (nonfinite_reads != nullptr) ++*nonfinite_reads;
    return fallback;
  }
  return v;
}

void TimeSeries::set(TimeIndex t, double v) {
  assert(t < values_.size());
  values_[t] = v;
  valid_[t] = true;
}

void TimeSeries::invalidate(TimeIndex t) {
  assert(t < values_.size());
  valid_[t] = false;
}

std::size_t TimeSeries::sanitize() {
  std::size_t dropped = 0;
  for (TimeIndex t = 0; t < values_.size(); ++t) {
    if (valid_[t] && !std::isfinite(values_[t])) {
      valid_[t] = false;
      ++dropped;
    }
  }
  return dropped;
}

void TimeSeries::invalidate_before(TimeIndex t) {
  const TimeIndex end = std::min(t, values_.size());
  for (TimeIndex i = 0; i < end; ++i) valid_[i] = false;
}

std::vector<double> TimeSeries::window(TimeIndex from, TimeIndex to,
                                       double fallback,
                                       std::size_t* nonfinite_reads) const {
  // Total on any (from, to): an inverted window is empty (the unsigned
  // to - from below would otherwise reserve ~2^64 slices), and slices beyond
  // the axis read as missing through value_or's bounds check.
  if (to < from) return {};
  std::vector<double> out;
  out.reserve(to - from);
  for (TimeIndex t = from; t < to; ++t)
    out.push_back(value_or(t, fallback, nonfinite_reads));
  return out;
}

bool TimeSeries::bitwise_equal(const TimeSeries& other) const {
  if (values_.size() != other.values_.size() || valid_ != other.valid_)
    return false;
  // memcmp compares the stored bit patterns, so NaN payloads and -0.0/0.0
  // are distinguished exactly — the contract warm caches rely on.
  return values_.empty() ||
         std::memcmp(values_.data(), other.values_.data(),
                     values_.size() * sizeof(double)) == 0;
}

void TimeSeries::append_missing(std::size_t n) {
  values_.resize(values_.size() + n, 0.0);
  valid_.resize(valid_.size() + n, false);
}

std::uint64_t MetricStore::series_epoch(EntityId entity,
                                        MetricKindId kind) const {
  const auto it = epochs_.find(MetricRef{entity, kind});
  return it == epochs_.end() ? 0 : it->second;
}

IngestDrops MetricStore::put(EntityId entity, MetricKindId kind,
                             std::vector<double> values) {
  return put(entity, kind, TimeSeries(std::move(values)));
}

IngestDrops MetricStore::put(EntityId entity, MetricKindId kind,
                             TimeSeries series) {
  assert(series.size() == axis_.size());
  IngestDrops drops{.nonfinite_dropped = series.sanitize()};
  const MetricRef ref{entity, kind};
  const auto it = series_.find(ref);
  if (it != series_.end() && it->second.bitwise_equal(series)) {
    // Idempotent re-ingestion (a collector replaying its spool, a CSV feed
    // restarted from the top): the stored bits are already these bits, so
    // nothing downstream can observe a change — skip every version/epoch
    // bump and keep warm caches warm.
    drops.noop_puts = 1;
    return drops;
  }
  ++version_;
  ++epochs_[ref];
  const bool fresh = it == series_.end();
  series_.insert_or_assign(ref, std::move(series));
  if (fresh) kinds_[entity].push_back(kind);
  return drops;
}

bool MetricStore::upsert_cell(EntityId entity, MetricKindId kind, TimeIndex t,
                              double v, std::uint64_t* epoch_out) {
  assert(t < axis_.size());
  const MetricRef ref{entity, kind};
  auto it = series_.find(ref);
  const bool fresh = it == series_.end();
  if (fresh) {
    it = series_
             .emplace(ref, TimeSeries(std::vector<double>(axis_.size(), 0.0),
                                      std::vector<bool>(axis_.size(), false)))
             .first;
    kinds_[entity].push_back(kind);
  }
  if (std::isfinite(v)) {
    it->second.set(t, v);
  } else {
    // Same defect semantics as put(): a non-finite payload never becomes a
    // readable slice.
    it->second.invalidate(t);
  }
  ++version_;
  const std::uint64_t epoch = ++epochs_[ref];
  if (epoch_out != nullptr) *epoch_out = epoch;
  return fresh;
}

void MetricStore::extend_axis(std::size_t extra_slices) {
  if (extra_slices == 0) return;
  axis_ = TimeAxis(axis_.start(), axis_.interval(),
                   axis_.size() + extra_slices);
  for (auto& [ref, series] : series_) series.append_missing(extra_slices);
  ++version_;
}

const TimeSeries* MetricStore::find(EntityId entity, MetricKindId kind) const {
  const auto it = series_.find(MetricRef{entity, kind});
  return it == series_.end() ? nullptr : &it->second;
}

TimeSeries* MetricStore::find_mutable(EntityId entity, MetricKindId kind) {
  const auto it = series_.find(MetricRef{entity, kind});
  if (it == series_.end()) return nullptr;
  // The caller may write through the pointer: bump both the global version
  // and this series' epoch (the write is attributable to exactly one series).
  ++version_;
  ++epochs_[MetricRef{entity, kind}];
  return &it->second;
}

std::vector<MetricKindId> MetricStore::kinds_of(EntityId entity) const {
  const auto it = kinds_.find(entity);
  return it == kinds_.end() ? std::vector<MetricKindId>{} : it->second;
}

void MetricStore::erase(EntityId entity, MetricKindId kind) {
  ++version_;
  ++structural_version_;  // the series set changed; epoch keys can't see it
  series_.erase(MetricRef{entity, kind});
  epochs_.erase(MetricRef{entity, kind});
  if (auto it = kinds_.find(entity); it != kinds_.end()) {
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), kind), v.end());
  }
}

void MetricStore::erase_entity(EntityId entity) {
  ++version_;
  ++structural_version_;
  for (const MetricKindId kind : kinds_of(entity)) {
    series_.erase(MetricRef{entity, kind});
    epochs_.erase(MetricRef{entity, kind});
  }
  kinds_.erase(entity);
}

}  // namespace murphy::telemetry
