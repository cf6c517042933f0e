// Training-window column moment cache.
//
// Every correlation in Murphy's feature-selection hot path re-derives the
// same per-column statistics: the mean, the centered column, and its sum of
// squared deviations. WindowStats materializes them once per column and
// cache key, turning each pairwise pearson() into a single cached-dot-
// product kernel (pearson_centered) instead of a three-pass rescan.
//
// Bit-identity contract: every cached quantity is computed with the exact
// accumulation order of the function it replaces —
//   mean     = stats::mean(values)            (index-order sum / n)
//   centered = values[i] - mean               (the dx of pearson())
//   sxx      = sum centered[i]^2, index order (pearson's sxx accumulator;
//              also variance()'s numerator, so sigma = sqrt(sxx / (n-1)))
// so kernels over cached columns reproduce the uncached results bitwise.
//
// Columns are keyed by an opaque 64-bit id chosen by the caller. The core
// layer mixes (entity, kind), the series' write epoch and the train window
// into it, so a key names exactly one column's contents (see
// core::FactorSet). Concurrency is the build-once map's: parallel batch
// diagnoses share one materialization per key.
#pragma once

#include <cstddef>
#include <vector>

#include "src/stats/build_once_map.h"

namespace murphy::stats {

// Fused moments of one training-window column.
struct ColumnMoments {
  std::vector<double> values;    // raw window values
  std::vector<double> centered;  // values[i] - mean
  double mean = 0.0;
  double sxx = 0.0;    // sum of squared deviations (pearson's accumulator)
  double sigma = 0.0;  // classic stddev, sqrt(sxx / (n-1)); 0 when n < 2
  std::size_t nonfinite_cells = 0;  // values replaced by 0.0 (see below)
};

// Builds the moments of one column. Non-finite values are a telemetry
// defect (DESIGN.md §8): they are replaced by 0.0 — the engine's
// missing-value fallback, matching TimeSeries::window() — before any moment
// is accumulated, so one poisoned slice can no longer NaN every moment
// cached from the column. The replacements are reported in
// `nonfinite_cells`; FactorSet counts them as `train.nonfinite_cells`.
// Finite columns are processed bit-identically to before.
[[nodiscard]] ColumnMoments build_column_moments(std::vector<double> values);

using WindowStats = BuildOnceMap<ColumnMoments>;

}  // namespace murphy::stats
