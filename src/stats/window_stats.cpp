#include "src/stats/window_stats.h"

#include <cmath>

#include "src/stats/summary.h"

namespace murphy::stats {

ColumnMoments build_column_moments(std::vector<double> values) {
  ColumnMoments m;
  m.values = std::move(values);
  const std::size_t n = m.values.size();
  // Defined defect semantics: non-finite slices degrade to the missing-value
  // fallback (0.0) instead of poisoning every moment built from the column.
  for (double& v : m.values) {
    if (!std::isfinite(v)) {
      v = 0.0;
      ++m.nonfinite_cells;
    }
  }
  // Exactly mean()'s sum order, then pearson()'s dx and sxx accumulation;
  // variance() accumulates the identical products, so sigma reproduces
  // stddev() bitwise.
  m.mean = stats::mean(m.values);
  m.centered.resize(n);
  for (std::size_t i = 0; i < n; ++i) m.centered[i] = m.values[i] - m.mean;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) sxx += m.centered[i] * m.centered[i];
  m.sxx = sxx;
  m.sigma = n < 2 ? 0.0 : std::sqrt(sxx / static_cast<double>(n - 1));
  return m;
}

}  // namespace murphy::stats
