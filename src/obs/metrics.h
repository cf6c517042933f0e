// Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.
//
// Engine internals (factors trained, neighbors pruned by the one-in-ten
// rule, Gibbs iterations, candidates evaluated, per-phase milliseconds, ...)
// are recorded here so benches, tests and the audit pipeline can read them
// after a run. Instruments are registered by name (get-or-create under a
// mutex, once) and then updated lock-free through atomics, so hammering a
// counter from every worker thread is cheap and TSAN-clean.
//
// Determinism: integer counter totals depend only on the work performed, so
// a deterministic diagnosis yields identical counter values at every thread
// count. Histogram *bucket counts* share that property when the observed
// values are themselves deterministic (p-values, feature counts) — but not
// for wall-clock observations like the phase.*_ms histograms. The `sum`
// field is a floating-point accumulation whose order varies with
// scheduling, so tests must not compare sums across thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace murphy::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-writer-wins double value. Set gauges from serial sections only if the
// final value must be deterministic.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
// overflow bucket counts the rest. Bounds are set at registration and
// immutable afterwards.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // bucket_counts()[i] pairs with bounds()[i]; the final entry is overflow.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  // Upper-bound estimate of the p-quantile (p in [0, 1]) from the bucket
  // counts: the bound of the first bucket whose cumulative count reaches
  // p * count(). Resolution is the bucket width — good enough for the
  // service's p50/p99 latency reporting, not for fine-grained percentiles.
  // Observations past the last bound report the last bound. 0 when empty.
  [[nodiscard]] double quantile(double p) const;
  void reset();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; the returned pointer stays valid for the registry's
  // lifetime. Re-registering a histogram name keeps the original bounds.
  [[nodiscard]] Counter* counter(std::string_view name);
  [[nodiscard]] Gauge* gauge(std::string_view name);
  [[nodiscard]] Histogram* histogram(std::string_view name,
                                     std::vector<double> bounds);

  // Adds n to counter `name`, creating it only when n > 0, so a defect
  // counter appears in a snapshot once a defect occurred. Takes the
  // registry mutex: hot paths resolve a counter() pointer once instead.
  void add_nonzero(std::string_view name, std::uint64_t n);

  // Lookup without creation; nullptr when absent (or a different kind).
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  // Point-in-time snapshot of every instrument, sorted by name.
  struct Snapshot {
    struct Entry {
      std::string name;
      std::string kind;  // "counter" | "gauge" | "histogram"
      double value = 0.0;             // counter/gauge value, histogram count
      double sum = 0.0;               // histogram only
      std::vector<double> bounds;     // histogram only
      std::vector<std::uint64_t> bucket_counts;  // histogram only
    };
    std::vector<Entry> entries;
  };
  [[nodiscard]] Snapshot snapshot() const;

  // Snapshot rendered as one JSON object keyed by instrument name.
  [[nodiscard]] std::string to_json() const;

  // Zeroes every registered instrument (instruments stay registered and
  // previously returned pointers stay valid).
  void reset();

 private:
  mutable std::mutex mu_;  // guards the maps; instruments update lock-free
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Process-global registry. Nothing in the library writes here on its own:
// every layer counts into the registry its owner was given (ObsHooks,
// TelemetryStream, Watchdog, ...). Benches, perfbench and murphyd choose to
// attach this one so their snapshots gather every layer in one place.
[[nodiscard]] MetricsRegistry& global_metrics();

}  // namespace murphy::obs
