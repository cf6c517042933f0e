#include "src/obs/metrics.h"

#include <algorithm>

#include "src/obs/json.h"

namespace murphy::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  // Atomics are not movable, so size the bucket array once here.
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS accumulation: the total is exact, the addition order is not.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double p) const {
  const std::uint64_t n = count();
  if (n == 0 || bounds_.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  // ceil(p * n) without float rounding surprises at the boundaries.
  std::uint64_t target = static_cast<std::uint64_t>(clamped * static_cast<double>(n));
  if (static_cast<double>(target) < clamped * static_cast<double>(n) ||
      target == 0)
    ++target;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= target) return bounds_[i];
  }
  return bounds_.back();  // overflow bucket: report the largest bound
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return it->second.get();
}

void MetricsRegistry::add_nonzero(std::string_view name, std::uint64_t n) {
  if (n > 0) counter(name)->add(n);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return it->second.get();
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  // std::map iteration is name-sorted; merge the three kinds into one
  // name-sorted list afterwards.
  for (const auto& [name, c] : counters_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "counter";
    e.value = static_cast<double>(c->value());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "gauge";
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "histogram";
    e.value = static_cast<double>(h->count());
    e.sum = h->sum();
    e.bounds = h->bounds();
    e.bucket_counts = h->bucket_counts();
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              return a.name < b.name;
            });
  return snap;
}

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{";
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    const auto& e = snap.entries[i];
    if (i > 0) out.push_back(',');
    json_append_escaped(out, e.name);
    out += ":{\"kind\":\"";
    out += e.kind;
    out += "\"";
    if (e.kind == "histogram") {
      out += ",\"count\":" + json_number(e.value);
      out += ",\"sum\":" + json_number(e.sum);
      out += ",\"bounds\":[";
      for (std::size_t b = 0; b < e.bounds.size(); ++b) {
        if (b > 0) out.push_back(',');
        out += json_number(e.bounds[b]);
      }
      out += "],\"buckets\":[";
      for (std::size_t b = 0; b < e.bucket_counts.size(); ++b) {
        if (b > 0) out.push_back(',');
        out += json_number(e.bucket_counts[b]);
      }
      out += "]";
    } else {
      out += ",\"value\":" + json_number(e.value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->set(0.0);
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace murphy::obs
