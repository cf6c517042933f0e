// Build-once keyed map: the one concurrency mechanism behind both training
// caches (stats::WindowStats, core::FactorCache).
//
// Values are keyed by an opaque 64-bit id chosen by the caller and built
// exactly once across threads: the map is guarded by a shared mutex (a
// lookup of an existing entry takes it shared) and each entry carries its
// own once_flag, so concurrent callers of one key wait for a single build
// while every other key proceeds in parallel. Entries are heap-allocated
// and never move, so a returned reference stays valid until prune() drops
// the entry.
//
// The map has no notion of staleness. Callers keep entries valid by putting
// every input of a value into its key, and start a fresh generation by
// emptying the map (core::TrainingCaches owns that decision).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace murphy::stats {

template <typename V>
class BuildOnceMap {
 public:
  // Returns the value for `key`, invoking `build()` exactly once per entry
  // across all threads. `built` (optional) reports whether THIS call did
  // the build (a miss).
  template <typename Build>
  const V& get_or_build(std::uint64_t key, const Build& build,
                        bool* built = nullptr) {
    Entry* entry = nullptr;
    {
      std::shared_lock lock(mu_);
      if (const auto it = entries_.find(key); it != entries_.end())
        entry = it->second.get();
    }
    if (entry == nullptr) {
      std::unique_lock lock(mu_);
      auto& slot = entries_[key];
      if (slot == nullptr) slot = std::make_unique<Entry>();
      entry = slot.get();
    }
    bool did_build = false;
    std::call_once(entry->once, [&] {
      entry->value = build();
      did_build = true;
    });
    (did_build ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    if (built != nullptr) *built = did_build;
    return entry->value;
  }

  // Lifetime hit/miss tallies. Relaxed atomics: exact once the parallel
  // region that updated them has joined.
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mu_);
    return entries_.size();
  }

  // Drops every entry when the map holds more than `max_entries`; prune(0)
  // empties it. Dropping is always correct (just future misses), but the
  // caller must guarantee that no reference obtained from the map is live.
  void prune(std::size_t max_entries) {
    std::unique_lock lock(mu_);
    if (entries_.size() > max_entries) entries_.clear();
  }

 private:
  struct Entry {
    std::once_flag once;
    V value;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace murphy::stats
