// The raw measurements of one benchmark run, as the benchmark binary hands
// them to perfbench/run.py.
//
// The binary only measures: it records samples (milliseconds unless the
// field name says otherwise) and counts, and prints them as one JSON
// object. Every statistic — percentiles, the tail rule, error_frac, the
// per-layer ratios — is computed by perfbench/stats.py, where it is
// self-tested. Keeping the arithmetic in one place means a sample list
// means the same thing on every workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RawResult {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;

  // Each repetition of the workload's set-up (median reported).
  std::vector<double> setup_s;

  // --- diagnoses -----------------------------------------------------------
  std::uint64_t attempted = 0;   // DIAGNOSE lines sent / diagnose() calls
  std::uint64_t ok = 0;          // OK responses / completed calls
  std::uint64_t err_lines = 0;   // ERR lines other than the kinds below
  std::uint64_t rejects = 0;     // queue-full and in-flight-full rejections
  std::uint64_t deadline = 0;    // deadline_exceeded responses
  std::uint64_t unanswered = 0;  // no response before the drain deadline
  std::uint64_t duplicates = 0;  // a second response to one line
  std::vector<double> latency_ms;  // OK only: due time -> response line
  // Consecutive equal windows the latency statistics are taken over (the
  // median of the per-window values is reported).
  std::size_t latency_windows = 1;
  std::vector<double> lag_ms;      // generator lateness: send - due
  // Every OK diagnosis the engine completed in the timed phase, the
  // cpu_ms_per_diagnose base. On wire_ingest it includes the watchdog's
  // auto-enqueued diagnoses, which use the same workers.
  std::uint64_t engine_ok = 0;
  double cpu_s = 0.0;              // process user+sys over the timed phase
  std::uint64_t top3_hits = 0;
  std::uint64_t top3_base = 0;     // OK diagnoses with a labelled cause

  // --- ingest: one slice, replay_slice + scan + maintain, from the slice's
  // start until they return, plus any backlog from the previous slice ---
  std::vector<double> ingest_ms;
  // The ingester's own lateness (begin - max(due, previous end)), which
  // ingest_ms leaves out (wire_ingest only).
  std::vector<double> ingest_lag_ms;
  // Consecutive equal windows the ingest statistics are taken over (the
  // median of the per-window values is reported).
  std::size_t ingest_windows = 1;
  // "loaded" when slices streamed beside the diagnoses (wire_ingest);
  // "idle" when they were replayed on an unloaded stack after the timed
  // phase, as a no-contention reference (see perfbench/README.md).
  std::string ingest_mode;

  double peak_rss_mb = 0.0;

  // --- output check --------------------------------------------------------
  bool check_ok = false;
  std::uint64_t check_compared = 0;
  std::uint64_t check_mismatches = 0;
  std::string check_detail;

  // --- per-layer, traced run only ------------------------------------------
  std::map<std::string, std::vector<double>> samples;  // name -> samples
  std::map<std::string, double> values;                // name -> total
};

// Renders `r` as one line of JSON.
[[nodiscard]] std::string to_json(const RawResult& r);

}  // namespace perfbench
