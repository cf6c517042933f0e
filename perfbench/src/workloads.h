// The benchmark workloads (perfbench/README.md says why each exists and
// which layers it loads). wire_ingest is not in BENCHMARK.json: its
// figures follow the host's steal time too closely to gate on, but it
// still runs on request.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/raw_result.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: engine spans on, plus the benchmark's own timers around
  // each layer call. The untraced run keeps only the end-to-end timers.
  bool traced = false;
  // Scratch directory inside the checkout (the unix socket lives here).
  std::string work_dir = ".";
};

// Hotel-reservation interference, static db, closed-loop DIAGNOSE from 4
// callers, one per service worker.
[[nodiscard]] RawResult run_wire_steady(const RunConfig& cfg);
// The same stack with one slice streamed every 50 ms through replay_slice,
// Watchdog::scan and maintain, beside open-loop DIAGNOSE.
[[nodiscard]] RawResult run_wire_ingest(const RunConfig& cfg);
// The 13 Table-1 enterprise incidents, MurphyDiagnoser::diagnose called
// directly by one caller, cold every call.
[[nodiscard]] RawResult run_incident_batch(const RunConfig& cfg);

}  // namespace perfbench
