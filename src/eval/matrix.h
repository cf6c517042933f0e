// Battle matrix — the topology x fault-type x telemetry-quality evaluation
// grid of "RCA based on Causal Inference: How Far Are We?" (PAPERS.md),
// applied to Murphy and the three baselines.
//
// One *cell* is a (topology level, incident kind, telemetry quality) triple;
// each cell runs `cases_per_cell` seeded scenarios and scores every scheme
// with top-K accuracy, MRR (mean reciprocal rank of the best-ranked true
// root) and wall-clock latency. The quality axis reuses the PR 4 chaos
// injector: the SAME generated case is diagnosed clean and corrupted, so a
// cell pair isolates exactly the telemetry-quality effect.
//
// Scale contract: topology levels at or above
// `service_route_min_services` run Murphy through the long-running
// DiagnosisService — the case db is split into a warm prefix plus a
// streamed incident tail (service::ReplayFeed), replayed through the
// TelemetryStream, and diagnosed via the priority queue with a concurrent
// probe request in flight. That exercises the PR 5 scheduling / epoch-keyed
// cache machinery at hundreds-of-services scale; the kOk response is
// bitwise-identical to a direct MurphyDiagnoser run by the service's
// determinism contract (asserted by tests/concurrency_test.cpp).
//
// Determinism: every accuracy/rank field of a MatrixReport is a pure
// function of (MatrixOptions, scheme options). Latencies are the only
// nondeterministic outputs and are recorded under the separate
// `matrix_latency.` gauge prefix so snapshot diffs can exclude them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/diagnosis.h"
#include "src/core/murphy.h"
#include "src/emulation/topo_gen.h"
#include "src/eval/chaos.h"
#include "src/eval/metrics.h"
#include "src/obs/metrics.h"

namespace murphy::eval {

struct MatrixTopoLevel {
  std::string name;  // e.g. "small-60"
  emulation::TopoGenOptions topo;
};

// severity 0 = pristine telemetry; otherwise every per-series chaos
// probability (and structural fault count) of `base` scales by it. The
// symptom series is always protected so the ticket stays diagnosable.
struct MatrixQualityLevel {
  std::string name;  // e.g. "clean", "degraded"
  double severity = 0.0;
};

struct MatrixOptions {
  std::vector<MatrixTopoLevel> topologies;
  std::vector<emulation::IncidentKind> faults;
  std::vector<MatrixQualityLevel> qualities;
  std::size_t cases_per_cell = 2;
  std::uint64_t seed = 1;
  // Scenario shape shared by every case (slices, rps, intensity...).
  emulation::TopologyCaseOptions scenario;
  // Chaos mix at severity 1.0 (scaled down per quality level). reingest is
  // forced on: corrupted series round-trip through the ingest sanitizer so
  // the streamed (service) and in-memory (direct) views of a case agree.
  ChaosOptions chaos;
  // Murphy engine configuration — used for the service-routed cells (the
  // DiagnosisService wraps its own engine) and expected to match the
  // MurphyDiagnoser passed in `schemes`. Its obs.metrics registry, when set,
  // also counts the ingest.* drops of the chaos pass and of the service
  // route's stream.
  core::MurphyOptions murphy;
  // Topologies with at least this many services route Murphy through
  // DiagnosisService (0 = always, SIZE_MAX = never).
  std::size_t service_route_min_services = 200;
  std::size_t service_workers = 2;
};

// One scheme's scored run on one case of one cell.
struct MatrixCaseRun {
  std::string scheme;
  core::DiagnosisResult result;
  CaseOutcome outcome;  // scored against all_roots / relaxed_set
  double latency_ms = 0.0;
  bool via_service = false;
};

// Every run of one cell (cases x schemes), plus the cell's coordinates.
struct MatrixCellRuns {
  std::string topology, fault, quality;
  std::size_t services = 0;  // generated service count of the topology
  std::size_t entities = 0;  // db entity census of the first case
  std::vector<MatrixCaseRun> runs;
};

// Aggregated scoreboard of one (cell, scheme) pair.
struct MatrixCell {
  std::string topology, fault, quality, scheme;
  std::size_t services = 0;
  std::size_t entities = 0;
  std::size_t cases = 0;
  double top1 = 0.0;          // fraction of cases with a true root at rank 1
  double top3 = 0.0;
  double mrr = 0.0;           // mean 1/rank of the best-ranked true root
  double relaxed_top1 = 0.0;  // §6.1 relaxed acceptance
  double mean_latency_ms = 0.0;
  bool via_service = false;
};

struct MatrixReport {
  std::vector<MatrixCell> cells;
};

// Runs one cell: generates the topology level, builds `cases_per_cell`
// incidents, applies the quality level's chaos, and diagnoses each with
// every scheme. Exposed separately so the determinism harness can compare
// raw ranked lists across thread counts and service routing.
[[nodiscard]] MatrixCellRuns run_matrix_cell(
    const MatrixOptions& opts, std::span<core::Diagnoser* const> schemes,
    std::size_t topo_idx, std::size_t fault_idx, std::size_t quality_idx);

// The full grid. Topologies generate once per level and cases once per
// (topology, fault, case); quality levels re-corrupt copies of the same
// case so the axis is a controlled comparison.
[[nodiscard]] MatrixReport run_battle_matrix(
    const MatrixOptions& opts, std::span<core::Diagnoser* const> schemes);

// Records every cell into `reg`: deterministic fields as
// matrix.<topo>.<fault>.<quality>.<scheme>.{top1,top3,mrr,relaxed_top1,
// cases,services,via_service} gauges, latency under matrix_latency.<...>.ms.
// bench_battle_matrix passes the registry its BENCH_battle_matrix.json
// snapshot is written from.
void record_matrix_gauges(const MatrixReport& report,
                          obs::MetricsRegistry& reg);

// Human-readable per-cell table (one row per cell x scheme).
[[nodiscard]] std::string matrix_table(const MatrixReport& report);

// The default grid: 3 topology sizes (60 / 150 / 320 services, the large
// one past Table-1's 322-node scale), 5 incident kinds, clean + degraded
// telemetry (callers append harsher levels at full scale).
[[nodiscard]] MatrixOptions default_matrix_options();

}  // namespace murphy::eval
