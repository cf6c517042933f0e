// Telemetry chaos injection — the adversarial counterpart of DESIGN.md §8.
//
// Real monitoring pipelines hand Murphy defective inputs: collectors emit
// NaN/Inf payloads, clocks skew timestamps out of order, agents restart and
// duplicate scrapes, discovery races record edges to entities that were
// never (or are no longer) present. The engine defines semantics for every
// one of those defects; this harness exists to *exercise* them. It takes a
// healthy MonitoringDb and corrupts it with a seeded, configurable fault
// mix, so a property test can assert the engine's invariants — never
// crashes, never emits a non-finite score — over thousands of randomized
// corruption patterns (tests/chaos_test.cpp).
//
// Determinism: every fault draw derives from (opts.seed, series key) alone,
// never from iteration order of a hash map or from addresses, so a given
// (db, options) pair corrupts identically on every run and platform — a
// failing chaos ticket is reproducible from its seed.
//
// Value faults are written through MetricStore::find_mutable(), i.e. they
// BYPASS the put() ingest sanitizer on purpose: that is the only way to get
// raw non-finite payloads into stored series, which is exactly what the
// read-path guards (value_or, window consumers, kernel boundaries) must
// survive. Set ChaosOptions::reingest to additionally round-trip each
// corrupted series through put(), exercising the ingest path instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/ids.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::eval {

// Fault mix. Per-series probabilities are independent Bernoulli draws from
// the series' own derived RNG stream; structural counts are absolute.
struct ChaosOptions {
  std::uint64_t seed = 1;

  // --- value faults (per series) -------------------------------------------
  double p_nan_slice = 0.10;        // poison one random slice with quiet NaN
  double p_inf_slice = 0.08;        // poison one random slice with +/-Inf
  double p_denormal_slice = 0.05;   // one slice -> subnormal min (tiny scale)
  double p_constant_column = 0.05;  // whole series -> one constant value
  double p_near_constant_column = 0.05;  // constant + ~1-ulp jitter
  double p_huge_scale_column = 0.03;     // rescale series by 1e9 (overflow
                                         // pressure on Gram/sxx products)
  double p_drop_history = 0.05;     // invalidate everything before a point
  double p_duplicate_run = 0.05;    // smear one value over a run of slices
                                    // (what duplicated timestamps collapse to)
  double p_swap_slices = 0.05;      // swap two slices (out-of-order arrival)

  // --- structural faults (absolute counts) ---------------------------------
  std::size_t self_loops = 2;       // self-loop edges offered to ingest
  std::size_t orphan_edges = 2;     // edges to absent entities offered
  std::size_t strip_entities = 1;   // entities stripped of ALL their metrics

  // Round-trip every corrupted series through MetricStore::put() so the
  // ingest sanitizer (not the read path) absorbs the non-finite payloads.
  bool reingest = false;
};

// Tally of the faults actually injected (draws that fired).
struct ChaosReport {
  std::size_t nan_slices = 0;
  std::size_t inf_slices = 0;
  std::size_t denormal_slices = 0;
  std::size_t constant_columns = 0;
  std::size_t near_constant_columns = 0;
  std::size_t huge_scale_columns = 0;
  std::size_t dropped_histories = 0;
  std::size_t duplicate_runs = 0;
  std::size_t swapped_slices = 0;
  std::size_t self_loops_offered = 0;
  std::size_t orphan_edges_offered = 0;
  std::size_t stripped_entities = 0;
  // What the db's ingest guards dropped in response: the offered edges, and
  // with reingest the non-finite slices and no-op puts. The caller that
  // holds a metrics registry counts these as `ingest.*`.
  telemetry::IngestDrops drops;

  // Injected faults only: `drops` are the db's responses to them.
  [[nodiscard]] std::size_t total() const {
    return nan_slices + inf_slices + denormal_slices + constant_columns +
           near_constant_columns + huge_scale_columns + dropped_histories +
           duplicate_runs + swapped_slices + self_loops_offered +
           orphan_edges_offered + stripped_entities;
  }
};

// Corrupts `db` in place with the fault mix of `opts`. Series listed in
// `protect` are never touched by value faults (a test typically protects
// the symptom metric so the ticket stays diagnosable); structural faults
// never remove a protected series' entity. Returns the injected tally.
ChaosReport apply_chaos(telemetry::MonitoringDb& db, const ChaosOptions& opts,
                        std::span<const MetricRef> protect = {});

}  // namespace murphy::eval
