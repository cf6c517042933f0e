#include "src/eval/matrix.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <future>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/eval/runner.h"
#include "src/eval/tables.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/telemetry_stream.h"

namespace murphy::eval {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Case seed: a function of (matrix seed, cell coordinates, case index) but
// NOT of the quality level — qualities re-corrupt the same case.
std::uint64_t case_seed(const MatrixOptions& opts, std::size_t topo_idx,
                        std::size_t fault_idx, std::size_t case_i) {
  return mix_seed(mix_seed(opts.seed, topo_idx * 131 + fault_idx), case_i);
}

ChaosOptions scaled_chaos(const ChaosOptions& base, double severity,
                          std::uint64_t seed) {
  ChaosOptions c = base;
  c.seed = seed;
  c.p_nan_slice *= severity;
  c.p_inf_slice *= severity;
  c.p_denormal_slice *= severity;
  c.p_constant_column *= severity;
  c.p_near_constant_column *= severity;
  c.p_huge_scale_column *= severity;
  c.p_drop_history *= severity;
  c.p_duplicate_run *= severity;
  c.p_swap_slices *= severity;
  c.self_loops = static_cast<std::size_t>(
      std::lround(static_cast<double>(base.self_loops) * severity));
  c.orphan_edges = static_cast<std::size_t>(
      std::lround(static_cast<double>(base.orphan_edges) * severity));
  c.strip_entities = static_cast<std::size_t>(
      std::lround(static_cast<double>(base.strip_entities) * severity));
  // Corrupted series round-trip through the ingest sanitizer so a streamed
  // replay of the db (the service route) carries the same effective values
  // as the in-memory copy the direct schemes read.
  c.reingest = true;
  return c;
}

// Applies the quality level to a copy-constructed case db. The symptom
// series is protected — an unreadable symptom makes the ticket meaningless,
// not hard.
void degrade_case(emulation::DiagnosisCase& c, const MatrixOptions& opts,
                  double severity, std::uint64_t chaos_seed) {
  if (severity <= 0.0) return;
  const MetricRef protect{
      c.symptom_entity, c.db.catalog().intern(c.symptom_metric)};
  const ChaosReport report =
      apply_chaos(c.db, scaled_chaos(opts.chaos, severity, chaos_seed),
                  std::span<const MetricRef>(&protect, 1));
  if (opts.murphy.obs.metrics != nullptr)
    service::count_ingest_drops(*opts.murphy.obs.metrics, report.drops);
}

// Murphy through the long-running service: warm prefix + streamed incident
// tail, a low-priority probe in flight, then the scored request through the
// priority queue. Returns the kOk result (empty causes on any other
// status, which the aggregation counts as a miss rather than hiding).
core::DiagnosisResult diagnose_via_service(
    const emulation::DiagnosisCase& c, const MatrixOptions& opts,
    double* latency_ms) {
  service::ReplayFeed feed =
      service::make_replay_feed(c.db, c.incident_start);
  service::TelemetryStream stream(std::move(feed.warm),
                                 opts.murphy.obs.metrics);
  service::DiagnosisServiceOptions sopts;
  sopts.murphy = opts.murphy;
  sopts.num_workers = opts.service_workers;
  sopts.max_queue = 64;
  service::DiagnosisService svc(stream, sopts);

  // Stream the tail (epoch bumps retire exactly the touched cache entries)
  // with a maintenance pass, as the murphyd ingest loop does.
  for (std::size_t i = 0; i < feed.batches.size(); ++i)
    service::replay_slice(stream, feed, i);
  svc.maintain();

  const core::DiagnosisRequest base = request_for(c);
  service::ServiceRequest probe;
  probe.symptom_entity = base.symptom_entity;
  probe.symptom_metric = base.symptom_metric;
  probe.now = c.incident_start / 2;
  probe.train_begin = 0;
  probe.train_end = probe.now + 1;
  probe.max_hops = 2;
  probe.priority = 0;

  service::ServiceRequest main_req;
  main_req.symptom_entity = base.symptom_entity;
  main_req.symptom_metric = base.symptom_metric;
  main_req.now = base.now;
  main_req.train_begin = base.train_begin;
  main_req.train_end = base.train_end;
  main_req.max_hops = base.max_hops;
  main_req.priority = 10;  // outranks the probe at the queue

  auto probe_future = svc.submit(probe);
  const auto t0 = Clock::now();
  auto main_future = svc.submit(main_req);
  service::ServiceResponse resp = main_future.get();
  if (latency_ms != nullptr) *latency_ms = ms_since(t0);
  (void)probe_future.get();  // resolve before the service dies
  if (resp.status != service::RequestStatus::kOk)
    return core::DiagnosisResult{};
  return std::move(resp.result);
}

MatrixCaseRun run_scheme_on_case(const emulation::DiagnosisCase& c,
                                 const MatrixOptions& opts,
                                 core::Diagnoser& scheme, bool via_service) {
  MatrixCaseRun run;
  run.scheme = std::string(scheme.name());
  run.via_service = via_service;
  if (via_service) {
    run.result = diagnose_via_service(c, opts, &run.latency_ms);
  } else {
    const auto t0 = Clock::now();
    run.result = scheme.diagnose(request_for(c));
    run.latency_ms = ms_since(t0);
  }
  run.outcome = score_result(run.result, c.all_roots, c.relaxed_set);
  return run;
}

}  // namespace

MatrixCellRuns run_matrix_cell(const MatrixOptions& opts,
                               std::span<core::Diagnoser* const> schemes,
                               std::size_t topo_idx, std::size_t fault_idx,
                               std::size_t quality_idx) {
  assert(topo_idx < opts.topologies.size());
  assert(fault_idx < opts.faults.size());
  assert(quality_idx < opts.qualities.size());
  const MatrixTopoLevel& level = opts.topologies[topo_idx];
  const MatrixQualityLevel& quality = opts.qualities[quality_idx];
  const emulation::GeneratedTopology topo = generate_topology(level.topo);

  MatrixCellRuns cell;
  cell.topology = level.name;
  cell.fault = std::string(incident_kind_name(opts.faults[fault_idx]));
  cell.quality = quality.name;
  cell.services = topo.app.services.size();
  const bool via_service =
      cell.services >= opts.service_route_min_services;

  for (std::size_t i = 0; i < opts.cases_per_cell; ++i) {
    emulation::TopologyCaseOptions copts = opts.scenario;
    copts.fault = opts.faults[fault_idx];
    copts.seed = case_seed(opts, topo_idx, fault_idx, i);
    emulation::DiagnosisCase c = make_topology_case(topo, copts);
    degrade_case(c, opts, quality.severity,
                 mix_seed(copts.seed, 7777 + quality_idx));
    if (cell.entities == 0) cell.entities = c.db.entity_count();
    for (core::Diagnoser* scheme : schemes) {
      const bool route = via_service && scheme->name() == "murphy";
      cell.runs.push_back(run_scheme_on_case(c, opts, *scheme, route));
    }
  }
  return cell;
}

namespace {

void aggregate_cell(const MatrixCellRuns& cell,
                    std::span<core::Diagnoser* const> schemes,
                    MatrixReport& report) {
  for (core::Diagnoser* scheme : schemes) {
    MatrixCell agg;
    agg.topology = cell.topology;
    agg.fault = cell.fault;
    agg.quality = cell.quality;
    agg.scheme = std::string(scheme->name());
    agg.services = cell.services;
    agg.entities = cell.entities;
    for (const MatrixCaseRun& run : cell.runs) {
      if (run.scheme != agg.scheme) continue;
      ++agg.cases;
      agg.top1 += run.outcome.hit(1) ? 1.0 : 0.0;
      agg.top3 += run.outcome.hit(3) ? 1.0 : 0.0;
      agg.mrr += run.outcome.precision();
      agg.relaxed_top1 += run.outcome.relaxed_hit(1) ? 1.0 : 0.0;
      agg.mean_latency_ms += run.latency_ms;
      agg.via_service = agg.via_service || run.via_service;
    }
    if (agg.cases > 0) {
      const double n = static_cast<double>(agg.cases);
      agg.top1 /= n;
      agg.top3 /= n;
      agg.mrr /= n;
      agg.relaxed_top1 /= n;
      agg.mean_latency_ms /= n;
    }
    report.cells.push_back(std::move(agg));
  }
}

}  // namespace

MatrixReport run_battle_matrix(const MatrixOptions& opts,
                               std::span<core::Diagnoser* const> schemes) {
  MatrixReport report;
  for (std::size_t t = 0; t < opts.topologies.size(); ++t) {
    const emulation::GeneratedTopology topo =
        generate_topology(opts.topologies[t].topo);
    const bool via_service =
        topo.app.services.size() >= opts.service_route_min_services;
    for (std::size_t f = 0; f < opts.faults.size(); ++f) {
      // Cases generate once per (topology, fault, index); the quality axis
      // re-corrupts copies of the same case.
      std::vector<MatrixCellRuns> cells(opts.qualities.size());
      for (std::size_t q = 0; q < opts.qualities.size(); ++q) {
        cells[q].topology = opts.topologies[t].name;
        cells[q].fault = std::string(incident_kind_name(opts.faults[f]));
        cells[q].quality = opts.qualities[q].name;
        cells[q].services = topo.app.services.size();
      }
      for (std::size_t i = 0; i < opts.cases_per_cell; ++i) {
        emulation::TopologyCaseOptions copts = opts.scenario;
        copts.fault = opts.faults[f];
        copts.seed = case_seed(opts, t, f, i);
        const emulation::DiagnosisCase base = make_topology_case(topo, copts);
        for (std::size_t q = 0; q < opts.qualities.size(); ++q) {
          emulation::DiagnosisCase c = base;  // fresh copy per quality
          degrade_case(c, opts, opts.qualities[q].severity,
                       mix_seed(copts.seed, 7777 + q));
          if (cells[q].entities == 0)
            cells[q].entities = c.db.entity_count();
          for (core::Diagnoser* scheme : schemes) {
            const bool route = via_service && scheme->name() == "murphy";
            cells[q].runs.push_back(
                run_scheme_on_case(c, opts, *scheme, route));
          }
        }
      }
      for (std::size_t q = 0; q < opts.qualities.size(); ++q)
        aggregate_cell(cells[q], schemes, report);
    }
  }
  return report;
}

void record_matrix_gauges(const MatrixReport& report,
                          obs::MetricsRegistry& reg) {
  for (const MatrixCell& cell : report.cells) {
    const std::string key = "matrix." + cell.topology + "." + cell.fault +
                            "." + cell.quality + "." + cell.scheme + ".";
    reg.gauge(key + "top1")->set(cell.top1);
    reg.gauge(key + "top3")->set(cell.top3);
    reg.gauge(key + "mrr")->set(cell.mrr);
    reg.gauge(key + "relaxed_top1")->set(cell.relaxed_top1);
    reg.gauge(key + "cases")->set(static_cast<double>(cell.cases));
    reg.gauge(key + "services")->set(static_cast<double>(cell.services));
    reg.gauge(key + "via_service")->set(cell.via_service ? 1.0 : 0.0);
    // Latency is the one nondeterministic field; its own prefix keeps the
    // matrix.* namespace bit-reproducible for snapshot diffs.
    reg.gauge("matrix_latency." + cell.topology + "." + cell.fault + "." +
              cell.quality + "." + cell.scheme + ".ms")
        ->set(cell.mean_latency_ms);
  }
}

std::string matrix_table(const MatrixReport& report) {
  Table table({"topology", "fault", "quality", "scheme", "top-1", "top-3",
               "MRR", "relaxed@1", "lat ms", "route"});
  for (const MatrixCell& cell : report.cells) {
    table.add_row({cell.topology, cell.fault, cell.quality, cell.scheme,
                   format_double(cell.top1, 2), format_double(cell.top3, 2),
                   format_double(cell.mrr, 2),
                   format_double(cell.relaxed_top1, 2),
                   format_double(cell.mean_latency_ms, 1),
                   cell.via_service ? "service" : "direct"});
  }
  return table.render();
}

MatrixOptions default_matrix_options() {
  MatrixOptions opts;
  {
    MatrixTopoLevel small;
    small.name = "small-60";
    small.topo.services = 60;
    small.topo.applications = 1;
    small.topo.seed = 101;
    opts.topologies.push_back(small);
    MatrixTopoLevel medium;
    medium.name = "medium-150";
    medium.topo.services = 150;
    medium.topo.applications = 2;
    medium.topo.seed = 202;
    opts.topologies.push_back(medium);
    MatrixTopoLevel large;
    large.name = "large-320";
    large.topo.services = 320;
    large.topo.applications = 3;
    large.topo.seed = 303;
    opts.topologies.push_back(large);
  }
  opts.faults = {emulation::IncidentKind::kSingleContention,
                 emulation::IncidentKind::kCorrelatedMultiRoot,
                 emulation::IncidentKind::kSlowBurn,
                 emulation::IncidentKind::kRetryStorm,
                 emulation::IncidentKind::kCascade};
  opts.qualities = {{"clean", 0.0}, {"degraded", 0.6}};
  return opts;
}

}  // namespace murphy::eval
