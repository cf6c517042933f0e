// Watchdog bench: always-on detection quality and steady-state overhead
// (DESIGN.md §10).
//
// Drives the full murphyd watchdog stack over generated battle-matrix
// topologies (kSingleContention, varying seeds): each case's trace is split
// before the incident window, the tail is replayed slice by slice with a
// watchdog scan per slice, and the incident journal is compared against the
// generator's ground truth. Reported numbers:
//
//  * detection latency p50/p99 — slices from incident onset to the first
//    incident open (slice-indexed, deterministic);
//  * trigger precision/recall — incidents that overlap the planned fault
//    window vs incidents opened at all, and faulted cases detected;
//  * diagnosis top-3 rate — cases where a ground-truth root container/
//    service lands in the auto-enqueued diagnosis' top 3;
//  * steady-state overhead — ingest throughput with the watchdog attached
//    vs detached over the same feed (wall-clock, nondeterministic).
//
// Quality numbers land in deterministic watchdog.* gauges (CI diffs them
// run-to-run with scripts/metrics_diff.py --prefix watchdog.); wall-clock
// numbers go to watchdog_wall.* and are ignored by the diff, mirroring the
// matrix.* / matrix_latency.* precedent.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/emulation/topo_gen.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/telemetry_stream.h"
#include "src/watchdog/watchdog.h"

using namespace murphy;

namespace {

double exact_quantile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct CaseOutcome {
  bool detected = false;       // >=1 incident overlapping the fault window
  bool top3 = false;           // a ground-truth root in some diagnosis top-3
  double detect_slices = 0.0;  // onset -> first open (when detected)
  std::size_t incidents = 0;   // total opened
  std::size_t true_incidents = 0;  // opened inside the fault window (+slack)
};

CaseOutcome run_case(const emulation::DiagnosisCase& c) {
  service::ReplayFeed feed = service::make_replay_feed(
      c.db, c.incident_start > 20 ? c.incident_start - 20 : 1);
  service::TelemetryStream stream(std::move(feed.warm),
                                 &obs::global_metrics());
  service::DiagnosisServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.murphy.num_threads = 1;
  sopts.murphy.sampler.num_samples = bench::full_scale() ? 500 : 150;
  sopts.murphy.seed = 7;
  sopts.murphy.obs.metrics = &obs::global_metrics();
  service::DiagnosisService svc(stream, sopts);
  watchdog::Watchdog wd(stream, svc, {});
  wd.attach();
  for (std::size_t i = 0; i < feed.batches.size(); ++i) {
    service::replay_slice(stream, feed, i);
    wd.scan();
  }
  wd.drain();
  wd.detach();

  // Ground-truth root names (roots are entity ids in the case's db).
  std::vector<std::string> root_names;
  for (const EntityId root : c.all_roots)
    root_names.push_back(c.db.entity(root).name);

  CaseOutcome out;
  for (const watchdog::Incident& inc : wd.incidents()) {
    ++out.incidents;
    // An incident is a true trigger when it opens inside the fault window
    // (a little post-window slack covers hysteresis clearing lag).
    const bool in_window = inc.opened_at >= c.incident_start &&
                           inc.opened_at < c.incident_end + 10;
    if (in_window) {
      ++out.true_incidents;
      if (!out.detected) {
        out.detected = true;
        out.detect_slices =
            static_cast<double>(inc.opened_at - c.incident_start);
      }
    }
    for (const std::string& cause : inc.top_causes)
      for (const std::string& root : root_names)
        if (cause == root) out.top3 = true;
  }
  svc.stop();
  return out;
}

// Ingest throughput over the same feed with and without the watchdog
// attached — the steady-state cost of always-on detection, measured over
// murphyd's actual per-slice ingest loop (replay + cache maintain + scan).
// One warm slice runs outside the timer: the watchdog's first scan
// backfills every series' warm prefix, a one-time cost that a long-running
// daemon amortizes to nothing. Off/on rounds interleave so clock-speed
// drift during the probe hits both arms equally.
struct IngestProbe {
  double off_cells_per_s = 0.0;
  double on_cells_per_s = 0.0;
};

IngestProbe measure_ingest(const emulation::DiagnosisCase& c) {
  const std::size_t rounds = bench::scaled(5, 15);
  std::size_t cells[2] = {0, 0};
  double secs[2] = {0.0, 0.0};
  for (std::size_t r = 0; r < rounds; ++r) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool with_wd = arm == 1;
      service::ReplayFeed feed = service::make_replay_feed(
          c.db, c.incident_start > 20 ? c.incident_start - 20 : 1);
      service::TelemetryStream stream(std::move(feed.warm),
                                     &obs::global_metrics());
      service::DiagnosisServiceOptions sopts;
      sopts.num_workers = 0;  // isolate ingest+scan cost from diagnosis cost
      sopts.murphy.num_threads = 1;
      service::DiagnosisService svc(stream, sopts);
      watchdog::WatchdogOptions wopts;
      wopts.z_open = 1e18;  // scoring runs, triggering suppressed: pure cost
      watchdog::Watchdog wd(stream, svc, wopts);
      if (with_wd) wd.attach();
      service::replay_slice(stream, feed, 0);
      svc.maintain();
      if (with_wd) wd.scan();  // absorbs the warm-prefix backfill
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 1; i < feed.batches.size(); ++i) {
        cells[arm] += service::replay_slice(stream, feed, i);
        svc.maintain();
        if (with_wd) wd.scan();
      }
      secs[arm] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (with_wd) wd.detach();
      svc.stop();
    }
  }
  IngestProbe out;
  if (secs[0] > 0.0)
    out.off_cells_per_s = static_cast<double>(cells[0]) / secs[0];
  if (secs[1] > 0.0)
    out.on_cells_per_s = static_cast<double>(cells[1]) / secs[1];
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Always-on watchdog: detection quality and steady-state overhead",
      "engineering experiment (no paper figure) — the paper's engine is "
      "request-driven; this measures the PR 7 streaming trigger loop");

  const std::size_t cases = bench::scaled(6, 24);
  emulation::TopoGenOptions topts;
  topts.services = 40;
  topts.applications = 2;

  std::vector<double> detect;
  std::size_t detected = 0, top3 = 0, incidents = 0, true_incidents = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    topts.seed = 100 + i;
    const emulation::GeneratedTopology topo = generate_topology(topts);
    emulation::TopologyCaseOptions copts;
    copts.fault = emulation::IncidentKind::kSingleContention;
    copts.seed = 1000 + i;
    const emulation::DiagnosisCase c = make_topology_case(topo, copts);
    const CaseOutcome out = run_case(c);
    detected += out.detected ? 1 : 0;
    top3 += out.top3 ? 1 : 0;
    incidents += out.incidents;
    true_incidents += out.true_incidents;
    if (out.detected) detect.push_back(out.detect_slices);
    std::printf("case %2zu: incidents=%zu true=%zu detected=%d top3=%d "
                "latency=%.0f slices\n",
                i, out.incidents, out.true_incidents, out.detected ? 1 : 0,
                out.top3 ? 1 : 0, out.detected ? out.detect_slices : -1.0);
  }
  bench::stamp_workload({"topo-gen-L40", topts.services, 0, topts.seed,
                         "single-contention,watchdog-replay"});

  std::sort(detect.begin(), detect.end());
  const double n = static_cast<double>(cases);
  const double recall = static_cast<double>(detected) / n;
  const double precision =
      incidents > 0
          ? static_cast<double>(true_incidents) / static_cast<double>(incidents)
          : 1.0;
  const double top3_rate = static_cast<double>(top3) / n;
  const double p50 = exact_quantile(detect, 0.50);
  const double p99 = exact_quantile(detect, 0.99);

  // Overhead probe on one representative case.
  topts.seed = 100;
  emulation::TopologyCaseOptions copts;
  copts.fault = emulation::IncidentKind::kSingleContention;
  copts.seed = 1000;
  const emulation::DiagnosisCase probe =
      make_topology_case(generate_topology(topts), copts);
  const IngestProbe ingest = measure_ingest(probe);
  const double off = ingest.off_cells_per_s;
  const double on = ingest.on_cells_per_s;
  const double overhead_pct = off > 0.0 ? 100.0 * (off - on) / off : 0.0;
  // Absolute watchdog cost per cell: the honest number for sizing. The
  // relative figure is against a baseline that does nothing but hash-insert
  // cells (~35 ns each); any real pipeline (parsing, network, validation)
  // dilutes the same absolute cost to a far smaller fraction.
  const double added_ns_per_cell =
      (off > 0.0 && on > 0.0) ? 1e9 * (1.0 / on - 1.0 / off) : 0.0;

  std::printf("\ntrigger recall    : %5.2f  (%zu/%zu cases)\n", recall,
              detected, cases);
  std::printf("trigger precision : %5.2f  (%zu/%zu incidents)\n", precision,
              true_incidents, incidents);
  std::printf("diagnosis top-3   : %5.2f\n", top3_rate);
  std::printf("detect latency p50: %5.1f slices   p99: %5.1f slices\n", p50,
              p99);
  std::printf("ingest throughput : %.0f cells/s off, %.0f cells/s on "
              "(%.1f%% overhead, %.1f ns/cell added)\n",
              off, on, overhead_pct, added_ns_per_cell);

  auto& m = obs::global_metrics();
  // Deterministic detection-quality gauges (CI diffs these run-to-run).
  m.gauge("watchdog.cases")->set(n);
  m.gauge("watchdog.recall")->set(recall);
  m.gauge("watchdog.precision")->set(precision);
  m.gauge("watchdog.top3_rate")->set(top3_rate);
  m.gauge("watchdog.detect_p50_slices")->set(p50);
  m.gauge("watchdog.detect_p99_slices")->set(p99);
  // Wall-clock: legitimately varies run to run.
  m.gauge("watchdog_wall.ingest_off_cells_per_s")->set(off);
  m.gauge("watchdog_wall.ingest_on_cells_per_s")->set(on);
  m.gauge("watchdog_wall.overhead_pct")->set(overhead_pct);
  m.gauge("watchdog_wall.added_ns_per_cell")->set(added_ns_per_cell);
  bench::write_bench_json("watchdog");
  return 0;
}
