#include "perfbench/src/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/wire_load.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/murphy.h"
#include "src/emulation/scenarios.h"
#include "src/enterprise/incidents.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/net_server.h"
#include "src/service/protocol.h"
#include "src/service/telemetry_stream.h"
#include "src/watchdog/watchdog.h"

namespace perfbench {
namespace {

using namespace murphy;

// --- workload constants (README.md "Workloads") -----------------------------
constexpr std::size_t kWorkers = 4;        // service worker pool
constexpr std::size_t kNumSamples = 150;   // bench convention (bench_util.h)
// Latency and ingest statistics are medians over consecutive windows of
// about this many samples (p50 and tail per window), so one host stall
// moves one window, not the run.
constexpr std::size_t kWindow = 100;
// wire_steady: closed-loop callers, one per worker, so that every vCPU of a
// 4-core host stays busy (README.md "wire_steady" says why), cycling over
// kSteadyBlocks seeded permutations of the symptom pool.
constexpr std::size_t kSteadyConns = 4;
constexpr std::size_t kSteadyBlocks = 100;
constexpr std::size_t kIngestConns = 2;
// wire_ingest sends one DIAGNOSE per slice: kCollideLeadNs before every
// third slice, so that slice arrives while the diagnosis holds the stream
// lock, and kClearLagNs after each of the others, so it finishes before
// the next slice (README.md "wire_ingest").
constexpr std::int64_t kCollideLeadNs = 2'000'000;
constexpr std::int64_t kClearLagNs = 5'000'000;
constexpr std::int64_t kIngestJitterNs = 1'000'000;
constexpr std::int64_t kSliceEveryNs = 50'000'000;
constexpr TimeIndex kIngestWarm = 220;     // warm prefix before streaming
// incident_batch passes over the 13 incidents: one per 7.5 s of --seconds
// and at least 4 (52 diagnoses, a p75 tail), which take 20-35 s on a 4-core
// host as its load varies.
constexpr std::size_t kIncidentMinPasses = 4;
constexpr double kIncidentPassSeconds = 7.5;
// Set-up is timed kSetupEarly times before the timed phase (the last one is
// kept) and kSetupLate times after it, and the median of all is reported:
// a set-up takes milliseconds, so one moment of a shared host's speed would
// otherwise set the run's value.
constexpr std::size_t kSetupEarly = 6;
constexpr std::size_t kSetupLate = 5;
constexpr std::size_t kIngestChecks = 8;   // wire_ingest re-diagnoses
// Idle ingest reference (ingest_* on the workloads without streaming):
// kProbeRounds rounds of kProbeSlices timed slices, each on a fresh stack;
// stats.py reports the median over rounds, so one slow stretch of a shared
// host moves one round, not the run.
constexpr std::size_t kProbeRounds = 3;
constexpr std::size_t kProbeSlices = 100;
constexpr std::int64_t kProbeEveryNs = 20'000'000;
constexpr std::int64_t kLeadNs = 100'000'000;     // schedule start delay
constexpr std::int64_t kDrainNs = 30'000'000'000;  // after the last due time
const char* const kDeadlineOperands = " 4 10000";  // max_hops, deadline_ms

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Registry instruments the per-layer metrics are derived from: counter
// values, and (sum, count) of histograms, as deltas over the timed phase.
const char* const kCounters[] = {
    "cache.factor_hits", "cache.factor_misses", "cache.window_hits",
    "cache.window_misses", "train.corr_cells", "stats.ridge_cells",
    "infer.kernel_cells", "infer.candidates_evaluated", "diagnose.calls",
    "service.completed"};
const char* const kHistograms[] = {"service.queue_ms", "service.run_ms"};

using RegistryMark = std::map<std::string, std::pair<double, double>>;

RegistryMark registry_mark() {
  RegistryMark m;
  for (const auto& e : obs::global_metrics().snapshot().entries)
    m[e.name] = {e.value, e.sum};
  return m;
}

double mark_delta(const RegistryMark& a, const RegistryMark& b,
                  const std::string& name, bool sum) {
  const auto get = [&](const RegistryMark& m) {
    const auto it = m.find(name);
    if (it == m.end()) return 0.0;
    return sum ? it->second.second : it->second.first;
  };
  return get(b) - get(a);
}

void record_registry(RawResult& r, const RegistryMark& a,
                     const RegistryMark& b) {
  for (const char* c : kCounters) r.values[c] = mark_delta(a, b, c, false);
  for (const char* h : kHistograms) {
    r.values[std::string(h) + ".count"] = mark_delta(a, b, h, false);
    r.values[std::string(h) + ".sum"] = mark_delta(a, b, h, true);
  }
}

// Engine phase time from the tracer's spans (one "diagnose" root per
// diagnosis, one child per phase).
void record_spans(RawResult& r, const obs::Tracer& tracer) {
  static const std::pair<const char*, const char*> kPhases[] = {
      {"graph_build", "phase.graph_ms"},
      {"train_factors", "phase.train_ms"},
      {"candidate_search", "phase.search_ms"},
      {"counterfactual_inference", "phase.infer_ms"},
      {"explain", "phase.explain_ms"}};
  for (const auto& [span, key] : kPhases) r.values[key] += 0.0;
  for (const obs::SpanEvent& ev : tracer.events()) {
    for (const auto& [span, key] : kPhases)
      if (ev.name == span) r.values[key] += ms(ev.dur_ns);
    if (ev.name == "diagnose") r.values["engine.diagnoses"] += 1.0;
  }
}

core::MurphyOptions engine_options(obs::Tracer* tracer, std::size_t threads,
                                   bool metrics) {
  core::MurphyOptions o;
  o.sampler.num_samples = kNumSamples;
  o.num_threads = threads;
  o.obs.metrics = metrics ? &obs::global_metrics() : nullptr;
  o.obs.tracer = tracer;
  return o;
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[static_cast<std::size_t>(rng.below(i))]);
  return p;
}

// --- the murphyd stack -------------------------------------------------------

// TelemetryStream + DiagnosisService (+ Watchdog) + Protocol (+ NetServer),
// wired as examples/murphyd.cpp wires them.
struct Stack {
  std::unique_ptr<service::TelemetryStream> stream;
  std::unique_ptr<service::DiagnosisService> svc;
  std::unique_ptr<watchdog::Watchdog> wd;
  std::unique_ptr<service::Protocol> proto;
  std::unique_ptr<service::NetServer> net;
  std::string socket_path;

  // Drains and stops everything but the stream. Idempotent.
  void stop() {
    if (net) net->shutdown();
    net.reset();
    proto.reset();
    if (wd) {
      wd->drain();
      wd->detach();
    }
    wd.reset();
    if (svc) svc->stop();
    svc.reset();
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
    socket_path.clear();
  }
  ~Stack() { stop(); }
};

std::unique_ptr<Stack> start_stack(telemetry::MonitoringDb warm,
                                   bool with_watchdog,
                                   const std::string& socket_path,
                                   obs::Tracer* tracer) {
  auto s = std::make_unique<Stack>();
  s->stream = std::make_unique<service::TelemetryStream>(std::move(warm));
  service::DiagnosisServiceOptions o;
  o.num_workers = kWorkers;
  o.murphy = engine_options(tracer, 1, true);
  s->svc = std::make_unique<service::DiagnosisService>(*s->stream, o);
  if (with_watchdog) {
    s->wd = std::make_unique<watchdog::Watchdog>(
        *s->stream, *s->svc, watchdog::WatchdogOptions{},
        &obs::global_metrics());
    s->wd->attach();
  }
  service::ProtocolHooks hooks;
  hooks.metrics = &obs::global_metrics();
  s->proto = std::make_unique<service::Protocol>(*s->stream, *s->svc, hooks);
  if (!socket_path.empty()) {
    service::NetServerOptions n;
    n.unix_path = socket_path;
    s->net = std::make_unique<service::NetServer>(*s->proto, n);
    s->socket_path = socket_path;
    std::string err;
    if (!s->net->start(&err))
      throw std::runtime_error("net server start failed: " + err);
  }
  return s;
}

// Times `make` `times` times into r.setup_s and keeps the last result; the
// earlier ones are torn down before the next starts.
template <typename Make>
auto timed_setup(RawResult& r, const Make& make, std::size_t times) {
  decltype(make()) kept{};
  for (std::size_t i = 0; i < times; ++i) {
    kept = {};
    const std::int64_t t0 = now_ns();
    kept = make();
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return kept;
}

// --- ingest --------------------------------------------------------------------

// Sleeps until `due`, then spins the last stretch: a plain sleep wakes up
// 0.05-0.1 ms late, about as long as the idle slice path being timed.
void wait_until(std::int64_t due) {
  constexpr std::int64_t kSpinNs = 300'000;
  for (std::int64_t now = now_ns(); now < due - kSpinNs; now = now_ns())
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - now));
  while (now_ns() < due) {
  }
}

struct SliceLog {
  std::int64_t due = 0, begin = 0, end = 0;
  std::uint64_t version = 0;  // data_version after replay_slice
};

// A slice's ingest latency: its own path (begin -> end) plus the backlog it
// found, the time the previous slice still ran past this one's due time.
// The ingester's own wake-up lateness (begin after both) is the
// generator's, not murphyd's, and is not counted: on a shared host it
// sometimes outlasts wait_until's spin, and it alone then set the tail of
// the idle reference.
double ingest_latency_ms(const SliceLog& s, std::int64_t prev_end) {
  return ms(s.end - s.begin + std::max<std::int64_t>(0, prev_end - s.due));
}

// One slice through murphyd's --replay-ms --watchdog path: replay_slice,
// then Watchdog::scan, then maintain. The traced run also times each call
// and, first, one bare write() acquisition — how long a writer waits for
// the stream lock at that moment.
SliceLog ingest_slice(Stack& s, const service::ReplayFeed& feed, std::size_t i,
                      std::int64_t due, RawResult* traced) {
  SliceLog log;
  log.due = due;
  log.begin = now_ns();
  if (traced != nullptr) {
    { auto lock = s.stream->write(); }
    const std::int64_t t1 = now_ns();
    traced->samples["stream.write_wait_ms"].push_back(ms(t1 - log.begin));
    const std::size_t cells = service::replay_slice(*s.stream, feed, i);
    const std::int64_t t2 = now_ns();
    s.wd->scan();
    const std::int64_t t3 = now_ns();
    s.svc->maintain();
    const std::int64_t t4 = now_ns();
    traced->values["stream.append_us"] += static_cast<double>(t2 - t1) * 1e-3;
    traced->values["stream.append_cells"] += static_cast<double>(cells);
    traced->samples["watchdog.scan_ms"].push_back(ms(t3 - t2));
    traced->values["watchdog.scan_ns"] += static_cast<double>(t3 - t2);
    traced->values["watchdog.scan_cells"] += static_cast<double>(cells);
    traced->samples["service.maintain_ms"].push_back(ms(t4 - t3));
  } else {
    (void)service::replay_slice(*s.stream, feed, i);
    s.wd->scan();
    s.svc->maintain();
  }
  log.end = now_ns();
  log.version = s.stream->data_version();
  return log;
}

// bench_table1_incidents' quick topology (322-node diagnosis graphs).
enterprise::IncidentDatasetOptions quick_incident_options() {
  enterprise::IncidentDatasetOptions o;
  o.topology.num_apps = 8;
  o.topology.hosts = 12;
  o.topology.tors = 3;
  o.topology.ports_per_tor = 8;
  o.topology.datastores = 4;
  o.dynamics.slices = 168;
  return o;
}

// The ingest reference for the workloads that do not stream, run after
// their timed phase: wire_ingest's slice path with nothing else running.
// kProbeRounds times, the interference scenario's quiet history just before
// its fault is replayed on a fresh, otherwise idle stack, one slice every
// kProbeEveryNs. Quiet data keeps the watchdog from enqueueing diagnoses, so
// nothing contends for the stream lock. The first slice of a round is
// replayed untimed: the watchdog's first scan backfills every series'
// baseline from slice 0, a one-off start-up cost. Each slice is timed from
// its start, not its due time, so the ingester's wake-up lateness stays
// out. The traced run records the stream and watchdog per-layer timers
// here, as wire_ingest does for its loaded slices. (Spacing matters on a
// shared host: at one slice per 5 ms the p50 spread 12% over six runs, at
// one per 20 ms 5%. Back to back, a slice takes a tenth as long, 4-7 us,
// and the runs split between two modes; Table-1 incident 1's 1,379-cell
// slices, a working set other tenants evict, spread 10-45%.)
void idle_ingest_probe(RawResult& r, bool traced) {
  const emulation::DiagnosisCase sc =
      emulation::make_interference_case(emulation::InterferenceOptions{});
  const TimeIndex split =
      sc.incident_start - static_cast<TimeIndex>(kProbeSlices + 1);
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    service::ReplayFeed feed = service::make_replay_feed(sc.db, split);
    auto stack = start_stack(std::move(feed.warm), true, "", nullptr);
    (void)ingest_slice(*stack, feed, 0, now_ns(), nullptr);
    const std::int64_t t0 = now_ns() + kProbeEveryNs;
    for (std::size_t i = 1; i <= kProbeSlices; ++i) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(i - 1) * kProbeEveryNs;
      wait_until(due);
      const SliceLog log =
          ingest_slice(*stack, feed, i, due, traced ? &r : nullptr);
      r.ingest_ms.push_back(ingest_latency_ms(log, 0));
    }
    stack->stop();
  }
  r.ingest_windows = kProbeRounds;
  r.ingest_mode = "idle";
}

// --- wire requests -------------------------------------------------------------

struct Symptom {
  EntityId entity;
  std::string entity_name;
  std::string metric;
};

// The interference scenario's symptom pool: the victim client's latency
// (the scenario's own symptom) and the latency of every service in the
// scenario's relaxed set — the aggressor's entry service and the services
// both clients' call trees share. The labelled root cause of each is the
// aggressor client.
std::vector<Symptom> interference_symptoms(
    const emulation::DiagnosisCase& sc) {
  const telemetry::MonitoringDb& db = sc.db;
  std::vector<EntityId> ids{sc.symptom_entity};
  for (const EntityId e : sc.relaxed_set) {
    const bool service = std::find(sc.entities.services.begin(),
                                   sc.entities.services.end(),
                                   e) != sc.entities.services.end();
    if (service) ids.push_back(e);
  }
  std::vector<Symptom> out;
  const MetricKindId kind = db.catalog().find(sc.symptom_metric);
  for (const EntityId e : ids) {
    if (db.metrics().find(e, kind) == nullptr) continue;
    out.push_back({e, db.entity(e).name, sc.symptom_metric});
  }
  return out;
}

// DIAGNOSE requests due at `due` (seeded, fixed before the first send).
// Symptoms rotate over the pool in blocks, each block a fresh seeded
// permutation, so every run asks for each symptom equally often (±1) but
// in a seed-dependent order. which[i] is request i's pool index.
std::vector<WireRequest> diagnose_requests(
    const std::vector<std::int64_t>& due, const std::vector<Symptom>& pool,
    Rng& rng, std::vector<std::size_t>* which) {
  std::vector<std::size_t> order;
  std::vector<WireRequest> reqs(due.size());
  which->resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (i % pool.size() == 0) order = permutation(pool.size(), rng);
    (*which)[i] = order[i % pool.size()];
    const Symptom& s = pool[(*which)[i]];
    reqs[i] = {"DIAGNOSE " + s.entity_name + " " + s.metric + kDeadlineOperands,
               due[i]};
  }
  return reqs;
}

// Uniform in [-half, half] nanoseconds.
std::int64_t jitter_ns(Rng& rng, std::int64_t half) {
  return static_cast<std::int64_t>((2.0 * rng.uniform() - 1.0) *
                                   static_cast<double>(half));
}

struct OkLine {
  std::uint64_t version = 0;
  double run_ms = 0.0;
  std::vector<std::string> top;  // rank order, at most 5 (protocol.cpp)
};

// "OK id=<n> version=<v> run_ms=<ms> 1:<name> 2:<name> ..."
std::optional<OkLine> parse_ok(const std::string& line) {
  if (line.rfind("OK ", 0) != 0) return std::nullopt;
  std::istringstream in(line.substr(3));
  OkLine ok;
  bool have_version = false, have_run = false;
  std::string tok;
  while (in >> tok) {
    if (tok.rfind("version=", 0) == 0) {
      ok.version = std::stoull(tok.substr(8));
      have_version = true;
    } else if (tok.rfind("run_ms=", 0) == 0) {
      ok.run_ms = std::stod(tok.substr(7));
      have_run = true;
    } else if (const std::size_t colon = tok.find(':');
               colon != std::string::npos && tok.rfind("id=", 0) != 0) {
      ok.top.push_back(tok.substr(colon + 1));
    }
  }
  if (!have_version || !have_run) return std::nullopt;
  return ok;
}

// Classifies every outcome into the error_frac terms and collects OK
// latencies (due -> response line) and generator lateness (send - due).
std::vector<std::optional<OkLine>> account(
    RawResult& r, const std::vector<WireRequest>& reqs,
    const std::vector<WireOutcome>& outs) {
  std::vector<std::optional<OkLine>> oks(outs.size());
  r.attempted = reqs.size();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const WireOutcome& o = outs[i];
    if (o.send_ns != 0) r.lag_ms.push_back(ms(o.send_ns - reqs[i].due_ns));
    if (o.responses > 1) r.duplicates += o.responses - 1;
    if (o.responses == 0) {
      ++r.unanswered;
      continue;
    }
    oks[i] = parse_ok(o.line);
    if (oks[i].has_value()) {
      ++r.ok;
      r.latency_ms.push_back(ms(o.recv_ns - reqs[i].due_ns));
    } else if (o.line.rfind("ERR rejected", 0) == 0) {
      ++r.rejects;
    } else if (o.line.rfind("ERR deadline_exceeded", 0) == 0) {
      ++r.deadline;
    } else {
      ++r.err_lines;
    }
  }
  return oks;
}

// Traced-run wire samples: the engine's own run_ms from each OK line, and
// what the round trip adds on top of it (socket, protocol, queue).
void record_wire_layers(RawResult& r, const std::vector<WireOutcome>& outs,
                        const std::vector<std::optional<OkLine>>& oks) {
  auto& run = r.samples["service.run_ms"];
  auto& over = r.samples["service.rtt_minus_run_ms"];
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (!oks[i].has_value()) continue;
    run.push_back(oks[i]->run_ms);
    over.push_back(ms(outs[i].recv_ns - outs[i].send_ns) - oks[i]->run_ms);
  }
}

core::DiagnosisRequest request_at(const telemetry::MonitoringDb& db,
                                  const Symptom& s) {
  core::DiagnosisRequest q;
  q.db = &db;
  q.symptom_entity = s.entity;
  q.symptom_metric = s.metric;
  const std::size_t slices = db.metrics().axis().size();
  q.now = static_cast<TimeIndex>(slices - 1);
  q.train_begin = 0;
  q.train_end = static_cast<TimeIndex>(slices);
  q.max_hops = 4;  // the DIAGNOSE operand in kDeadlineOperands
  return q;
}

// The ranking a direct MurphyDiagnoser produces, as the OK line prints it.
std::vector<std::string> direct_top(const telemetry::MonitoringDb& db,
                                    const Symptom& s) {
  core::MurphyDiagnoser d(engine_options(nullptr, 1, false));
  const core::DiagnosisResult res = d.diagnose(request_at(db, s));
  std::vector<std::string> top;
  for (std::size_t i = 0; i < std::min<std::size_t>(res.causes.size(), 5); ++i)
    top.push_back(db.entity(res.causes[i].entity).name);
  return top;
}

bool top3_contains(const std::vector<std::string>& top,
                   const std::string& name) {
  const std::size_t n = std::min<std::size_t>(top.size(), 3);
  return std::find(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(n),
                   name) != top.begin() + static_cast<std::ptrdiff_t>(n);
}

void check_one_response_each(RawResult& r) {
  if (r.unanswered > 0 || r.duplicates > 0) {
    r.check_ok = false;
    r.check_detail += " lines_without_exactly_one_response=" +
                      std::to_string(r.unanswered + r.duplicates);
  }
}

std::string socket_path(const RunConfig& cfg) {
  return cfg.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace

// --- wire_steady -------------------------------------------------------------

RawResult run_wire_steady(const RunConfig& cfg) {
  RawResult r;
  std::unique_ptr<obs::Tracer> tracer =
      cfg.traced ? std::make_unique<obs::Tracer>() : nullptr;
  struct Setup {
    std::unique_ptr<emulation::DiagnosisCase> sc;
    std::unique_ptr<Stack> stack;
  };
  const auto make = [&] {
    Setup out;
    out.sc = std::make_unique<emulation::DiagnosisCase>(
        emulation::make_interference_case(emulation::InterferenceOptions{}));
    // Static db: the whole scenario is warm, nothing streams.
    service::ReplayFeed feed = service::make_replay_feed(
        out.sc->db, static_cast<TimeIndex>(out.sc->db.metrics().axis().size()));
    out.stack = start_stack(std::move(feed.warm), false, socket_path(cfg),
                            tracer.get());
    return out;
  };
  Setup s = timed_setup(r, make, kSetupEarly);
  const std::vector<Symptom> pool = interference_symptoms(*s.sc);
  const std::string root = s.sc->db.entity(s.sc->root_cause).name;

  // Warm the factor cache: one DIAGNOSE per symptom, untimed.
  {
    std::vector<WireRequest> warm;
    for (const Symptom& sym : pool)
      warm.push_back({"DIAGNOSE " + sym.entity_name + " " + sym.metric +
                          kDeadlineOperands,
                      now_ns()});
    (void)run_open_loop(s.stack->socket_path, warm, 1, now_ns() + kDrainNs);
  }
  if (tracer) tracer->clear();

  Rng rng(cfg.seed);
  std::vector<std::size_t> cycle_which;
  std::vector<std::string> cycle;
  for (WireRequest& q :
       diagnose_requests(std::vector<std::int64_t>(pool.size() * kSteadyBlocks),
                         pool, rng, &cycle_which))
    cycle.push_back(std::move(q.command));
  const std::size_t conns = std::min<std::size_t>(
      kSteadyConns, std::max(1u, std::thread::hardware_concurrency()));

  const RegistryMark m0 = registry_mark();
  const double cpu0 = cpu_seconds();
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<WireOutcome> sent = run_closed_loop(
      s.stack->socket_path, cycle, conns, until, until + kDrainNs);
  r.cpu_s = cpu_seconds() - cpu0;
  const RegistryMark m1 = registry_mark();
  r.engine_ok = static_cast<std::uint64_t>(
      mark_delta(m0, m1, "service.completed", false));

  // The requests sent, each due when it was sent: a closed-loop caller has
  // no schedule to fall behind, so the run records no generator lag.
  std::vector<WireRequest> reqs;
  std::vector<std::size_t> which;
  std::vector<WireOutcome> outs;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].send_ns == 0) continue;
    reqs.push_back({cycle[i % cycle.size()], sent[i].send_ns});
    which.push_back(cycle_which[i % cycle.size()]);
    outs.push_back(std::move(sent[i]));
  }
  const auto oks = account(r, reqs, outs);
  r.lag_ms.clear();
  r.latency_windows = std::max<std::size_t>(1, reqs.size() / kWindow);
  for (std::size_t i = 0; i < oks.size(); ++i) {
    if (!oks[i].has_value()) continue;
    ++r.top3_base;
    if (top3_contains(oks[i]->top, root)) ++r.top3_hits;
  }
  if (cfg.traced) {
    record_wire_layers(r, outs, oks);
    record_registry(r, m0, m1);
    record_spans(r, *tracer);
  }

  // Output check: every OK ranking equals a direct MurphyDiagnoser run for
  // that symptom at the same db version (the db is static, so there is one
  // version; a response at any other version is itself a failure).
  r.check_ok = true;
  {
    const auto db = s.stack->stream->read();
    const std::uint64_t version = db->data_version();
    std::map<std::size_t, std::vector<std::string>> expected;
    for (std::size_t i = 0; i < oks.size(); ++i) {
      if (!oks[i].has_value()) continue;
      if (!expected.contains(which[i]))
        expected[which[i]] = direct_top(*db, pool[which[i]]);
      ++r.check_compared;
      if (oks[i]->version != version || oks[i]->top != expected[which[i]])
        ++r.check_mismatches;
    }
  }
  if (r.check_mismatches > 0) r.check_ok = false;
  r.check_detail = "compared " + std::to_string(r.check_compared) +
                   " OK rankings with direct diagnoses of " +
                   std::to_string(pool.size()) + " symptoms";
  check_one_response_each(r);
  s = {};  // one set-up alive at a time, as peak_rss_mb should see
  (void)timed_setup(r, make, kSetupLate);

  idle_ingest_probe(r, cfg.traced);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- wire_ingest -------------------------------------------------------------

RawResult run_wire_ingest(const RunConfig& cfg) {
  RawResult r;
  std::unique_ptr<obs::Tracer> tracer =
      cfg.traced ? std::make_unique<obs::Tracer>() : nullptr;
  // The streamed tail holds one slice per 50 ms of --seconds; the fault
  // onset falls a tenth of the way into it. Diagnoses before the onset
  // find few candidates and are an order of magnitude cheaper, so the onset
  // sits early enough that diagnose_p50_ms lands inside the post-onset
  // mode rather than on the edge between the two.
  const auto streamed = static_cast<std::size_t>(
      cfg.seconds * 1e9 / static_cast<double>(kSliceEveryNs) + 0.5);
  emulation::InterferenceOptions sopts;
  sopts.slices = kIngestWarm + streamed;
  sopts.ramp_at = kIngestWarm + static_cast<TimeIndex>(streamed / 10);

  struct Setup {
    std::unique_ptr<emulation::DiagnosisCase> sc;
    std::unique_ptr<service::ReplayFeed> feed;
    std::unique_ptr<Stack> stack;
  };
  const auto make = [&] {
    Setup out;
    out.sc = std::make_unique<emulation::DiagnosisCase>(
        emulation::make_interference_case(sopts));
    out.feed = std::make_unique<service::ReplayFeed>(
        service::make_replay_feed(out.sc->db, kIngestWarm));
    out.stack = start_stack(std::move(out.feed->warm), true, socket_path(cfg),
                            tracer.get());
    return out;
  };
  Setup s = timed_setup(r, make, kSetupEarly);
  const std::vector<Symptom> pool = interference_symptoms(*s.sc);
  const std::string root = s.sc->db.entity(s.sc->root_cause).name;
  const std::uint64_t warm_version = s.stack->stream->data_version();

  Rng rng(cfg.seed);
  const std::int64_t t0 = now_ns() + kLeadNs;
  std::vector<std::int64_t> due(streamed);
  for (std::size_t i = 0; i < streamed; ++i)
    due[i] = t0 + static_cast<std::int64_t>(i) * kSliceEveryNs +
             (i % 3 == 0 ? -kCollideLeadNs : kClearLagNs) +
             jitter_ns(rng, kIngestJitterNs);
  std::vector<std::size_t> which;
  const std::vector<WireRequest> reqs =
      diagnose_requests(due, pool, rng, &which);
  const std::size_t conns = std::min<std::size_t>(
      kIngestConns,
      std::max(1u, std::thread::hardware_concurrency() - 1));

  const RegistryMark m0 = registry_mark();
  const double cpu0 = cpu_seconds();
  std::vector<SliceLog> slices(streamed);
  std::exception_ptr ingest_error;
  std::jthread ingester([&] {
    try {
      for (std::size_t i = 0; i < streamed; ++i) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(i) * kSliceEveryNs;
        wait_until(due);
        slices[i] = ingest_slice(*s.stack, *s.feed, i, due,
                                 cfg.traced ? &r : nullptr);
      }
    } catch (...) {
      ingest_error = std::current_exception();
    }
  });
  const std::vector<WireOutcome> outs = run_open_loop(
      s.stack->socket_path, reqs, conns, reqs.back().due_ns + kDrainNs);
  ingester.join();
  if (ingest_error) std::rethrow_exception(ingest_error);
  // Settle the watchdog's own diagnoses so every diagnosis of the timed
  // phase is counted (and no span is open when the tracer is read).
  s.stack->wd->drain();
  r.cpu_s = cpu_seconds() - cpu0;
  const RegistryMark m1 = registry_mark();
  r.engine_ok = static_cast<std::uint64_t>(
      mark_delta(m0, m1, "service.completed", false));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    r.ingest_ms.push_back(
        ingest_latency_ms(slices[i], i == 0 ? 0 : slices[i - 1].end));
    r.ingest_lag_ms.push_back(ms(std::max(
        slices[i].begin - std::max(slices[i].due,
                                   i == 0 ? 0 : slices[i - 1].end),
        std::int64_t{0})));
  }
  r.ingest_mode = "loaded";
  r.ingest_windows = std::max<std::size_t>(1, streamed / kWindow);

  const auto oks = account(r, reqs, outs);
  r.latency_windows = std::max<std::size_t>(1, reqs.size() / kWindow);
  // A labelled root cause exists only once the fault has begun: versions
  // at or past the one that committed slice ramp_at.
  const std::uint64_t onset_version =
      slices[static_cast<std::size_t>(sopts.ramp_at - kIngestWarm)].version;
  for (std::size_t i = 0; i < oks.size(); ++i) {
    if (!oks[i].has_value() || oks[i]->version < onset_version) continue;
    ++r.top3_base;
    if (top3_contains(oks[i]->top, root)) ++r.top3_hits;
  }
  if (cfg.traced) {
    record_wire_layers(r, outs, oks);
    record_registry(r, m0, m1);
    record_spans(r, *tracer);
  }
  s.stack->stop();

  // Output check. The OK line's version pins the db a diagnosis ran on, but
  // not the axis its request saw at dispatch (DIAGNOSE takes `now` from the
  // axis then). A response is unambiguous when it ran at the version of the
  // k slices committed before its send: dispatch came after the send and
  // before the run, and versions only grow, so it saw those k slices too.
  // kIngestChecks of those, spread over the run, are re-diagnosed on a
  // fresh stream rebuilt to k slices by replaying the same feed, and must
  // match the OK line's ranking.
  r.check_ok = true;
  const auto version_after = [&](std::size_t k) {
    return k == 0 ? warm_version : slices[k - 1].version;
  };
  std::vector<std::pair<std::size_t, std::size_t>> unambiguous;  // (k, i)
  for (std::size_t i = 0; i < oks.size(); ++i) {
    if (!oks[i].has_value()) continue;
    std::size_t k = 0;
    while (k < slices.size() && slices[k].end < outs[i].send_ns) ++k;
    if (oks[i]->version == version_after(k)) unambiguous.push_back({k, i});
  }
  const std::size_t picks = std::min(kIngestChecks, unambiguous.size());
  service::ReplayFeed fresh = service::make_replay_feed(s.sc->db, kIngestWarm);
  service::TelemetryStream rebuilt(std::move(fresh.warm));
  std::size_t replayed = 0;
  for (std::size_t p = 0; p < picks; ++p) {
    const auto [k, i] = unambiguous[p * unambiguous.size() / picks];
    while (replayed < k) service::replay_slice(rebuilt, fresh, replayed++);
    const auto db = rebuilt.read();
    ++r.check_compared;
    if (db->data_version() != version_after(k) ||
        oks[i]->top != direct_top(*db, pool[which[i]]))
      ++r.check_mismatches;
  }
  if (picks == 0 || r.check_mismatches > 0) r.check_ok = false;
  // A run where no response could be pinned to its db has verified nothing.
  r.check_detail = "re-diagnosed " + std::to_string(r.check_compared) +
                   " of " + std::to_string(unambiguous.size()) +
                   " unambiguous OK responses on a rebuilt stream";
  check_one_response_each(r);
  s = {};
  (void)timed_setup(r, make, kSetupLate);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- incident_batch ------------------------------------------------------------

RawResult run_incident_batch(const RunConfig& cfg) {
  RawResult r;
  std::unique_ptr<obs::Tracer> tracer =
      cfg.traced ? std::make_unique<obs::Tracer>() : nullptr;
  using Dataset = std::vector<enterprise::EnterpriseIncident>;
  const auto make = [&] {
    return std::make_unique<Dataset>(
        enterprise::make_incident_dataset(quick_incident_options()));
  };
  auto dataset = timed_setup(r, make, kSetupEarly);

  const std::size_t threads = resolve_num_threads(0);
  const std::size_t passes = std::max<std::size_t>(
      kIncidentMinPasses,
      static_cast<std::size_t>(cfg.seconds / kIncidentPassSeconds + 0.5));
  Rng rng(cfg.seed);
  // rankings[pass][incident]
  std::vector<std::vector<std::vector<core::RankedRootCause>>> rankings(
      passes, std::vector<std::vector<core::RankedRootCause>>(dataset->size()));

  const RegistryMark m0 = registry_mark();
  const double cpu0 = cpu_seconds();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const std::size_t idx : permutation(dataset->size(), rng)) {
      const enterprise::EnterpriseIncident& inc = (*dataset)[idx];
      core::DiagnosisRequest q;
      q.db = &inc.topo.db;
      q.symptom_entity = inc.symptom_entity;
      q.symptom_metric = inc.symptom_metric;
      q.now = inc.incident_end > 0 ? inc.incident_end - 1 : 0;
      q.train_begin = 0;
      q.train_end = inc.incident_end;
      ++r.attempted;
      // Cold: a fresh diagnoser with no training caches, every call.
      core::MurphyDiagnoser d(engine_options(tracer.get(), threads, true));
      const std::int64_t t = now_ns();
      core::DiagnosisResult res = d.diagnose(q);
      const std::int64_t dt = now_ns() - t;
      ++r.ok;
      r.latency_ms.push_back(ms(dt));
      ++r.top3_base;
      for (std::size_t c = 0; c < std::min<std::size_t>(3, res.causes.size());
           ++c)
        if (std::find(inc.ground_truth.begin(), inc.ground_truth.end(),
                      res.causes[c].entity) != inc.ground_truth.end()) {
          ++r.top3_hits;
          break;
        }
      rankings[pass][idx] = std::move(res.causes);
    }
  }
  r.cpu_s = cpu_seconds() - cpu0;
  r.engine_ok = r.ok;
  const RegistryMark m1 = registry_mark();
  if (cfg.traced) {
    record_registry(r, m0, m1);
    record_spans(r, *tracer);
  }

  // Output check: the same incident ranks bitwise-identically every pass.
  r.check_ok = true;
  for (std::size_t pass = 1; pass < passes; ++pass)
    for (std::size_t i = 0; i < dataset->size(); ++i) {
      ++r.check_compared;
      const auto& a = rankings[0][i];
      const auto& b = rankings[pass][i];
      const bool same =
          a.size() == b.size() &&
          std::equal(a.begin(), a.end(), b.begin(),
                     [](const core::RankedRootCause& x,
                        const core::RankedRootCause& y) {
                       return x.entity == y.entity && x.score == y.score;
                     });
      if (!same) ++r.check_mismatches;
    }
  if (r.check_mismatches > 0) r.check_ok = false;
  r.check_detail = "compared " + std::to_string(r.check_compared) +
                   " rankings against pass 1 across " +
                   std::to_string(passes) + " passes";
  dataset.reset();
  (void)timed_setup(r, make, kSetupLate);

  idle_ingest_probe(r, cfg.traced);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

}  // namespace perfbench
