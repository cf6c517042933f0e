// The always-on watchdog (DESIGN.md §10): streaming detection, debounced
// triggering, incident lifecycle, and the determinism contract — the
// incident journal is bitwise identical at any ingest thread count and any
// service worker count. The soak here (determinism matrix) is the ASan/TSan
// target in CI.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/telemetry_stream.h"
#include "src/watchdog/watchdog.h"

namespace murphy::watchdog {
namespace {

using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// Chain A -> B -> C -> D with a cpu surge at A (propagating downstream) over
// [surge_begin, surge_end) — the service_test environment with a
// controllable fault window so lifecycle phases (open -> diagnose ->
// resolve) all happen inside the replayed region.
struct ChainEnv {
  MonitoringDb db;
  EntityId a, b, c, d;
  MetricKindId load;
};

ChainEnv make_chain_env(std::size_t slices, std::size_t surge_begin,
                        std::size_t surge_end) {
  ChainEnv e;
  e.a = e.db.add_entity(EntityType::kVm, "A");
  e.b = e.db.add_entity(EntityType::kVm, "B");
  e.c = e.db.add_entity(EntityType::kVm, "C");
  e.d = e.db.add_entity(EntityType::kVm, "D");
  e.db.add_association(e.a, e.b, RelationKind::kGeneric);
  e.db.add_association(e.b, e.c, RelationKind::kGeneric);
  e.db.add_association(e.c, e.d, RelationKind::kGeneric);
  e.load = e.db.catalog().intern("cpu_util");
  e.db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  Rng rng(11);
  std::vector<double> va(slices), vb(slices), vc(slices), vd(slices);
  for (std::size_t t = 0; t < slices; ++t) {
    const double surge = t >= surge_begin && t < surge_end ? 14.0 : 0.0;
    va[t] = 6.0 + 2.0 * std::sin(0.07 * t) + rng.normal(0.0, 0.3) + surge;
    vb[t] = 1.6 * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.2 * vb[t] + rng.normal(0.0, 0.4);
    vd[t] = 1.1 * vc[t] + rng.normal(0.0, 0.4);
  }
  e.db.metrics().put(e.a, e.load, va);
  e.db.metrics().put(e.b, e.load, vb);
  e.db.metrics().put(e.c, e.load, vc);
  e.db.metrics().put(e.d, e.load, vd);
  return e;
}

service::DiagnosisServiceOptions fast_service_opts(std::size_t workers) {
  service::DiagnosisServiceOptions sopts;
  sopts.num_workers = workers;
  sopts.murphy.sampler.num_samples = 20;
  sopts.murphy.num_threads = 1;
  sopts.murphy.seed = 7;
  return sopts;
}

struct RunResult {
  std::string journal;
  std::string incidents_json;
  std::vector<Incident> incidents;
};

// Replays the feed one slice per scan, splitting each slice's cell batch
// across `ingest_threads` concurrent appenders (the observer notifications
// then arrive in a nondeterministic order — what the determinism contract
// must absorb).
RunResult run_watchdog(const ChainEnv& env, TimeIndex split,
                       std::size_t ingest_threads, std::size_t workers,
                       WatchdogOptions wopts = {},
                       bool collect_audit = false,
                       std::string* audit_jsonl = nullptr) {
  service::ReplayFeed feed = service::make_replay_feed(env.db, split);
  service::TelemetryStream stream(std::move(feed.warm));
  service::DiagnosisServiceOptions sopts = fast_service_opts(workers);
  sopts.murphy.obs.collect_audit = collect_audit;
  service::DiagnosisService svc(stream, sopts);
  Watchdog wd(stream, svc, std::move(wopts));
  wd.attach();

  for (std::size_t i = 0; i < feed.batches.size(); ++i) {
    stream.extend_axis(1);
    const std::vector<service::TelemetryCell>& batch = feed.batches[i];
    if (ingest_threads <= 1) {
      stream.append(batch);
    } else {
      std::vector<std::thread> threads;
      const std::size_t chunk =
          (batch.size() + ingest_threads - 1) / ingest_threads;
      for (std::size_t k = 0; k < ingest_threads; ++k) {
        const std::size_t lo = std::min(k * chunk, batch.size());
        const std::size_t hi = std::min(lo + chunk, batch.size());
        if (lo == hi) continue;
        threads.emplace_back([&stream, &batch, lo, hi] {
          stream.append(std::span<const service::TelemetryCell>(
              batch.data() + lo, hi - lo));
        });
      }
      for (std::thread& t : threads) t.join();
    }
    wd.scan();
  }
  wd.drain();
  wd.detach();

  RunResult r;
  r.journal = wd.journal_jsonl();
  r.incidents_json = to_json(wd.incidents());
  r.incidents = wd.incidents();
  if (audit_jsonl != nullptr) *audit_jsonl = wd.audit_jsonl();
  svc.stop();
  return r;
}

// --- determinism -----------------------------------------------------------

TEST(WatchdogDeterminism, JournalBitwiseStableAcrossThreadAndWorkerCounts) {
  const ChainEnv env = make_chain_env(160, 120, 160);
  const RunResult ref = run_watchdog(env, 100, 1, 0);
  ASSERT_FALSE(ref.journal.empty());
  ASSERT_FALSE(ref.incidents.empty());
  for (const std::size_t ingest_threads : {2UL, 8UL}) {
    for (const std::size_t workers : {0UL, 1UL, 3UL}) {
      const RunResult got = run_watchdog(env, 100, ingest_threads, workers);
      EXPECT_EQ(ref.journal, got.journal)
          << "ingest_threads=" << ingest_threads << " workers=" << workers;
      EXPECT_EQ(ref.incidents_json, got.incidents_json)
          << "ingest_threads=" << ingest_threads << " workers=" << workers;
    }
  }
}

// --- lifecycle properties --------------------------------------------------

TEST(WatchdogLifecycle, SingleFaultYieldsOneDiagnosedIncident) {
  const ChainEnv env = make_chain_env(160, 120, 160);
  WatchdogOptions wopts;
  wopts.z_open = 4.5;  // the chain's tail dilutes z below the default 6
  wopts.z_clear = 2.0;
  const RunResult r = run_watchdog(env, 100, 1, 2, wopts);
  // One fault lighting up the whole chain must coalesce into ONE incident:
  // the co-onset group window attaches the rest of the chain to the first
  // firing entity's incident.
  ASSERT_EQ(r.incidents.size(), 1u);
  const Incident& inc = r.incidents[0];
  EXPECT_EQ(inc.state, IncidentState::kDiagnosed);
  EXPECT_TRUE(inc.diagnosis_ok);
  EXPECT_FALSE(inc.top_causes.empty());
  EXPECT_EQ(inc.members.size(), 4u);
  EXPECT_GT(inc.priority, 0);
  EXPECT_TRUE(std::isfinite(inc.severity));
  // The surge starts at slice 120; detection cannot precede it.
  EXPECT_GE(inc.opened_at, 120u);
  // The fault origin (A, the surge source) must be surfaced: either the
  // watchdog picked it as the primary symptom, or the diagnosis ranked it
  // top-3. (When the symptom IS the origin, the engine's counterfactual
  // ranking favors downstream victims — the primary entity covers it.)
  bool found_a = inc.entity_name == "A";
  for (const std::string& cause : inc.top_causes) found_a |= cause == "A";
  EXPECT_TRUE(found_a) << "fault origin surfaced nowhere: "
                       << to_json(inc);
}

TEST(WatchdogLifecycle, EveryIncidentEndsDiagnosedOrResolved) {
  const ChainEnv env = make_chain_env(200, 110, 135);
  const RunResult r = run_watchdog(env, 100, 1, 1);
  ASSERT_FALSE(r.incidents.empty());
  for (const Incident& inc : r.incidents) {
    EXPECT_TRUE(inc.state == IncidentState::kDiagnosed ||
                inc.state == IncidentState::kResolved)
        << "incident " << inc.id << " stuck in "
        << std::string(to_string(inc.state));
    EXPECT_TRUE(std::isfinite(inc.severity));
  }
}

TEST(WatchdogLifecycle, SymptomClearanceAutoResolves) {
  // Surge over [110, 135), then 65 clean slices: the incident must resolve
  // (hysteresis clear -> resolve_streak quiet scans) before the feed ends.
  const ChainEnv env = make_chain_env(200, 110, 135);
  const RunResult r = run_watchdog(env, 100, 1, 1);
  ASSERT_EQ(r.incidents.size(), 1u);
  const Incident& inc = r.incidents[0];
  EXPECT_EQ(inc.state, IncidentState::kResolved);
  EXPECT_GT(inc.resolved_at, inc.opened_at);
  // Resolution must land after the fault window ended.
  EXPECT_GE(inc.resolved_at, 135u);
  // It was diagnosed before it resolved.
  EXPECT_TRUE(inc.diagnosis_ok);
}

TEST(WatchdogLifecycle, JournalTransitionsAreWellFormed) {
  const ChainEnv env = make_chain_env(200, 110, 135);
  const RunResult r = run_watchdog(env, 100, 1, 1);
  std::vector<obs::IncidentEvent> events;
  std::string error;
  ASSERT_TRUE(obs::parse_incident_jsonl(r.journal, events, &error)) << error;
  ASSERT_FALSE(events.empty());
  // Per incident: exactly one "open", it comes first; "diagnosed" only after
  // an "enqueue"; nothing after "resolve"; slices are monotone.
  std::map<std::uint64_t, std::vector<const obs::IncidentEvent*>> by_id;
  for (const obs::IncidentEvent& ev : events)
    by_id[ev.incident_id].push_back(&ev);
  for (const auto& [id, evs] : by_id) {
    EXPECT_EQ(evs.front()->event, "open") << "incident " << id;
    std::size_t opens = 0;
    std::size_t enqueues = 0;
    std::uint64_t prev_slice = 0;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const obs::IncidentEvent& ev = *evs[i];
      EXPECT_GE(ev.slice, prev_slice) << "incident " << id;
      prev_slice = ev.slice;
      EXPECT_TRUE(std::isfinite(ev.severity));
      if (ev.event == "open") ++opens;
      if (ev.event == "enqueue") ++enqueues;
      if (ev.event == "diagnosed") EXPECT_GT(enqueues, 0u);
      if (i + 1 < evs.size()) EXPECT_NE(ev.event, "resolve");
    }
    EXPECT_EQ(opens, 1u) << "incident " << id;
  }
}

// --- audit linkage ---------------------------------------------------------

TEST(WatchdogAudit, DiagnosisAuditsCarryIncidentId) {
  const ChainEnv env = make_chain_env(160, 120, 160);
  std::string audit_jsonl;
  const RunResult r = run_watchdog(env, 100, 1, 1, {}, /*collect_audit=*/true,
                                   &audit_jsonl);
  ASSERT_EQ(r.incidents.size(), 1u);
  ASSERT_FALSE(audit_jsonl.empty());
  obs::DiagnosisAudit audit;
  std::string error;
  ASSERT_TRUE(obs::parse_jsonl(audit_jsonl, audit, &error)) << error;
  EXPECT_EQ(audit.incident_id, r.incidents[0].id);
  EXPECT_FALSE(audit.candidates.empty());
}

// --- chaos: corrupted telemetry cannot open phantom incidents --------------

TEST(WatchdogChaos, NonFiniteAndConstantStreamsOpenNothing) {
  // Two pathological entities: X streams a constant column, Y streams NaN/
  // +-Inf garbage. Neither may ever open an incident — non-finite cells are
  // sanitized to missing at ingest and skipped by the detector, and the
  // sigma floor keeps a constant baseline from manufacturing z out of
  // nothing.
  MonitoringDb db;
  const EntityId x = db.add_entity(EntityType::kVm, "X");
  const EntityId y = db.add_entity(EntityType::kVm, "Y");
  db.add_association(x, y, RelationKind::kGeneric);
  const MetricKindId load = db.catalog().intern("cpu_util");
  const std::size_t slices = 120;
  db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  std::vector<double> vx(slices, 42.0);
  std::vector<double> vy(slices, 1.0);
  db.metrics().put(x, load, vx);
  db.metrics().put(y, load, vy);

  service::ReplayFeed feed = service::make_replay_feed(db, 60);
  service::TelemetryStream stream(std::move(feed.warm));
  service::DiagnosisService svc(stream, fast_service_opts(1));
  Watchdog wd(stream, svc, {});
  wd.attach();
  Rng rng(3);
  for (std::size_t i = 0; i < feed.batches.size(); ++i) {
    stream.extend_axis(1);
    std::vector<service::TelemetryCell> batch = feed.batches[i];
    for (service::TelemetryCell& c : batch) {
      if (c.entity == y) {
        // Corrupt Y wholesale: NaN / +-Inf, occasionally a huge-but-finite
        // sentinel dropped to NaN by the next pass.
        const double roll = rng.uniform();
        c.value = roll < 0.4   ? std::numeric_limits<double>::quiet_NaN()
                  : roll < 0.7 ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      }
    }
    stream.append(batch);
    wd.scan();
  }
  wd.drain();
  wd.detach();
  EXPECT_TRUE(wd.incidents().empty())
      << "phantom incident from corrupted telemetry: "
      << to_json(wd.incidents());
  EXPECT_TRUE(wd.journal().empty());
  svc.stop();
}

TEST(WatchdogChaos, CorruptionDoesNotPoisonRealDetection) {
  // NaN-bomb one series of the chain while the real surge runs: the
  // incident still opens, and every severity in the journal stays finite.
  const ChainEnv env = make_chain_env(160, 120, 160);
  service::ReplayFeed feed = service::make_replay_feed(env.db, 100);
  service::TelemetryStream stream(std::move(feed.warm));
  service::DiagnosisService svc(stream, fast_service_opts(1));
  Watchdog wd(stream, svc, {});
  wd.attach();
  for (std::size_t i = 0; i < feed.batches.size(); ++i) {
    stream.extend_axis(1);
    std::vector<service::TelemetryCell> batch = feed.batches[i];
    for (service::TelemetryCell& c : batch)
      if (c.entity == env.c && i % 3 == 0)
        c.value = std::numeric_limits<double>::quiet_NaN();
    stream.append(batch);
    wd.scan();
  }
  wd.drain();
  wd.detach();
  ASSERT_FALSE(wd.incidents().empty());
  for (const obs::IncidentEvent& ev : wd.journal())
    EXPECT_TRUE(std::isfinite(ev.severity)) << obs::to_json(ev);
  for (const Incident& inc : wd.incidents())
    EXPECT_TRUE(std::isfinite(inc.severity));
  svc.stop();
}

// --- observer hook + counters ----------------------------------------------

TEST(WatchdogHook, CommitObserverReportsTouchedSeriesWithEpochs) {
  ChainEnv env = make_chain_env(40, 40, 40);  // no surge
  obs::MetricsRegistry m;
  service::TelemetryStream stream(std::move(env.db), &m);
  std::vector<service::SeriesTouch> seen;
  stream.set_commit_observer(
      [&seen](std::span<const service::SeriesTouch> touches) {
        seen.assign(touches.begin(), touches.end());
      });
  const std::vector<service::TelemetryCell> batch = {
      {env.a, env.load, 5, 1.0},
      {env.a, env.load, 6, 2.0},  // same series: must dedup to one touch
      {env.b, env.load, 5, 3.0},
  };
  ASSERT_EQ(stream.append(batch), 3u);
  // The stream counts into the registry it was given, nothing else.
  const obs::MetricsRegistry::Snapshot snap = m.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].name, "ingest.cells");
  EXPECT_EQ(snap.entries[0].value, 3.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].ref, (MetricRef{env.a, env.load}));
  EXPECT_EQ(seen[1].ref, (MetricRef{env.b, env.load}));
  {
    const auto db = stream.read();
    EXPECT_EQ(seen[0].epoch, db->metrics().series_epoch(env.a, env.load));
    EXPECT_EQ(seen[1].epoch, db->metrics().series_epoch(env.b, env.load));
  }
  // Detach: further appends must not notify.
  stream.set_commit_observer(nullptr);
  seen.clear();
  ASSERT_EQ(stream.append(batch), 3u);
  EXPECT_TRUE(seen.empty());
}

TEST(WatchdogHook, StreamCountsEachIngestDefectExactly) {
  ChainEnv env = make_chain_env(40, 40, 40);
  obs::MetricsRegistry m;
  service::TelemetryStream stream(std::move(env.db), &m);
  const std::size_t slices = stream.slice_count();
  const std::vector<service::TelemetryCell> batch = {
      {env.a, env.load, 5, 1.0},
      {env.a, env.load, 6, std::numeric_limits<double>::quiet_NaN()},
      {EntityId(9999), env.load, 5, 1.0},  // unknown entity
      {env.b, env.load, slices, 1.0},      // beyond the axis
      {env.b, env.load, slices + 1, 1.0},
  };
  ASSERT_EQ(stream.append(batch), 2u);
  EXPECT_EQ(m.counter("ingest.cells")->value(), 2u);
  EXPECT_EQ(m.counter("ingest.nonfinite_dropped")->value(), 1u);
  EXPECT_EQ(m.counter("ingest.unknown_entity_dropped")->value(), 1u);
  EXPECT_EQ(m.counter("ingest.out_of_axis_dropped")->value(), 2u);
  EXPECT_EQ(m.snapshot().entries.size(), 4u);
}

TEST(WatchdogHook, CountersTrackScansAndTriggers) {
  const ChainEnv env = make_chain_env(160, 120, 160);
  service::ReplayFeed feed = service::make_replay_feed(env.db, 100);
  service::TelemetryStream stream(std::move(feed.warm));
  service::DiagnosisService svc(stream, fast_service_opts(0));
  obs::MetricsRegistry m;
  Watchdog wd(stream, svc, {}, &m);
  wd.attach();
  for (std::size_t i = 0; i < feed.batches.size(); ++i) {
    service::replay_slice(stream, feed, i);
    wd.scan();
  }
  // One scan per call; drain() may re-scan until the lifecycle quiesces.
  EXPECT_EQ(m.counter("watchdog.scans")->value(), feed.batches.size());
  wd.drain();
  wd.detach();
  EXPECT_EQ(m.counter("watchdog.incidents_opened")->value(), 1u);
  svc.stop();
}

}  // namespace
}  // namespace murphy::watchdog
