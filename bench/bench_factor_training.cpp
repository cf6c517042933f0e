// Factor-training microbenchmark: cross-symptom cache off vs on.
//
// A batch diagnosis trains one FactorSet per symptom, and the symptoms of
// one incident share most of their relationship-graph neighborhoods — so
// without sharing, the same (entity, kind, in-neighbor-set) conditional is
// re-scored and re-fit once per symptom. This bench isolates the training
// phase (graph build + MetricSpace + FactorSet) over a set of symptom seeds
// from one enterprise incident and times it three ways:
//
//   cold   — no caches (the pre-cache engine's behaviour);
//   shared — one TrainingCaches shared across the symptom set, as
//            BatchDiagnoser wires it (first pass trains misses);
//   warm   — a second pass over the same db state (everything hits, the
//            repeat-diagnosis case).
//
// The trained conditionals are bitwise identical in all three modes (the
// concurrency/cache tests assert this); only the work changes. The shared-
// mode target for this PR is >= 5x over cold.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/batch.h"
#include "src/core/factor_cache.h"
#include "src/core/symptom_finder.h"
#include "src/enterprise/incidents.h"

using namespace murphy;

namespace {

double train_all(const telemetry::MonitoringDb& db,
                 std::span<const core::Symptom> symptoms,
                 TimeIndex train_begin, TimeIndex train_end,
                 core::TrainingCaches* caches, std::size_t* factors_out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t factors = 0;
  for (const core::Symptom& symptom : symptoms) {
    const std::vector<EntityId> seed_vec{symptom.entity};
    const auto graph = graph::RelationshipGraph::build(db, seed_vec);
    const core::MetricSpace space(db, graph);
    const core::FactorTrainingOptions topts;
    if (caches != nullptr) caches->renew(db, topts);
    // The global registry collects the cache hit/miss counters for the
    // BENCH snapshot.
    const core::FactorSet factors_set(
        db, graph, space, train_begin, train_end, topts, /*seed=*/1,
        /*num_threads=*/1, caches, {.metrics = &obs::global_metrics()});
    factors += factors_set.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (factors_out != nullptr) *factors_out = factors;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Streams one fresh value onto every series of ~`fraction` of the entities
// (collectors report all metrics of an entity together, so real churn is
// entity-clustered). Returns the number of series touched.
std::size_t churn_series(telemetry::MonitoringDb& db, double fraction,
                         TimeIndex t) {
  const auto entities = db.all_entities();
  const std::size_t stride = static_cast<std::size_t>(1.0 / fraction);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < entities.size(); i += stride) {
    for (const MetricKindId kind : db.metrics().kinds_of(entities[i])) {
      const telemetry::TimeSeries* s = db.metrics().find(entities[i], kind);
      const double v = s->value_or(t, 0.0) + 0.125;  // bitwise-new value
      db.metrics().upsert_cell(entities[i], kind, t, v);
      ++touched;
    }
  }
  return touched;
}

}  // namespace

int main() {
  bench::print_header(
      "Factor-training microbench: cross-symptom factor reuse",
      "engineering experiment (no paper figure) — batch training cost with "
      "the window-moment and factor caches off vs shared");

  enterprise::IncidentDatasetOptions opts;
  if (!bench::full_scale()) {
    opts.topology.num_apps = 8;
    opts.topology.hosts = 12;
    opts.topology.tors = 3;
    opts.topology.ports_per_tor = 8;
    opts.topology.datastores = 4;
    opts.dynamics.slices = 168;
  }
  const auto incident = enterprise::make_incident(2, opts);
  bench::stamp_workload({"enterprise-incidents", opts.topology.num_apps,
                         opts.topology.hosts, opts.seed, "incident-2"});
  const telemetry::MonitoringDb& db = incident.topo.db;
  const TimeIndex train_end = incident.incident_end;
  const TimeIndex train_begin = 0;

  // Symptom list: whatever find_symptoms flags on the incident's app at the
  // incident window — the exact shape diagnose_app feeds into a batch run.
  // Several symptoms name the same entity (one noisy VM trips cpu_util,
  // mem_util, and net_* at once), and same-entity symptoms share identical
  // relationship graphs, which is where cross-symptom reuse pays off.
  const AppId app = db.entity(incident.symptom_entity).app;
  core::SymptomFinderOptions fopts;
  fopts.max_symptoms = 32;
  const auto symptoms =
      core::find_symptoms(db, app, incident.incident_end - 1, fopts);
  std::size_t distinct = 0;
  {
    std::vector<EntityId> ents;
    for (const auto& s : symptoms) ents.push_back(s.entity);
    std::sort(ents.begin(), ents.end());
    distinct = static_cast<std::size_t>(
        std::unique(ents.begin(), ents.end()) - ents.begin());
  }
  std::printf(
      "incident 2, %zu symptoms over %zu distinct entities, window "
      "[%zu, %zu)\n\n",
      symptoms.size(), distinct, static_cast<std::size_t>(train_begin),
      static_cast<std::size_t>(train_end));

  const std::size_t reps = bench::scaled(3, 5);
  double cold_ms = 1e300, shared_ms = 1e300, warm_ms = 1e300;
  std::size_t factors = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    cold_ms = std::min(
        cold_ms, train_all(db, symptoms, train_begin, train_end, nullptr,
                           &factors));

    core::TrainingCaches caches;
    shared_ms =
        std::min(shared_ms, train_all(db, symptoms, train_begin, train_end,
                                      &caches, nullptr));
    warm_ms = std::min(warm_ms, train_all(db, symptoms, train_begin,
                                          train_end, &caches, nullptr));
    std::fprintf(stderr, "  rep %zu done\n", r + 1);
  }

  std::printf("conditionals trained per pass: %zu\n", factors);
  std::printf("cold   (no caches)      : %9.1f ms\n", cold_ms);
  std::printf("shared (first pass)     : %9.1f ms   %.1fx\n", shared_ms,
              cold_ms / shared_ms);
  std::printf("warm   (repeat pass)    : %9.1f ms   %.1fx\n", warm_ms,
              cold_ms / warm_ms);
  std::printf("\ntarget: shared >= 5x cold (this PR's acceptance bar)\n");

  auto& m = obs::global_metrics();
  m.gauge("bench.cold_ms")->set(cold_ms);
  m.gauge("bench.shared_ms")->set(shared_ms);
  m.gauge("bench.warm_ms")->set(warm_ms);
  m.gauge("bench.shared_speedup")->set(cold_ms / shared_ms);
  m.gauge("bench.warm_speedup")->set(cold_ms / warm_ms);

  // --- streaming churn ----------------------------------------------------
  // The long-running case: after ~1% of series receive a streamed value,
  // epoch keys retire only the factors whose neighborhood read a touched
  // series; the rest of the cache keeps hitting.
  std::printf("\nstreaming churn (~1%% of series written between passes):\n");
  double epoch_rate = 0.0;
  {
    telemetry::MonitoringDb churn_db = db;  // mutable copy, fresh uid
    core::TrainingCaches caches;
    train_all(churn_db, symptoms, train_begin, train_end, &caches, nullptr);
    // Every pass-1 miss is one unique factor; a pass-2 miss is a factor the
    // churn invalidated. retained = the fraction that did NOT retrain —
    // the raw hit rate would flatter it with intra-pass cross-symptom
    // reuse, which is not what invalidation granularity is about.
    const core::FactorCache& fc = caches.factors();
    const std::uint64_t unique = fc.misses();
    const std::size_t touched = churn_series(churn_db, 0.01, train_end - 1);
    const std::uint64_t h0 = fc.hits(), m0 = fc.misses();
    train_all(churn_db, symptoms, train_begin, train_end, &caches, nullptr);
    const std::uint64_t h = fc.hits() - h0, mm = fc.misses() - m0;
    epoch_rate =
        unique == 0
            ? 0.0
            : 1.0 - static_cast<double>(mm) / static_cast<double>(unique);
    std::printf("  %zu series touched, %llu unique factors\n", touched,
                static_cast<unsigned long long>(unique));
    std::printf(
        "  %5.1f%% factors retained (%llu retrained), %5.1f%% lookup hits\n",
        100.0 * epoch_rate, static_cast<unsigned long long>(mm),
        100.0 * static_cast<double>(h) / static_cast<double>(h + mm));
  }
  std::printf("\ntarget: retains >= 80%% of factors at 1%% churn\n");
  m.gauge("bench.churn_epoch_retained")->set(epoch_rate);

  bench::write_bench_json("factor_training");
  return 0;
}
