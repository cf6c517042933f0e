// Tests for the inference kernels: the opt-in exact mode (DESIGN.md §11)
// and the scalar live-step loop (§11.1).
//
// The contract under test has four parts:
//  1. fast_inference=false stays the bitwise golden: the scalar path is
//     untouched at any thread count, and running a fast diagnosis never
//     perturbs a scalar one.
//  2. fast_inference=true is statistically equivalent (same verdicts),
//     deterministic at any thread count, reports the IDENTICAL work
//     accounting (node_resamples / kernel_cells / live_cells) as scalar
//     mode, and falls back per candidate when conditionals are not
//     flattened.
//  3. The exact kernel computes what it claims: its adjoint variance equals
//     the sum of independently propagated noise impulses, its moments match
//     the Monte-Carlo sampler's at large n, it draws no random numbers, and
//     its degenerate inputs follow the Welch test's rules.
//  4. The scalar live-step loop (DESIGN.md §11.1) is bitwise the plain
//     resampler: resample_path() over a fresh state copy per sample, drawing
//     from the same per-candidate stream.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/murphy.h"
#include "src/core/sampler.h"
#include "src/obs/metrics.h"
#include "src/stats/summary.h"
#include "src/stats/ttest.h"

namespace murphy {
namespace {

using telemetry::ConfigEvent;
using telemetry::ConfigEventKind;
using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// ---------- end-to-end fixture ---------------------------------------------

// Chain A -> B -> C -> D with a late surge at A propagating to the symptom
// at D (same construction as concurrency_test.cpp, so results here are
// comparable to the determinism suite's expectations).
struct ChainEnv {
  MonitoringDb db;
  EntityId a, b, c, d;
  MetricKindId load;
};

ChainEnv make_chain_env(std::size_t slices = 200, bool directed = false) {
  ChainEnv e;
  e.a = e.db.add_entity(EntityType::kVm, "A");
  e.b = e.db.add_entity(EntityType::kVm, "B");
  e.c = e.db.add_entity(EntityType::kVm, "C");
  e.d = e.db.add_entity(EntityType::kVm, "D");
  e.db.add_association(e.a, e.b, RelationKind::kGeneric, directed);
  e.db.add_association(e.b, e.c, RelationKind::kGeneric, directed);
  e.db.add_association(e.c, e.d, RelationKind::kGeneric, directed);
  e.load = e.db.catalog().intern("cpu_util");
  e.db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  Rng rng(11);
  std::vector<double> va(slices), vb(slices), vc(slices), vd(slices);
  for (std::size_t t = 0; t < slices; ++t) {
    const double surge = t + 20 >= slices ? 14.0 : 0.0;
    va[t] = 6.0 + 2.0 * std::sin(0.07 * t) + rng.normal(0.0, 0.3) + surge;
    vb[t] = 1.6 * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.2 * vb[t] + rng.normal(0.0, 0.4);
    vd[t] = 1.1 * vc[t] + rng.normal(0.0, 0.4);
  }
  e.db.metrics().put(e.a, e.load, va);
  e.db.metrics().put(e.b, e.load, vb);
  e.db.metrics().put(e.c, e.load, vc);
  e.db.metrics().put(e.d, e.load, vd);
  e.db.config_events().record(
      ConfigEvent{ConfigEventKind::kResourcesResized, e.b, slices - 5,
                  "vCPU 4 -> 8"});
  return e;
}

core::DiagnosisResult diagnose_chain(const ChainEnv& env, bool fast,
                                     std::size_t num_threads,
                                     obs::MetricsRegistry* metrics = nullptr,
                                     stats::ModelKind model =
                                         stats::ModelKind::kRidge) {
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 120;
  mopts.num_threads = num_threads;
  mopts.sampler.fast_inference = fast;
  mopts.training.model = model;
  mopts.obs.metrics = metrics;
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &env.db;
  req.symptom_entity = env.d;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  return murphy.diagnose(req);
}

void expect_bitwise_equal(const core::DiagnosisResult& x,
                          const core::DiagnosisResult& y) {
  ASSERT_EQ(x.causes.size(), y.causes.size());
  for (std::size_t i = 0; i < x.causes.size(); ++i) {
    EXPECT_EQ(x.causes[i].entity, y.causes[i].entity) << "rank " << i;
    EXPECT_EQ(x.causes[i].score, y.causes[i].score) << "rank " << i;
  }
  ASSERT_EQ(x.explanations.size(), y.explanations.size());
  for (std::size_t i = 0; i < x.explanations.size(); ++i)
    EXPECT_EQ(x.explanations[i], y.explanations[i]) << "rank " << i;
}

// ---------- scalar golden unperturbed --------------------------------------

TEST(FastInference, ScalarGoldenUnchangedByFastRunsAndThreads) {
  const auto env = make_chain_env();
  const auto scalar1 = diagnose_chain(env, /*fast=*/false, 1);
  ASSERT_FALSE(scalar1.causes.empty());

  // A fast diagnosis in between must not perturb subsequent scalar runs
  // (no shared mutable state, no global RNG).
  const auto fast = diagnose_chain(env, /*fast=*/true, 1);
  ASSERT_FALSE(fast.causes.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(scalar1, diagnose_chain(env, /*fast=*/false,
                                                 threads));
  }
}

TEST(FastInference, FastModeDeterministicAcrossThreadCounts) {
  const auto env = make_chain_env();
  const auto serial = diagnose_chain(env, /*fast=*/true, 1);
  ASSERT_FALSE(serial.causes.empty());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(serial, diagnose_chain(env, /*fast=*/true, threads));
  }
}

TEST(FastInference, VerdictAgreesWithScalar) {
  // Statistical-equivalence smoke: same ranked entities in the same order
  // (scores may differ within noise; the bench gate t-tests those).
  const auto env = make_chain_env();
  const auto scalar = diagnose_chain(env, /*fast=*/false, 1);
  const auto fast = diagnose_chain(env, /*fast=*/true, 1);
  ASSERT_FALSE(scalar.causes.empty());
  ASSERT_EQ(scalar.causes.size(), fast.causes.size());
  for (std::size_t i = 0; i < scalar.causes.size(); ++i)
    EXPECT_EQ(scalar.causes[i].entity, fast.causes[i].entity) << "rank " << i;
}

// ---------- work accounting ------------------------------------------------

TEST(FastInference, WorkCountersIdenticalAcrossModes) {
  // node_resamples / kernel_cells / live_cells are a function of the
  // request, never of the execution mode: the exact path reports the
  // nominal (sample, round, variable) grid of the scalar loop, and the live
  // subset comes from the same structural liveness pass.
  const auto env = make_chain_env();
  const std::vector<EntityId> seeds{env.d};
  const auto g = graph::RelationshipGraph::build(env.db, seeds, 4);
  const core::MetricSpace space(env.db, g);
  const auto state = space.snapshot(env.db, 199);
  const core::FactorSet factors(env.db, g, space, 0, 200,
                                core::FactorTrainingOptions{});

  const auto a_var = space.find(env.a, env.load);
  const auto d_var = space.find(env.d, env.load);
  ASSERT_TRUE(a_var.has_value());
  ASSERT_TRUE(d_var.has_value());
  const auto a_node = space.var(*a_var).node;
  const auto d_node = space.var(*d_var).node;

  core::SamplerOptions sopts;
  sopts.num_samples = 120;
  auto run = [&](bool fast) {
    sopts.fast_inference = fast;
    const core::CounterfactualSampler sampler(g, space, factors, sopts);
    Rng rng(mix_seed(99, 1));
    return sampler.evaluate(a_node, *a_var, d_node, *d_var, state,
                            /*symptom_high=*/true, rng);
  };
  const auto scalar = run(false);
  const auto fast = run(true);

  EXPECT_FALSE(scalar.fast_path);
  EXPECT_TRUE(fast.fast_path);  // the chain is all-ridge: no fallback
  EXPECT_GT(scalar.node_resamples, 0u);
  EXPECT_GT(scalar.kernel_cells, 0u);
  EXPECT_EQ(scalar.path_len, fast.path_len);
  EXPECT_EQ(scalar.node_resamples, fast.node_resamples);
  EXPECT_EQ(scalar.kernel_cells, fast.kernel_cells);
  EXPECT_GT(scalar.live_cells, 0u);
  EXPECT_LE(scalar.live_cells, scalar.kernel_cells);
  EXPECT_EQ(scalar.live_cells, fast.live_cells);
  // Both verdicts must agree on the clear-cut root cause.
  EXPECT_EQ(scalar.is_root_cause, fast.is_root_cause);
}

TEST(FastInference, RegistryCountersIdenticalAcrossModes) {
  const auto env = make_chain_env();
  obs::MetricsRegistry scalar_reg, fast_reg;
  (void)diagnose_chain(env, /*fast=*/false, 1, &scalar_reg);
  (void)diagnose_chain(env, /*fast=*/true, 1, &fast_reg);

  const auto scalar_resamples =
      scalar_reg.counter("infer.gibbs_node_resamples")->value();
  const auto fast_resamples =
      fast_reg.counter("infer.gibbs_node_resamples")->value();
  EXPECT_GT(scalar_resamples, 0u);
  EXPECT_EQ(scalar_resamples, fast_resamples);
  EXPECT_EQ(scalar_reg.counter("infer.kernel_cells")->value(),
            fast_reg.counter("infer.kernel_cells")->value());
  EXPECT_EQ(scalar_reg.counter("infer.live_cells")->value(),
            fast_reg.counter("infer.live_cells")->value());
  // Mode provenance: every evaluated candidate took the fast path (all
  // conditionals are ridge here), and the scalar run never registers the
  // fast counters in the first place.
  EXPECT_GT(fast_reg.counter("infer.fast_path")->value(), 0u);
  EXPECT_EQ(fast_reg.counter("infer.fast_fallback")->value(), 0u);
}

TEST(FastInference, SamplerSwitchReachesTheDiagnoser) {
  // sampler.fast_inference is the one switch for the mode: the diagnoser
  // must run the exact path as configured, not reset the field.
  const auto env = make_chain_env();
  obs::MetricsRegistry reg;
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 120;
  mopts.sampler.fast_inference = true;
  mopts.obs.metrics = &reg;
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &env.db;
  req.symptom_entity = env.d;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  EXPECT_FALSE(murphy.diagnose(req).causes.empty());
  EXPECT_GT(reg.counter("infer.fast_path")->value(), 0u);
}

// ---------- fallback -------------------------------------------------------

TEST(FastInference, FallsBackPerCandidateForNonFlatModels) {
  // GMM conditionals cannot be flattened into SampleKernel, so the exact
  // path never applies: every candidate must take the scalar fallback —
  // and still produce a result.
  const auto env = make_chain_env();
  obs::MetricsRegistry reg;
  const auto result = diagnose_chain(env, /*fast=*/true, 1, &reg,
                                     stats::ModelKind::kGmm);
  EXPECT_FALSE(result.causes.empty());
  EXPECT_EQ(reg.counter("infer.fast_path")->value(), 0u);
  EXPECT_GT(reg.counter("infer.fast_fallback")->value(), 0u);

  // The fallback must be the bitwise scalar path: a plain scalar GMM run
  // matches exactly.
  const auto scalar = diagnose_chain(env, /*fast=*/false, 1, nullptr,
                                     stats::ModelKind::kGmm);
  expect_bitwise_equal(scalar, result);
}

// ---------- the exact kernel ----------------------------------------------

// One candidate of the chain fixture, set up for direct sampler calls: the
// injected root cause A against the symptom at D.
struct ChainCandidate {
  graph::RelationshipGraph g;
  core::MetricSpace space;
  std::vector<double> state;
  core::FactorSet factors;
  core::VarIndex a_var, d_var;
  graph::NodeIndex a_node, d_node;

  ChainCandidate(const ChainEnv& env, TimeIndex train_end,
                 stats::ModelKind model = stats::ModelKind::kRidge)
      : g(graph::RelationshipGraph::build(env.db, std::vector<EntityId>{env.d},
                                          4)),
        space(env.db, g),
        state(space.snapshot(env.db, 199)),
        factors(env.db, g, space, 0, train_end,
                core::FactorTrainingOptions{.model = model}),
        a_var(*space.find(env.a, env.load)),
        d_var(*space.find(env.d, env.load)),
        a_node(space.var(a_var).node),
        d_node(space.var(d_var).node) {}

  core::CounterfactualVerdict evaluate(core::SamplerOptions sopts,
                                       bool symptom_high = true) const {
    const core::CounterfactualSampler sampler(g, space, factors, sopts);
    Rng rng(mix_seed(99, 1));
    return sampler.evaluate(a_node, a_var, d_node, d_var, state, symptom_high,
                            rng);
  }

  // The variables the sampler resamples, in update order.
  std::vector<core::VarIndex> order(const core::SamplerOptions& sopts) const {
    std::vector<core::VarIndex> out;
    const auto path = g.shortest_path_subgraph(a_node, d_node,
                                               sopts.path_slack);
    for (std::size_t i = 1; i < path.size(); ++i)
      for (const core::VarIndex v : space.vars_of(path[i])) out.push_back(v);
    return out;
  }
};

core::SamplerOptions exact_options(std::size_t num_samples = 120) {
  core::SamplerOptions sopts;
  sopts.num_samples = num_samples;
  sopts.fast_inference = true;
  return sopts;
}

TEST(ExactInference, AdjointVarianceMatchesForwardImpulses) {
  // Independent check of the reverse sweep: inject unit noise at each
  // (round, variable) update of the homogeneous linear system, propagate it
  // forward through the remaining updates, read the change in d, and sum
  // (lambda * sigma)^2.
  const auto env = make_chain_env();
  const ChainCandidate cc(env, 200);
  const auto sopts = exact_options();
  const auto verdict = cc.evaluate(sopts);
  ASSERT_TRUE(verdict.fast_path);

  const core::SampleKernel& k = cc.factors.kernel();
  const auto order = cc.order(sopts);
  ASSERT_GE(order.size(), 3u);  // B, C, D
  double impulse_var = 0.0;
  for (std::size_t r0 = 0; r0 < sopts.gibbs_rounds; ++r0) {
    for (std::size_t j0 = 0; j0 < order.size(); ++j0) {
      std::vector<double> c(cc.space.size(), 0.0);
      for (std::size_t r = 0; r < sopts.gibbs_rounds; ++r) {
        for (std::size_t j = 0; j < order.size(); ++j) {
          const auto& e = k.vars[order[j]];
          double x = 0.0;
          for (std::uint32_t s = e.begin; s < e.begin + e.count; ++s)
            x += k.w[s] * c[k.feat[s]] / k.fscale[s];
          if (r == r0 && j == j0) x += 1.0;
          c[order[j]] = x;
        }
      }
      const double lambda_sigma = c[cc.d_var] * k.vars[order[j0]].sigma;
      impulse_var += lambda_sigma * lambda_sigma;
    }
  }
  ASSERT_GT(impulse_var, 0.0);
  EXPECT_NEAR(verdict.variance, impulse_var, 1e-12 * impulse_var);
}

TEST(ExactInference, MomentsMatchScalarSamplerAtLargeN) {
  constexpr std::size_t kN = 20000;
  const auto env = make_chain_env();
  const ChainCandidate cc(env, 200);
  auto sopts = exact_options(kN);
  const auto exact = cc.evaluate(sopts);
  sopts.fast_inference = false;
  const auto scalar = cc.evaluate(sopts);
  ASSERT_TRUE(exact.fast_path);
  ASSERT_FALSE(scalar.fast_path);
  ASSERT_GT(exact.variance, 0.0);

  // Means: the scalar verdict's empirical means over kN chains per side.
  const double se_mean = std::sqrt(exact.variance / kN);
  EXPECT_NEAR(scalar.mean_counterfactual, exact.mean_counterfactual,
              4.0 * se_mean);
  EXPECT_NEAR(scalar.mean_factual, exact.mean_factual, 4.0 * se_mean);

  // Variance: kN factual chains through the raw (virtual-dispatch)
  // resampler; a Gaussian sample variance has stderr V * sqrt(2 / (n - 1)).
  const core::CounterfactualSampler sampler(cc.g, cc.space, cc.factors, sopts);
  const auto path = cc.g.shortest_path_subgraph(cc.a_node, cc.d_node,
                                                sopts.path_slack);
  Rng rng(7);
  std::vector<double> d2;
  std::vector<double> work;
  for (std::size_t s = 0; s < kN; ++s) {
    work = cc.state;
    d2.push_back(sampler.resample_path(path, cc.d_var, work, rng,
                                       sopts.gibbs_rounds));
  }
  const double se_var = exact.variance * std::sqrt(2.0 / (kN - 1));
  EXPECT_NEAR(stats::variance(d2), exact.variance, 4.0 * se_var);
  EXPECT_NEAR(stats::mean(d2), exact.mean_factual, 4.0 * se_mean);
}

TEST(ExactInference, SeedDoesNotChangeExactResults) {
  // The exact path draws no random numbers: two diagnoser seeds give
  // bitwise-equal verdicts, while the scalar path's verdicts move.
  const auto env = make_chain_env();
  auto audit_of = [&](bool fast, std::uint64_t seed) {
    core::MurphyOptions mopts;
    mopts.sampler.num_samples = 120;
    mopts.sampler.fast_inference = fast;
    mopts.seed = seed;
    mopts.num_threads = 1;
    mopts.obs.collect_audit = true;
    core::MurphyDiagnoser murphy(mopts);
    core::DiagnosisRequest req;
    req.db = &env.db;
    req.symptom_entity = env.d;
    req.symptom_metric = "cpu_util";
    req.now = 199;
    req.train_begin = 0;
    req.train_end = 200;
    return murphy.diagnose(req).audit.candidates;
  };
  const auto fast1 = audit_of(true, 1);
  const auto fast2 = audit_of(true, 0xC0FFEE);
  ASSERT_FALSE(fast1.empty());
  ASSERT_EQ(fast1.size(), fast2.size());
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < fast1.size(); ++i) {
    EXPECT_EQ(fast1[i].entity, fast2[i].entity);
    EXPECT_EQ(fast1[i].p_value, fast2[i].p_value) << "candidate " << i;
    EXPECT_EQ(fast1[i].mean_factual, fast2[i].mean_factual);
    EXPECT_EQ(fast1[i].mean_counterfactual, fast2[i].mean_counterfactual);
    EXPECT_EQ(fast1[i].accepted, fast2[i].accepted);
    if (fast1[i].evaluated) ++evaluated;
  }
  EXPECT_GT(evaluated, 0u);

  // The seed does reach the sampler: the Monte-Carlo means move with it.
  const auto scalar1 = audit_of(false, 1);
  const auto scalar2 = audit_of(false, 0xC0FFEE);
  ASSERT_EQ(scalar1.size(), scalar2.size());
  bool moved = false;
  for (std::size_t i = 0; i < scalar1.size(); ++i)
    moved = moved || scalar1[i].mean_factual != scalar2[i].mean_factual;
  EXPECT_TRUE(moved);
}

TEST(ExactInference, ZeroSigmaFollowsConstantSampleRule) {
  // An empty training window trains flat hist-mean conditionals with
  // sigma 0 (DESIGN.md §8): both sides are the same constant, and the
  // verdict must be Welch's constant-sample rule — the scalar path's, bit
  // for bit. Equal constants are no evidence, so neither symptom direction
  // may implicate the candidate.
  const auto env = make_chain_env();
  const ChainCandidate cc(env, /*train_end=*/0);
  for (const bool high : {true, false}) {
    SCOPED_TRACE(high ? "symptom high" : "symptom low");
    auto sopts = exact_options();
    const auto exact = cc.evaluate(sopts, high);
    sopts.fast_inference = false;
    const auto scalar = cc.evaluate(sopts, high);
    ASSERT_TRUE(exact.fast_path);
    EXPECT_EQ(exact.variance, 0.0);
    const std::vector<double> d1(sopts.num_samples, exact.mean_counterfactual);
    const std::vector<double> d2(sopts.num_samples, exact.mean_factual);
    const double p_less = stats::welch_t_test(d1, d2).p_less;
    EXPECT_EQ(exact.p_value, high ? p_less : 1.0 - p_less);
    EXPECT_EQ(exact.p_value, scalar.p_value);
    EXPECT_EQ(exact.is_root_cause, scalar.is_root_cause);
    EXPECT_FALSE(exact.is_root_cause);
    EXPECT_FALSE(scalar.is_root_cause);
    EXPECT_EQ(exact.mean_counterfactual, scalar.mean_counterfactual);
    EXPECT_EQ(exact.mean_factual, scalar.mean_factual);
  }
}

TEST(ExactInference, NonFiniteStateGivesNeutralVerdict) {
  const auto env = make_chain_env();
  ChainCandidate cc(env, 200);
  cc.state[cc.a_var] = std::numeric_limits<double>::quiet_NaN();
  const auto verdict = cc.evaluate(exact_options());
  ASSERT_TRUE(verdict.fast_path);
  EXPECT_EQ(verdict.p_value, 0.5);
  EXPECT_FALSE(verdict.is_root_cause);
  EXPECT_TRUE(verdict.ttest_degenerate);
}

// ---------- the scalar live-step loop -------------------------------------

// The chain fixture plus the shapes the liveness pass must handle:
//  - a constant "mem_util" series on A and on C. A constant column
//    correlates with nothing, so these variables are nobody's feature: C's
//    is a resampled variable whose updates never reach D (dead steps), and
//    A's is a driver whose counterfactual cannot reach D;
//  - a side branch A -> X -> S -> D of directed edges. X's series is
//    constant, so S (whose only candidate feature is X) trains a
//    feature-less flat conditional; S tracks D, so D reads it. Under a
//    non-flat family, S is a flat step that only a non-flat step reads;
//  - a second metric on D that tracks the symptom metric. It is resampled
//    after it in every round: its last-round update is dead, its earlier
//    ones feed the symptom metric's next round.
ChainEnv make_live_step_env(EntityId* side = nullptr) {
  ChainEnv e = make_chain_env();
  const MetricKindId mem = e.db.catalog().intern("mem_util");
  e.db.metrics().put(e.a, mem, std::vector<double>(200, 40.0));
  e.db.metrics().put(e.c, mem, std::vector<double>(200, 55.0));

  const EntityId x = e.db.add_entity(EntityType::kVm, "X");
  const EntityId s = e.db.add_entity(EntityType::kVm, "S");
  e.db.add_association(e.a, x, RelationKind::kGeneric, /*directed=*/true);
  e.db.add_association(x, s, RelationKind::kGeneric, /*directed=*/true);
  e.db.add_association(s, e.d, RelationKind::kGeneric, /*directed=*/true);
  e.db.metrics().put(x, e.load, std::vector<double>(200, 3.0));
  const auto* td = e.db.metrics().find(e.d, e.load);
  Rng rng(5);
  std::vector<double> vs(200);
  for (TimeIndex t = 0; t < 200; ++t)
    vs[t] = 0.5 * td->value_or(t, 0.0) + rng.normal(0.0, 0.5);
  e.db.metrics().put(s, e.load, vs);

  std::vector<double> vm(200);
  for (TimeIndex t = 0; t < 200; ++t)
    vm[t] = 0.8 * td->value_or(t, 0.0) + rng.normal(0.0, 0.5);
  e.db.metrics().put(e.d, mem, vm);
  if (side != nullptr) *side = s;
  return e;
}

bool is_feature_anywhere(const core::FactorSet& factors, core::VarIndex f) {
  for (core::VarIndex v = 0; v < factors.size(); ++v)
    for (const core::VarIndex g : factors.conditional(v).features())
      if (g == f) return true;
  return false;
}

// What the scalar loop must reproduce bit for bit: per sample, one
// counterfactual then one factual resample_path() over a fresh copy of the
// state, drawing from one per-candidate stream, then the Welch test.
struct Reference {
  double p_value, mean_factual, mean_counterfactual;
};

Reference reference_verdict(const ChainCandidate& cc, core::VarIndex a_var,
                            const core::SamplerOptions& sopts,
                            bool symptom_high) {
  const core::MetricConditional& a_cond = cc.factors.conditional(a_var);
  const double a_now = cc.state[a_var];
  const double sigma = std::max(a_cond.hist_sigma(), 1e-6);
  const double a_cf = a_now + (a_now >= a_cond.robust_center() ? -1.0 : 1.0) *
                                  sopts.counterfactual_sigmas * sigma;
  const core::CounterfactualSampler sampler(cc.g, cc.space, cc.factors, sopts);
  const auto path = cc.g.shortest_path_subgraph(cc.a_node, cc.d_node,
                                                sopts.path_slack);
  Rng rng(mix_seed(99, 1));
  std::vector<double> d1, d2, work;
  for (std::size_t s = 0; s < sopts.num_samples; ++s) {
    work = cc.state;
    work[a_var] = a_cf;
    d1.push_back(sampler.resample_path(path, cc.d_var, work, rng,
                                       sopts.gibbs_rounds));
    work = cc.state;
    d2.push_back(sampler.resample_path(path, cc.d_var, work, rng,
                                       sopts.gibbs_rounds));
  }
  const double p_less = stats::welch_t_test(d1, d2).p_less;
  return {symptom_high ? p_less : 1.0 - p_less, stats::mean(d2),
          stats::mean(d1)};
}

void expect_matches_reference(const ChainCandidate& cc, core::VarIndex a_var) {
  core::SamplerOptions sopts;
  sopts.num_samples = 60;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const bool high : {true, false}) {
    SCOPED_TRACE(high ? "symptom high" : "symptom low");
    const core::CounterfactualSampler sampler(cc.g, cc.space, cc.factors,
                                              sopts);
    Rng rng(mix_seed(99, 1));
    const auto got = sampler.evaluate(cc.a_node, a_var, cc.d_node, cc.d_var,
                                      cc.state, high, rng);
    ASSERT_GT(got.path_len, 0u);
    EXPECT_FALSE(got.fast_path);
    EXPECT_LE(got.live_cells, got.kernel_cells);
    const Reference want = reference_verdict(cc, a_var, sopts, high);
    EXPECT_EQ(bits(got.p_value), bits(want.p_value));
    EXPECT_EQ(bits(got.mean_factual), bits(want.mean_factual));
    EXPECT_EQ(bits(got.mean_counterfactual), bits(want.mean_counterfactual));
  }
}

TEST(ScalarLiveSteps, ReachingCandidateMatchesPlainResampler) {
  const auto env = make_live_step_env();
  const ChainCandidate cc(env, 200);
  // C's idle metric is resampled every round, and no live step reads it.
  const auto c_idle = cc.space.find(env.c, env.db.catalog().find("mem_util"));
  ASSERT_TRUE(c_idle.has_value());
  ASSERT_FALSE(is_feature_anywhere(cc.factors, *c_idle));
  ASSERT_TRUE(is_feature_anywhere(cc.factors, cc.a_var));
  expect_matches_reference(cc, cc.a_var);
}

TEST(ScalarLiveSteps, UnreachingCandidateMatchesPlainResampler) {
  // The counterfactual sits on A's idle metric, which no step reads: every
  // step that reaches D is blind to it, yet the draws must still line up.
  const auto env = make_live_step_env();
  const ChainCandidate cc(env, 200);
  const auto a_idle = cc.space.find(env.a, env.db.catalog().find("mem_util"));
  ASSERT_TRUE(a_idle.has_value());
  ASSERT_EQ(cc.space.var(*a_idle).node, cc.a_node);
  ASSERT_FALSE(is_feature_anywhere(cc.factors, *a_idle));
  expect_matches_reference(cc, *a_idle);
}

// Independent of the backward pass: on an all-flat path, step (r, j) is
// live iff a unit impulse injected there reaches d's final value when
// propagated forward through the remaining updates.
void expect_live_cells_match_impulses(const ChainCandidate& cc) {
  core::SamplerOptions sopts;
  sopts.num_samples = 10;
  const core::SampleKernel& k = cc.factors.kernel();
  const auto order = cc.order(sopts);
  for (const core::VarIndex v : order) ASSERT_TRUE(k.vars[v].flat);
  std::size_t live = 0, nominal = 0, dead_steps = 0;
  for (std::size_t r0 = 0; r0 < sopts.gibbs_rounds; ++r0) {
    for (std::size_t j0 = 0; j0 < order.size(); ++j0) {
      std::vector<double> c(cc.space.size(), 0.0);
      for (std::size_t r = r0; r < sopts.gibbs_rounds; ++r) {
        for (std::size_t j = r == r0 ? j0 : 0; j < order.size(); ++j) {
          const auto& e = k.vars[order[j]];
          double x = r == r0 && j == j0 ? 1.0 : 0.0;
          for (std::uint32_t f = e.begin; f < e.begin + e.count; ++f)
            x += k.w[f] * c[k.feat[f]] / k.fscale[f];
          c[order[j]] = x;
        }
      }
      const std::size_t cells = k.vars[order[j0]].count;
      nominal += cells;
      if (c[cc.d_var] != 0.0) {
        live += cells;
      } else {
        ++dead_steps;
      }
    }
  }
  ASSERT_GT(dead_steps, 0u);
  ASSERT_LT(live, nominal);
  const auto verdict = cc.evaluate(sopts);
  EXPECT_EQ(verdict.kernel_cells, 2 * sopts.num_samples * nominal);
  EXPECT_EQ(verdict.live_cells, 2 * sopts.num_samples * live);
}

TEST(ScalarLiveSteps, LiveCellsAreTheStepsWhoseNoiseReachesD) {
  {
    SCOPED_TRACE("live-step fixture");
    const auto env = make_live_step_env();
    const ChainCandidate cc(env, 200);
    // D's second metric is resampled after the symptom metric.
    ASSERT_NE(cc.order(core::SamplerOptions{}).back(), cc.d_var);
    expect_live_cells_match_impulses(cc);
  }
  {
    // A one-way chain: nothing reads D, so each round's write to it hides
    // the previous one, and only the last is live.
    SCOPED_TRACE("directed chain");
    const auto env = make_chain_env(200, /*directed=*/true);
    const ChainCandidate cc(env, 200);
    expect_live_cells_match_impulses(cc);
  }
}

TEST(ScalarLiveSteps, NonFlatPathMatchesPlainResampler) {
  // GMM conditionals are not flattened: they run through
  // MetricConditional::sample and are always live. Between them, C's idle
  // metric (no features, so a flat hist-mean conditional) stays dead, and
  // S's flat conditional is live only because non-flat D reads it.
  EntityId side;
  const auto env = make_live_step_env(&side);
  const ChainCandidate cc(env, 200, stats::ModelKind::kGmm);
  const core::SampleKernel& k = cc.factors.kernel();
  ASSERT_FALSE(k.vars[cc.d_var].flat);
  const auto c_idle = cc.space.find(env.c, env.db.catalog().find("mem_util"));
  ASSERT_TRUE(c_idle.has_value());
  ASSERT_TRUE(k.vars[*c_idle].flat);
  ASSERT_FALSE(is_feature_anywhere(cc.factors, *c_idle));
  const auto s_var = cc.space.find(side, env.load);
  ASSERT_TRUE(s_var.has_value());
  ASSERT_TRUE(k.vars[*s_var].flat);
  const auto d_feats = cc.factors.conditional(cc.d_var).features();
  ASSERT_NE(std::find(d_feats.begin(), d_feats.end(), *s_var), d_feats.end());
  const auto path = cc.g.shortest_path_subgraph(cc.a_node, cc.d_node, 2);
  ASSERT_NE(std::find(path.begin(), path.end(), cc.space.var(*s_var).node),
            path.end());
  expect_matches_reference(cc, cc.a_var);
}

}  // namespace
}  // namespace murphy
