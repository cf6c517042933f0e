// Tests for the opt-in exact inference mode (DESIGN.md §11).
//
// The contract under test has three parts:
//  1. fast_inference=false stays the bitwise golden: the scalar path is
//     untouched at any thread count, and running a fast diagnosis never
//     perturbs a scalar one.
//  2. fast_inference=true is statistically equivalent (same verdicts),
//     deterministic at any thread count, reports the IDENTICAL work
//     accounting (node_resamples / kernel_cells) as scalar mode, and falls
//     back per candidate when conditionals are not flattened.
//  3. The exact kernel computes what it claims: its adjoint variance equals
//     the sum of independently propagated noise impulses, its moments match
//     the Monte-Carlo sampler's at large n, it draws no random numbers, and
//     its degenerate inputs follow the Welch test's rules.
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

ChainEnv make_chain_env(std::size_t slices = 200) {
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
  mopts.fast_inference = fast;
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
  // node_resamples / kernel_cells are a function of the request, never of
  // the execution mode: the lane-batched kernel resamples the same
  // (sample, round, variable) grid as the scalar loop.
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
  // Mode provenance: every evaluated candidate took the fast path (all
  // conditionals are ridge here), and the scalar run never registers the
  // fast counters in the first place.
  EXPECT_GT(fast_reg.counter("infer.fast_path")->value(), 0u);
  EXPECT_EQ(fast_reg.counter("infer.fast_fallback")->value(), 0u);
}

// ---------- fallback -------------------------------------------------------

TEST(FastInference, FallsBackPerCandidateForNonFlatModels) {
  // GMM conditionals cannot be flattened into the SoA kernel, so every
  // candidate must take the scalar fallback — and still produce a result.
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

  ChainCandidate(const ChainEnv& env, TimeIndex train_end)
      : g(graph::RelationshipGraph::build(env.db, std::vector<EntityId>{env.d},
                                          4)),
        space(env.db, g),
        state(space.snapshot(env.db, 199)),
        factors(env.db, g, space, 0, train_end,
                core::FactorTrainingOptions{}),
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
    mopts.fast_inference = fast;
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
  // sigma 0 (DESIGN.md §8): both sides are constants, and the verdict must
  // be Welch's constant-sample rule — the scalar path's, bit for bit.
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
    EXPECT_EQ(exact.mean_counterfactual, scalar.mean_counterfactual);
    EXPECT_EQ(exact.mean_factual, scalar.mean_factual);
  }
}

TEST(ExactInference, NonFiniteStateGivesNeutralVerdict) {
  const auto env = make_chain_env();
  ChainCandidate cc(env, 200);
  cc.state[cc.a_var] = std::numeric_limits<double>::quiet_NaN();
  obs::Counter* degenerate =
      obs::global_metrics().counter("stats.ttest_degenerate");
  const std::uint64_t before = degenerate->value();
  const auto verdict = cc.evaluate(exact_options());
  ASSERT_TRUE(verdict.fast_path);
  EXPECT_EQ(verdict.p_value, 0.5);
  EXPECT_FALSE(verdict.is_root_cause);
  EXPECT_EQ(degenerate->value(), before + 1);
}

}  // namespace
}  // namespace murphy
