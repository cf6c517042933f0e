// Statistical-equivalence gate for the exact fast-inference mode
// (DESIGN.md §11).
//
// The fast path abandons the bitwise contract (it computes the closed-form
// n -> infinity limit of the scalar sampler's estimator instead of drawing
// samples), so its correctness claim is statistical: on the same workloads
// it must produce the same DIAGNOSES. This harness runs Murphy
// scalar-vs-fast over (a) the Table-1 enterprise incidents and (b) a
// battle-matrix smoke slice of generated topology cases, and enforces three
// gates:
//   1. identical top-1 root cause per case;
//   2. identical top-3 ranking per case;
//   3. a two-sided Welch t-test over the per-candidate counterfactual score
//      deltas (mean_cf - mean_factual, collected from the audit trails of
//      both modes) must NOT reject equality at alpha = 0.01.
// Any violated gate exits non-zero, which is what CI keys on.
//
// Borderline candidates — those whose acceptance p-value lands inside
// [alpha/20, 20*alpha] in EITHER mode — are excluded from the top-1/top-3
// identity checks. A candidate whose true p sits at the significance
// threshold flips verdicts under ANY stream change (a reseeded scalar run
// flips the same incidents; measured here before the band was added), so
// gating on it would only measure RNG coincidence. A systematic kernel bias
// still fails: it moves p-values of NON-borderline candidates across the
// threshold and shifts the paired score deltas the t-test watches. The
// exclusions themselves are gated where they bite: borderline entities that
// reach an unfiltered top-3 must average at most one per case, so the band
// cannot silently swallow the ranking comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/emulation/topo_gen.h"
#include "src/enterprise/incidents.h"
#include "src/eval/runner.h"
#include "src/eval/tables.h"
#include "src/stats/ttest.h"

using namespace murphy;

namespace {

// The acceptance test runs at alpha = 0.01 (SamplerOptions::significance).
// A t-statistic re-estimated on a fresh stream moves by ~N(0,1); this band
// covers estimates within about one sigma of the acceptance threshold
// (t in [0.8, 3.3]), whose verdicts are stream-coin-flips.
constexpr double kBorderlineLo = 0.0005;  // alpha / 20
constexpr double kBorderlineHi = 0.2;     // alpha * 20

struct GateStats {
  std::size_t cases = 0;
  std::size_t top1_mismatch = 0;
  std::size_t top3_mismatch = 0;
  std::size_t borderline = 0;       // candidates excluded from top-k identity
  std::size_t top3_borderline = 0;  // ...of those, ones an unfiltered top-3
                                    // would have contained (the gated count)
  // Paired per-candidate counterfactual deltas, one entry per (case,
  // candidate) that both modes evaluated.
  std::vector<double> scalar_scores;
  std::vector<double> fast_scores;
};

// Runs one request through both diagnosers and scores the agreement.
void compare_case(core::MurphyDiagnoser& scalar, core::MurphyDiagnoser& fast,
                  const core::DiagnosisRequest& req, const std::string& name,
                  GateStats& gs) {
  const auto rs = scalar.diagnose(req);
  const auto rf = fast.diagnose(req);
  ++gs.cases;

  // Entities whose verdict is borderline in either mode (see file comment).
  std::vector<std::uint32_t> borderline;
  auto collect_borderline = [&](const core::DiagnosisResult& r) {
    for (const auto& c : r.audit.candidates)
      if (c.evaluated && !c.self_symptom && c.p_value >= kBorderlineLo &&
          c.p_value <= kBorderlineHi)
        borderline.push_back(c.entity.value());
  };
  collect_borderline(rs);
  collect_borderline(rf);
  std::sort(borderline.begin(), borderline.end());
  borderline.erase(std::unique(borderline.begin(), borderline.end()),
                   borderline.end());
  gs.borderline += borderline.size();

  auto top = [&](const core::DiagnosisResult& r, std::size_t k) {
    std::vector<std::uint32_t> ids;
    for (const auto& cause : r.causes) {
      if (ids.size() >= k) break;
      const std::uint32_t id = cause.entity.value();
      if (std::binary_search(borderline.begin(), borderline.end(), id))
        continue;
      ids.push_back(id);
    }
    return ids;
  };
  // How much would the band have eaten from an unfiltered top-3?
  std::vector<std::uint32_t> eaten;
  for (const auto* r : {&rs, &rf})
    for (std::size_t i = 0; i < r->causes.size() && i < 3; ++i) {
      const std::uint32_t id = r->causes[i].entity.value();
      if (std::binary_search(borderline.begin(), borderline.end(), id))
        eaten.push_back(id);
    }
  std::sort(eaten.begin(), eaten.end());
  eaten.erase(std::unique(eaten.begin(), eaten.end()), eaten.end());
  gs.top3_borderline += eaten.size();
  const bool top1_ok = top(rs, 1) == top(rf, 1);
  const bool top3_ok = top(rs, 3) == top(rf, 3);
  if (!top1_ok) ++gs.top1_mismatch;
  if (!top3_ok) ++gs.top3_mismatch;
  if (!top1_ok || !top3_ok) {
    std::printf("  MISMATCH %s: top1 %s top3 %s (scalar %zu causes, fast "
                "%zu)\n",
                name.c_str(), top1_ok ? "ok" : "DIFF",
                top3_ok ? "ok" : "DIFF", rs.causes.size(), rf.causes.size());
    auto p_of = [](const core::DiagnosisResult& r, std::uint32_t id) {
      for (const auto& c : r.audit.candidates)
        if (c.entity.value() == id) return c.p_value;
      return -1.0;
    };
    auto dump = [&](const char* mode, const core::DiagnosisResult& r) {
      std::printf("    %s top3:", mode);
      for (const std::uint32_t id : top(r, 3))
        std::printf(" e%u(ps=%.4g pf=%.4g)", id, p_of(rs, id), p_of(rf, id));
      std::printf("\n");
    };
    dump("scalar", rs);
    dump("fast  ", rf);
  }

  // Candidate audits are sorted by entity id in both results, so pairing is
  // positional after matching entities.
  std::size_t j = 0;
  for (const auto& ca : rs.audit.candidates) {
    while (j < rf.audit.candidates.size() &&
           rf.audit.candidates[j].entity < ca.entity)
      ++j;
    if (j >= rf.audit.candidates.size() ||
        !(rf.audit.candidates[j].entity == ca.entity))
      continue;
    const auto& cb = rf.audit.candidates[j];
    if (!ca.evaluated || !cb.evaluated) continue;
    gs.scalar_scores.push_back(ca.counterfactual_delta);
    gs.fast_scores.push_back(cb.counterfactual_delta);
  }
}

core::MurphyDiagnoser make_murphy(bool fast, std::uint64_t seed) {
  core::MurphyOptions mopts;
  // More samples than the production default: the gate compares two
  // different random streams, so borderline p ~ alpha verdicts need tight
  // p-value estimates or membership flips would mask real regressions.
  mopts.sampler.num_samples = bench::full_scale() ? 2000 : 800;
  mopts.seed = seed;
  mopts.sampler.fast_inference = fast;
  mopts.obs.metrics = &obs::global_metrics();
  mopts.obs.collect_audit = true;
  return core::MurphyDiagnoser(mopts);
}

}  // namespace

int main() {
  bench::print_header(
      "Fast-inference statistical equivalence gate",
      "fast mode must reproduce scalar verdicts: identical top-1/top-3 on "
      "Table-1 + battle-matrix smoke cases; Welch t-test on candidate score "
      "deltas not rejected at alpha=0.01");

  GateStats gs;

  // --- Table-1 enterprise incidents ----------------------------------------
  {
    enterprise::IncidentDatasetOptions opts;
    if (!bench::full_scale()) {
      opts.topology.num_apps = 8;
      opts.topology.hosts = 12;
      opts.topology.tors = 3;
      opts.topology.ports_per_tor = 8;
      opts.topology.datastores = 4;
      opts.dynamics.slices = 168;
    }
    std::fprintf(stderr, "building 13 incidents...\n");
    const auto dataset = enterprise::make_incident_dataset(opts);
    bench::stamp_workload({"enterprise-incidents", opts.topology.num_apps,
                           opts.topology.hosts, opts.seed,
                           "operator-incidents-1-13"});
    auto scalar = make_murphy(false, 11);
    auto fast = make_murphy(true, 11);
    for (const auto& inc : dataset) {
      compare_case(scalar, fast, eval::request_for(inc),
                   "incident-" + std::to_string(inc.number), gs);
      std::fprintf(stderr, "  incident %d done\n", inc.number);
    }
  }

  // --- battle-matrix smoke cells -------------------------------------------
  {
    emulation::TopoGenOptions topts;
    topts.services = 60;
    topts.applications = 2;
    topts.seed = 7;
    const auto topo = emulation::generate_topology(topts);
    bench::stamp_workload({"topo-gen-smoke", topts.services, 0, topts.seed,
                           "single_contention,correlated_multi_root,cascade"});
    auto scalar = make_murphy(false, 7);
    auto fast = make_murphy(true, 7);
    const emulation::IncidentKind kinds[] = {
        emulation::IncidentKind::kSingleContention,
        emulation::IncidentKind::kCorrelatedMultiRoot,
        emulation::IncidentKind::kCascade,
    };
    for (const auto kind : kinds) {
      emulation::TopologyCaseOptions copts;
      copts.fault = kind;
      copts.seed = 21;
      const auto c = emulation::make_topology_case(topo, copts);
      compare_case(scalar, fast, eval::request_for(c), c.name, gs);
      std::fprintf(stderr, "  case %s done\n", c.name.c_str());
    }
  }

  // --- gates -----------------------------------------------------------------
  const auto t = stats::welch_t_test(gs.scalar_scores, gs.fast_scores);
  const bool ttest_ok = t.p_two_sided >= 0.01;
  // The band must not hollow out the ranking comparison: across all cases,
  // at most one borderline entity per case may have reached a top-3.
  const bool borderline_ok = gs.top3_borderline <= gs.cases;

  eval::Table table({"gate", "result", "detail"});
  table.add_row({"top-1 identical", gs.top1_mismatch == 0 ? "PASS" : "FAIL",
                 std::to_string(gs.cases - gs.top1_mismatch) + "/" +
                     std::to_string(gs.cases) + " cases"});
  table.add_row({"top-3 identical", gs.top3_mismatch == 0 ? "PASS" : "FAIL",
                 std::to_string(gs.cases - gs.top3_mismatch) + "/" +
                     std::to_string(gs.cases) + " cases"});
  table.add_row({"score-delta t-test", ttest_ok ? "PASS" : "FAIL",
                 "p=" + format_double(t.p_two_sided, 4) + " over " +
                     std::to_string(gs.scalar_scores.size()) +
                     " paired candidates (reject below 0.01)"});
  table.add_row({"borderline in top-3", borderline_ok ? "PASS" : "FAIL",
                 std::to_string(gs.top3_borderline) + " excluded across " +
                     std::to_string(gs.cases) + " cases (<= 1 per case; " +
                     std::to_string(gs.borderline) +
                     " band-total among evaluated)"});
  std::printf("%s\n", table.render().c_str());

  auto* m = &obs::global_metrics();
  m->gauge("equiv.cases")->set(static_cast<double>(gs.cases));
  m->gauge("equiv.top1_mismatch")->set(static_cast<double>(gs.top1_mismatch));
  m->gauge("equiv.top3_mismatch")->set(static_cast<double>(gs.top3_mismatch));
  m->gauge("equiv.paired_candidates")
      ->set(static_cast<double>(gs.scalar_scores.size()));
  m->gauge("equiv.ttest_p")->set(t.p_two_sided);
  m->gauge("equiv.borderline")->set(static_cast<double>(gs.borderline));
  m->gauge("equiv.top3_borderline")
      ->set(static_cast<double>(gs.top3_borderline));
  murphy::bench::write_bench_json("fast_equivalence");

  const bool ok = gs.top1_mismatch == 0 && gs.top3_mismatch == 0 &&
                  ttest_ok && borderline_ok;
  std::printf("%s\n", ok ? "equivalence gate PASSED"
                         : "equivalence gate FAILED");
  return ok ? 0 : 1;
}
