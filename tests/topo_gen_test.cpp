// Property tests for the parameterized topology generator: seeded
// determinism, DAG/connectivity invariants, degree-distribution bounds, and
// the guarantee that generated graphs never trip the ingest guards (no
// self-loops, no orphan edges — those counters must not move).
#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/emulation/topo_gen.h"
#include "src/telemetry/metric_catalog.h"

namespace murphy::emulation {
namespace {

std::vector<std::size_t> out_degrees(const AppModel& app) {
  std::vector<std::size_t> deg(app.services.size(), 0);
  for (const CallEdge& e : app.call_edges) ++deg[e.caller];
  return deg;
}

std::vector<std::size_t> in_degrees(const AppModel& app) {
  std::vector<std::size_t> deg(app.services.size(), 0);
  for (const CallEdge& e : app.call_edges) ++deg[e.callee];
  return deg;
}

// Kahn's algorithm: consumes every service iff the call graph is acyclic.
bool is_dag(const AppModel& app) {
  std::vector<std::size_t> in = in_degrees(app);
  std::vector<ServiceIdx> queue;
  for (ServiceIdx s = 0; s < app.services.size(); ++s)
    if (in[s] == 0) queue.push_back(s);
  std::size_t seen = 0;
  while (!queue.empty()) {
    const ServiceIdx s = queue.back();
    queue.pop_back();
    ++seen;
    for (const CallEdge& e : app.call_edges) {
      if (e.caller != s) continue;
      if (--in[e.callee] == 0) queue.push_back(e.callee);
    }
  }
  return seen == app.services.size();
}

TEST(TopoGen, SameSeedIsByteIdentical) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 9999ULL}) {
    TopoGenOptions opts;
    opts.seed = seed;
    opts.services = 80;
    opts.applications = 2;
    const GeneratedTopology a = generate_topology(opts);
    const GeneratedTopology b = generate_topology(opts);
    EXPECT_EQ(topology_digest(a.app), topology_digest(b.app));
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.app_of, b.app_of);
    EXPECT_EQ(a.gateways, b.gateways);
  }
}

TEST(TopoGen, DifferentSeedsDiffer) {
  TopoGenOptions opts;
  opts.services = 80;
  std::set<std::uint64_t> digests;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    opts.seed = seed;
    digests.insert(topology_digest(generate_topology(opts).app));
  }
  EXPECT_EQ(digests.size(), 4u);
}

TEST(TopoGen, RequestedShapeRespected) {
  for (const std::size_t services : {50u, 120u, 320u, 500u}) {
    for (const std::size_t apps : {1u, 2u, 3u}) {
      TopoGenOptions opts;
      opts.services = services;
      opts.applications = apps;
      opts.seed = services * 10 + apps;
      const GeneratedTopology topo = generate_topology(opts);
      EXPECT_EQ(topo.app.services.size(), services);
      EXPECT_EQ(topo.gateways.size(), apps);
      EXPECT_EQ(topo.app.containers.size(), services);  // one per service
      EXPECT_EQ(topo.tier.size(), services);
      EXPECT_EQ(topo.app_of.size(), services);
      const std::size_t expect_nodes =
          (services + opts.services_per_node - 1) / opts.services_per_node;
      EXPECT_EQ(topo.app.nodes.size(), expect_nodes);
      // Every tier is populated.
      for (const ServiceTier t :
           {ServiceTier::kGateway, ServiceTier::kMid, ServiceTier::kDatastore,
            ServiceTier::kSharedInfra})
        EXPECT_NE(std::count(topo.tier.begin(), topo.tier.end(), t), 0)
            << services << " services, " << apps << " apps";
    }
  }
}

TEST(TopoGen, IsDagWithoutSelfLoopsOrMultiEdges) {
  for (const std::size_t services : {60u, 200u, 400u}) {
    TopoGenOptions opts;
    opts.services = services;
    opts.applications = 2;
    opts.seed = services;
    const GeneratedTopology topo = generate_topology(opts);
    std::set<std::pair<ServiceIdx, ServiceIdx>> edges;
    for (const CallEdge& e : topo.app.call_edges) {
      EXPECT_NE(e.caller, e.callee) << "self-loop";
      EXPECT_LT(e.caller, services);
      EXPECT_LT(e.callee, services);
      EXPECT_GT(e.calls_per_request, 0.0);
      EXPECT_TRUE(edges.insert({e.caller, e.callee}).second) << "multi-edge";
    }
    EXPECT_TRUE(is_dag(topo.app));
  }
}

TEST(TopoGen, EveryServiceReachableFromAGateway) {
  TopoGenOptions opts;
  opts.services = 250;
  opts.applications = 3;
  opts.seed = 7;
  const GeneratedTopology topo = generate_topology(opts);
  std::vector<bool> reached(topo.app.services.size(), false);
  for (const ServiceIdx g : topo.gateways)
    for (const ServiceIdx s : topo.app.call_tree(g)) reached[s] = true;
  for (ServiceIdx s = 0; s < topo.app.services.size(); ++s)
    EXPECT_TRUE(reached[s]) << topo.app.services[s].name;
  // And every non-gateway has a caller (no orphan subtrees).
  const std::vector<std::size_t> in = in_degrees(topo.app);
  for (ServiceIdx s = 0; s < topo.app.services.size(); ++s) {
    if (topo.tier[s] == ServiceTier::kGateway) {
      EXPECT_EQ(in[s], 0u) << "gateways are entries, never callees";
    } else {
      EXPECT_GE(in[s], 1u) << topo.app.services[s].name;
    }
  }
}

TEST(TopoGen, TierEdgeRules) {
  TopoGenOptions opts;
  opts.services = 150;
  opts.applications = 2;
  opts.seed = 11;
  const GeneratedTopology topo = generate_topology(opts);
  for (const CallEdge& e : topo.app.call_edges) {
    const ServiceTier from = topo.tier[e.caller];
    const ServiceTier to = topo.tier[e.callee];
    EXPECT_NE(from, ServiceTier::kSharedInfra) << "infra is a leaf tier";
    if (from == ServiceTier::kDatastore)
      EXPECT_EQ(to, ServiceTier::kSharedInfra)
          << "datastores only call shared infra";
    // Cross-application edges exist only into the shared-infra tier.
    if (topo.app_of[e.caller] != topo.app_of[e.callee])
      EXPECT_EQ(to, ServiceTier::kSharedInfra);
  }
}

TEST(TopoGen, DegreeDistributionBounds) {
  TopoGenOptions opts;
  opts.services = 300;
  opts.applications = 2;
  opts.seed = 5;
  const GeneratedTopology topo = generate_topology(opts);
  const std::vector<std::size_t> out = out_degrees(topo.app);
  const std::vector<std::size_t> in = in_degrees(topo.app);
  // The geometric draw caps fan-out at max_fanout; the repair passes add a
  // few extra edges per caller. Gateways are the exception: connectivity
  // repair wires every orphaned first-layer service to its app's gateway
  // (an API gateway really does route to dozens of endpoints), so their
  // bound is the application's size, not the draw cap.
  const std::size_t per_app = opts.services / opts.applications;
  double mean_out = 0.0;
  for (ServiceIdx s = 0; s < out.size(); ++s) {
    if (topo.tier[s] == ServiceTier::kGateway) {
      EXPECT_GE(out[s], 2u) << topo.app.services[s].name;
      EXPECT_LE(out[s], per_app) << topo.app.services[s].name;
    } else {
      EXPECT_LE(out[s], opts.max_fanout + 6) << topo.app.services[s].name;
    }
    mean_out += static_cast<double>(out[s]);
  }
  mean_out /= static_cast<double>(out.size());
  EXPECT_GE(mean_out, 0.5);
  EXPECT_LE(mean_out, static_cast<double>(opts.max_fanout));
  // Preferential attachment produces a heavy tail: some backend accumulates
  // well above the mean fan-in.
  const std::size_t max_in = *std::max_element(in.begin(), in.end());
  EXPECT_GE(max_in, 4u);
}

TEST(TopoGen, GeneratedCasesNeverTripIngestGuards) {
  TopoGenOptions opts;
  opts.services = 90;
  opts.applications = 2;
  opts.seed = 3;
  const GeneratedTopology topo = generate_topology(opts);
  TopologyCaseOptions copts;
  copts.slices = 120;
  copts.fault = IncidentKind::kCorrelatedMultiRoot;
  const DiagnosisCase c = make_topology_case(topo, copts);
  EXPECT_GT(c.db.entity_count(), opts.services);

  // The simulator offers one edge per container placement, service
  // placement, call edge and (per gateway) client; the ingest guards drop
  // self-loops and orphans, so every offered edge stored means none tripped.
  const AppModel& app = topo.app;
  EXPECT_EQ(c.db.association_count(),
            app.containers.size() + app.services.size() +
                app.call_edges.size() + topo.gateways.size());
}

TEST(TopoGen, CaseIsDeterministicAndLabeled) {
  TopoGenOptions opts;
  opts.services = 70;
  opts.seed = 13;
  const GeneratedTopology topo = generate_topology(opts);

  for (const IncidentKind kind :
       {IncidentKind::kSingleContention, IncidentKind::kCorrelatedMultiRoot,
        IncidentKind::kSlowBurn, IncidentKind::kRetryStorm,
        IncidentKind::kCascade}) {
    TopologyCaseOptions copts;
    copts.fault = kind;
    copts.seed = 21;
    copts.slices = 120;
    const DiagnosisCase a = make_topology_case(topo, copts);
    const DiagnosisCase b = make_topology_case(topo, copts);

    ASSERT_FALSE(a.all_roots.empty());
    EXPECT_EQ(a.root_cause, a.all_roots.front());
    for (const EntityId root : a.all_roots)
      EXPECT_NE(std::find(a.relaxed_set.begin(), a.relaxed_set.end(), root),
                a.relaxed_set.end());
    EXPECT_LT(a.incident_start, a.incident_end);
    EXPECT_LE(a.incident_end, copts.slices);
    EXPECT_GT(a.max_hops, 4u) << "deep topologies widen the hop budget";

    // Same (topology, options) => identical case: labels and telemetry.
    EXPECT_EQ(a.symptom_entity, b.symptom_entity);
    EXPECT_EQ(a.all_roots, b.all_roots);
    EXPECT_EQ(a.relaxed_set, b.relaxed_set);
    const MetricKindId lat = a.db.catalog().find("latency_ms");
    const auto* sa = a.db.metrics().find(a.symptom_entity, lat);
    const auto* sb = b.db.metrics().find(b.symptom_entity, lat);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_TRUE(sa->bitwise_equal(*sb));
  }
}

}  // namespace
}  // namespace murphy::emulation
