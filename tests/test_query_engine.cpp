// Tests for the what-if layer (ctest label: query): delta-retune vs
// cold-rebuild parity across topologies × delta axes, the QueryEngine's
// batch determinism (parallel bitwise-identical to serial), dedup /
// memoization accounting, the collapsed-resident retune case, and the
// link-orbit contract of single-link fault queries.
//
// Parity contract under test (traffic_model.hpp): after any retune
// sequence the resident agrees with a cold build of the current spec to
// ≤ 1e-12 on every channel rate / self_frac / ca2 and ≤ 1e-9 on latency
// and saturation.
#include "harness/query_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic_model.hpp"
#include "obs/metrics.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/rng.hpp"

namespace wormnet::harness {
namespace {

constexpr double kStateTol = 1e-12;   // rates / self_frac / ca2
constexpr double kMetricTol = 1e-9;   // latency / saturation (relative)

double rel(double a, double b) {
  const double mag = std::max(std::abs(a), std::abs(b));
  return mag == 0.0 ? 0.0 : std::abs(a - b) / mag;
}

/// Full parity check of a retuned resident against a cold rebuild.
void expect_parity(const core::GeneralModel& got, const core::GeneralModel& want,
                   double lambda0, const char* tag) {
  ASSERT_EQ(got.graph.size(), want.graph.size()) << tag;
  for (int id = 0; id < got.graph.size(); ++id) {
    const auto& a = got.graph.at(id);
    const auto& b = want.graph.at(id);
    EXPECT_NEAR(a.rate_per_link, b.rate_per_link, kStateTol)
        << tag << " ch " << id;
    EXPECT_NEAR(a.self_frac, b.self_frac, kStateTol) << tag << " ch " << id;
    EXPECT_NEAR(a.ca2, b.ca2, kStateTol) << tag << " ch " << id;
    EXPECT_EQ(a.lanes, b.lanes) << tag << " ch " << id;
    ASSERT_EQ(got.graph.transitions(id).size(), want.graph.transitions(id).size())
        << tag << " ch " << id;
  }
  EXPECT_NEAR(got.mean_distance, want.mean_distance, kStateTol) << tag;
  const auto ea = got.evaluate(lambda0);
  const auto eb = want.evaluate(lambda0);
  EXPECT_EQ(ea.stable, eb.stable) << tag;
  if (ea.stable) {
    EXPECT_LE(rel(ea.latency, eb.latency), kMetricTol) << tag;
  }
  EXPECT_LE(rel(got.saturation_rate(), want.saturation_rate()), kMetricTol)
      << tag;
}

/// The three dense reference topologies the parity matrix runs over.
struct TopoCase {
  const char* tag;
  std::unique_ptr<topo::Topology> topo;
};

std::vector<TopoCase> parity_topologies() {
  std::vector<TopoCase> cases;
  cases.push_back({"fattree64", std::make_unique<topo::ButterflyFatTree>(3)});
  cases.push_back({"hypercube16", std::make_unique<topo::Hypercube>(4)});
  cases.push_back({"mesh4x4", std::make_unique<topo::Mesh>(4, 2)});
  return cases;
}

// ---------------------------------------------------------------------------
// Delta axis 1: pattern (retune_traffic).

TEST(RetunableTrafficModel, HotspotMoveDeltaParity) {
  // Moving a hotspot touches O(N) pairs — the delta path, not a rebuild.
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.3, 1));
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::hotspot(0.3, 2));
    EXPECT_FALSE(report.rebuilt) << tc.tag;
    EXPECT_GT(report.passes, 0) << tc.tag;
    EXPECT_GT(report.changed_pairs, 0) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::hotspot(0.3, 2));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, PermutationRewireDeltaParity) {
  for (const TopoCase& tc : parity_topologies()) {
    const int n = tc.topo->num_processors();
    std::vector<int> p1(n), p2(n);
    for (int i = 0; i < n; ++i) p1[i] = (i + 1) % n;
    for (int i = 0; i < n; ++i) p2[i] = (i + 3) % n;
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::permutation(p1));
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::permutation(p2));
    EXPECT_FALSE(report.rebuilt) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::permutation(p2));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, WholeMatrixChangeFallsBackToRebuildWithParity) {
  // uniform → nearest-neighbor changes every pair: the planner must choose
  // the cold rebuild — and still land exactly on the cold model.
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo, traffic::TrafficSpec::uniform());
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::nearest_neighbor(0.6));
    EXPECT_TRUE(report.rebuilt) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::nearest_neighbor(0.6));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, RetuneChainEndsWhereColdBuildDoes) {
  // A long mixed chain must not accumulate drift beyond the contract.
  const topo::Hypercube hc(4);
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::hotspot(0.1, 0));
  for (int step = 1; step <= 8; ++step)
    rm.retune_traffic(
        traffic::TrafficSpec::hotspot(0.05 + 0.03 * step, step % 16));
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::hotspot(0.05 + 0.03 * 8, 8));
  expect_parity(rm.model(), cold, 0.002, "chain");
}

/// Job-locality traffic: every processor sends uniformly to the other
/// members of its job (owner[p] is p's job id).
traffic::TrafficSpec job_local(const std::vector<int>& owner) {
  const int n = static_cast<int>(owner.size());
  traffic::TrafficMatrix m(n);
  for (int s = 0; s < n; ++s) {
    int peers = 0;
    for (int d = 0; d < n; ++d) peers += d != s && owner[d] == owner[s];
    for (int d = 0; d < n; ++d)
      if (d != s && owner[d] == owner[s]) m.set(s, d, 1.0 / peers);
  }
  return traffic::TrafficSpec::matrix(std::move(m));
}

TEST(RetunableTrafficModel, JobLocalityChainStaysAValidModel) {
  // Chained deltas on a 1/7-weighted matrix: re-associated sums leave the
  // Σ onward flow of a channel an ulp above its rate (retune 965 with this
  // seed), which used to trip the route_prob ≤ 1 precondition.  The chain
  // must run to the end and still land on the cold build.
  const topo::ButterflyFatTree ft(3);
  std::vector<int> owner(64);
  for (int p = 0; p < 64; ++p) owner[static_cast<std::size_t>(p)] = p / 8;
  core::RetunableTrafficModel rm(ft, job_local(owner));
  util::Rng rng(1);
  for (int step = 1; step <= 1000; ++step) {
    for (int swap = 0; swap < 2; ++swap) {
      std::size_t a = 0;
      std::size_t b = 0;
      do {
        a = rng.uniform_int(64);
        b = rng.uniform_int(64);
      } while (owner[a] == owner[b]);
      std::swap(owner[a], owner[b]);
    }
    ASSERT_FALSE(rm.retune_traffic(job_local(owner)).rebuilt) << step;
  }
  expect_parity(rm.model(), core::build_traffic_model(ft, job_local(owner)),
                0.002, "job-locality chain");
}

// ---------------------------------------------------------------------------
// Tune axes are plain GeneralModel edits.  What a tune does on top of a
// traffic or fault delta is checked through the QueryEngine below
// (RewiredVariantsPlanTheirOwnStructure, RewiredVariantsCarryTheirTunes).

TEST(RetunableTrafficModel, LaneDeltaBitwiseIdenticalToTopologyRebuild) {
  for (const TopoCase& tc : parity_topologies()) {
    core::GeneralModel tuned =
        core::build_traffic_model(*tc.topo, traffic::TrafficSpec::hotspot(0.2, 1));
    tuned.set_uniform_lanes(4);

    // Cold reference: same topology shape rebuilt with 4 lanes everywhere.
    auto fresh = [&]() -> std::unique_ptr<topo::Topology> {
      if (std::string(tc.tag) == "fattree64")
        return std::make_unique<topo::ButterflyFatTree>(3);
      if (std::string(tc.tag) == "hypercube16")
        return std::make_unique<topo::Hypercube>(4);
      return std::make_unique<topo::Mesh>(4, 2);
    }();
    fresh->set_uniform_lanes(4);
    const auto cold = core::build_traffic_model(
        *fresh, traffic::TrafficSpec::hotspot(0.2, 1));

    // Lanes enter the solve only through ChannelClass::lanes — bitwise.
    ASSERT_EQ(tuned.graph.size(), cold.graph.size()) << tc.tag;
    for (int id = 0; id < cold.graph.size(); ++id) {
      EXPECT_EQ(tuned.graph.at(id).rate_per_link,
                cold.graph.at(id).rate_per_link)
          << tc.tag << " ch " << id;
      EXPECT_EQ(tuned.graph.at(id).lanes, cold.graph.at(id).lanes)
          << tc.tag << " ch " << id;
    }
    EXPECT_EQ(tuned.evaluate(0.002).latency, cold.evaluate(0.002).latency)
        << tc.tag;
  }
}

TEST(RetunableTrafficModel, LoadDeltaMatchesScaledLambdaEvaluation) {
  for (const TopoCase& tc : parity_topologies()) {
    const auto cold =
        core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
    core::GeneralModel tuned = cold;
    tuned.scale_injection_rates(1.25);
    const auto scaled = tuned.evaluate(0.004);
    const auto ref = cold.evaluate(0.004 * 1.25);
    EXPECT_LE(rel(scaled.latency, ref.latency), kMetricTol) << tc.tag;
    // The channel state is identical up to the scaling, so the injection
    // service time (what saturation is defined through) agrees too.  Note
    // λ₀* itself does NOT scale by 1/1.25: Eq. 26's λ·x̄_inj(λ) = 1 puts λ
    // on both sides.
    EXPECT_LE(rel(scaled.inj_service, ref.inj_service), kMetricTol) << tc.tag;
  }
}

// ---------------------------------------------------------------------------
// Collapsed-resident retune (composition with the PR 6 orbit path).

TEST(RetunableTrafficModel, CollapsedResidentRetunesOnOrbitPath) {
  const topo::ButterflyFatTree ft(3);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.1, 0),
                                 {}, build);
  ASSERT_TRUE(rm.collapsed());
  const auto report =
      rm.retune_traffic(traffic::TrafficSpec::hotspot(0.25, 0));
  EXPECT_TRUE(report.collapsed);
  EXPECT_FALSE(report.rebuilt);
  EXPECT_TRUE(rm.collapsed());
  const auto cold = core::build_traffic_model_collapsed(
      ft, traffic::TrafficSpec::hotspot(0.25, 0));
  expect_parity(rm.model(), cold, 0.002, "collapsed hotspot fraction");
}

TEST(RetunableTrafficModel, CollapsedResidentFallsToDenseOnAsymmetricSpec) {
  // A permutation breaks the symmetry: the resident must rebuild densely
  // (no flow state to delta against) and still match the cold dense model.
  const topo::Hypercube hc(4);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::uniform(), {},
                                 build);
  ASSERT_TRUE(rm.collapsed());
  std::vector<int> perm(16);
  for (int i = 0; i < 16; ++i) perm[i] = (i + 5) % 16;
  const auto report =
      rm.retune_traffic(traffic::TrafficSpec::permutation(perm));
  EXPECT_TRUE(report.rebuilt);
  EXPECT_FALSE(rm.collapsed());
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::permutation(perm), {}, build);
  expect_parity(rm.model(), cold, 0.002, "collapsed→dense");
}

// ---------------------------------------------------------------------------
// QueryEngine: batch behavior.

std::vector<WhatIfQuery> mixed_batch(int num_processors) {
  std::vector<WhatIfQuery> batch;
  for (int node = 0; node < 6; ++node) {
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::hotspot(0.25, node % num_processors);
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.lanes = 4;
    q.metric = QueryMetric::Saturation;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.load_scale = 1.2;
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.arrival = arrivals::ArrivalSpec::batch(4.0);
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.lambda0 = 0.002;
    q.metric = QueryMetric::ClassBreakdown;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;  // combined axes
    q.traffic = traffic::TrafficSpec::hotspot(0.3, 2 % num_processors);
    q.lanes = 2;
    q.load_scale = 0.9;
    q.lambda0 = 0.0015;
    batch.push_back(q);
  }
  batch.push_back(batch[0]);  // exact duplicate → Memoized
  return batch;
}

TEST(QueryEngine, ParallelBatchBitwiseIdenticalToSerial) {
  const topo::ButterflyFatTree ft(3);
  const auto batch = mixed_batch(ft.num_processors());

  QueryEngine::Options par;
  par.threads = 4;
  par.parallel = true;
  QueryEngine::Options ser;
  ser.parallel = false;
  QueryEngine qpar(ft, traffic::TrafficSpec::uniform(), par);
  QueryEngine qser(ft, traffic::TrafficSpec::uniform(), ser);

  const auto rp = qpar.run_batch(batch);
  const auto rs = qser.run_batch(batch);
  ASSERT_EQ(rp.size(), rs.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(rp[i].cost, rs[i].cost) << "i=" << i;
    // Bitwise: exact double equality on every answer field.
    EXPECT_EQ(rp[i].est.latency, rs[i].est.latency) << "i=" << i;
    EXPECT_EQ(rp[i].est.inj_wait, rs[i].est.inj_wait) << "i=" << i;
    EXPECT_EQ(rp[i].saturation_rate, rs[i].saturation_rate) << "i=" << i;
    ASSERT_EQ(rp[i].breakdown.size(), rs[i].breakdown.size()) << "i=" << i;
    for (std::size_t k = 0; k < rp[i].breakdown.size(); ++k) {
      EXPECT_EQ(rp[i].breakdown[k].utilization, rs[i].breakdown[k].utilization);
      EXPECT_EQ(rp[i].breakdown[k].wait, rs[i].breakdown[k].wait);
      EXPECT_EQ(rp[i].breakdown[k].rate, rs[i].breakdown[k].rate);
    }
  }
}

TEST(QueryEngine, AnswersMatchColdRebuiltModels) {
  // Every delta axis answered by the engine must match a from-scratch model
  // carrying the same configuration.
  for (const TopoCase& tc : parity_topologies()) {
    QueryEngine qe(*tc.topo, traffic::TrafficSpec::uniform());

    {  // pattern delta
      WhatIfQuery q;
      q.traffic = traffic::TrafficSpec::hotspot(0.25, 1);
      q.lambda0 = 0.002;
      const auto res = qe.run(q);
      const auto cold = core::build_traffic_model(
          *tc.topo, traffic::TrafficSpec::hotspot(0.25, 1));
      EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002).latency), kMetricTol)
          << tc.tag;
    }
    {  // lane delta
      WhatIfQuery q;
      q.lanes = 4;
      q.metric = QueryMetric::Saturation;
      const auto res = qe.run(q);
      auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      cold.set_uniform_lanes(4);
      EXPECT_LE(rel(res.saturation_rate, cold.saturation_rate()), kMetricTol)
          << tc.tag;
    }
    {  // load delta: engine at λ with scale f ≡ cold at λ·f
      WhatIfQuery q;
      q.load_scale = 1.3;
      q.lambda0 = 0.002;
      const auto res = qe.run(q);
      const auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002 * 1.3).latency),
                kMetricTol)
          << tc.tag;
    }
    {  // arrival delta
      WhatIfQuery q;
      q.arrival = arrivals::ArrivalSpec::on_off(0.4, 8.0);
      q.lambda0 = 0.0015;
      const auto res = qe.run(q);
      auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      cold.set_injection_process(arrivals::ArrivalSpec::on_off(0.4, 8.0),
                                 0.0015);
      EXPECT_LE(rel(res.est.latency, cold.evaluate(0.0015).latency), kMetricTol)
          << tc.tag;
    }
  }
}

TEST(QueryEngine, RewiredVariantsPlanTheirOwnStructure) {
  // Tune variants solve on the resident's plan structure; a traffic or
  // fault delta rewires the model, so its plan must be built from the
  // variant itself.  Every metric of such a variant matches a cold build —
  // and differs from the resident's own answer, so a plan on the stale
  // resident wiring could not pass.
  const topo::ButterflyFatTree ft(3);
  const int procs = ft.num_processors();
  std::vector<int> base(static_cast<std::size_t>(procs));
  std::vector<int> moved(static_cast<std::size_t>(procs));
  for (int s = 0; s < procs; ++s) {
    base[static_cast<std::size_t>(s)] = (s + 1) % procs;
    moved[static_cast<std::size_t>(s)] = (s + 17) % procs;
  }
  const traffic::TrafficSpec resident_spec = traffic::TrafficSpec::permutation(base);
  const traffic::TrafficSpec moved_spec = traffic::TrafficSpec::permutation(moved);
  QueryEngine qe(ft, resident_spec);
  auto faults = std::make_shared<topo::FaultSet>(ft);
  faults->fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const topo::FaultedTopology view(ft, *faults);

  struct Case {
    const char* tag;
    WhatIfQuery delta;
    core::GeneralModel cold;
  };
  std::vector<Case> cases;
  {
    WhatIfQuery q;
    q.traffic = moved_spec;
    q.lanes = 2;  // a tune riding along must not pull in the old structure
    core::GeneralModel cold = core::build_traffic_model(ft, moved_spec);
    cold.set_uniform_lanes(2);
    cases.push_back({"traffic", q, std::move(cold)});
  }
  {
    WhatIfQuery q;
    q.faults = faults;
    cases.push_back({"fault", q, core::build_traffic_model(view, resident_spec)});
  }
  for (Case& c : cases) {
    const double lambda0 = 0.4 * c.cold.saturation_rate();
    std::vector<WhatIfQuery> batch(3, c.delta);
    batch[0].metric = QueryMetric::Latency;
    batch[0].lambda0 = lambda0;
    batch[1].metric = QueryMetric::Saturation;
    batch[2].metric = QueryMetric::ClassBreakdown;
    batch[2].lambda0 = lambda0;
    const std::vector<QueryResult> res = qe.run_batch(batch);
    ASSERT_EQ(res.size(), 3u);
    const core::LatencyEstimate cold_est = c.cold.evaluate(lambda0);
    EXPECT_EQ(res[0].est.status, cold_est.status) << c.tag;
    EXPECT_LE(rel(res[0].est.latency, cold_est.latency), kMetricTol) << c.tag;
    EXPECT_NE(res[0].est.latency,
              qe.resident_model(0).model().evaluate(lambda0).latency)
        << c.tag;
    EXPECT_LE(rel(res[1].saturation_rate, c.cold.saturation_rate()), kMetricTol)
        << c.tag;
    const core::SolveResult sol = c.cold.solve(lambda0);
    ASSERT_EQ(res[2].breakdown.size(), sol.channels.size()) << c.tag;
    for (std::size_t id = 0; id < sol.channels.size(); ++id) {
      EXPECT_LE(rel(res[2].breakdown[id].service_time, sol.channels[id].service_time),
                kMetricTol)
          << c.tag << " class " << id;
      EXPECT_LE(rel(res[2].breakdown[id].wait, sol.channels[id].wait), kMetricTol)
          << c.tag << " class " << id;
    }
  }
}

TEST(QueryEngine, RewiredVariantsCarryTheirTunes) {
  // A tune riding on a traffic or fault delta applies to the rewired model:
  // each answer matches a cold build of the new wiring carrying the same
  // tunes.  Traffic + lanes is covered by RewiredVariantsPlanTheirOwnStructure.
  for (const TopoCase& tc : parity_topologies()) {
    QueryEngine qe(*tc.topo, traffic::TrafficSpec::hotspot(0.2, 1));
    {  // traffic + load: engine at λ with scale f ≡ cold at λ·f
      WhatIfQuery q;
      q.traffic = traffic::TrafficSpec::hotspot(0.2, 7);
      q.load_scale = 1.2;
      q.lambda0 = 0.002;
      const auto res = qe.run(q);
      EXPECT_EQ(res.cost, QueryCost::Retune) << tc.tag;
      const auto cold = core::build_traffic_model(
          *tc.topo, traffic::TrafficSpec::hotspot(0.2, 7));
      const auto want = cold.evaluate(0.002 * 1.2);
      ASSERT_EQ(want.status, core::SolveStatus::Ok) << tc.tag;
      EXPECT_EQ(res.est.status, want.status) << tc.tag;
      EXPECT_LE(rel(res.est.latency, want.latency), kMetricTol) << tc.tag;
    }
    {  // traffic + arrival
      WhatIfQuery q;
      q.traffic = traffic::TrafficSpec::hotspot(0.2, 2);
      q.arrival = arrivals::ArrivalSpec::batch(4.0);
      q.lambda0 = 0.001;
      const auto lat = qe.run(q);
      q.metric = QueryMetric::Saturation;
      const auto sat = qe.run(q);
      auto cold = core::build_traffic_model(
          *tc.topo, traffic::TrafficSpec::hotspot(0.2, 2));
      cold.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
      const auto want = cold.evaluate(0.001);
      EXPECT_EQ(lat.est.status, want.status) << tc.tag;
      EXPECT_LE(rel(lat.est.latency, want.latency), kMetricTol) << tc.tag;
      EXPECT_LE(rel(lat.est.inj_wait, want.inj_wait), kMetricTol) << tc.tag;
      EXPECT_LE(rel(sat.saturation_rate, cold.saturation_rate()), kMetricTol)
          << tc.tag;
    }
  }
  {  // fault + lanes + load
    const topo::ButterflyFatTree ft(2);
    QueryEngine::Options opts;
    opts.solve.worm_flits = 16.0;
    QueryEngine qe(ft, traffic::TrafficSpec::uniform(), opts);
    auto fs = std::make_shared<topo::FaultSet>(ft);
    fs->fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort1);
    WhatIfQuery q;
    q.faults = fs;
    q.lanes = 2;
    q.load_scale = 1.5;
    q.metric = QueryMetric::Saturation;
    const auto sat = qe.run(q);
    const topo::FaultedTopology view(ft, *fs);
    core::GeneralModel cold =
        core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts.solve);
    cold.set_uniform_lanes(2);
    cold.scale_injection_rates(1.5);
    EXPECT_LE(rel(sat.saturation_rate, cold.saturation_rate()), kMetricTol);
    q.metric = QueryMetric::Latency;
    q.lambda0 = 0.4 * cold.saturation_rate();
    const auto lat = qe.run(q);
    const auto want = cold.evaluate(q.lambda0);
    EXPECT_EQ(lat.est.status, want.status);
    EXPECT_LE(rel(lat.est.latency, want.latency), kMetricTol);
    EXPECT_LE(rel(lat.est.unroutable_fraction, want.unroutable_fraction),
              kMetricTol);
  }
}

TEST(QueryEngine, CostClassesReflectThePlannedWork) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::hotspot(0.2, 1));

  {  // hotspot move: delta-served
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::hotspot(0.2, 5);
    q.lambda0 = 0.002;
    const auto res = qe.run(q);
    EXPECT_EQ(res.cost, QueryCost::Retune);
    EXPECT_FALSE(res.retune.rebuilt);
    EXPECT_GT(res.retune.passes, 0);
  }
  {  // whole-matrix change: rebuild, and metered as such
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::nearest_neighbor(0.5);
    q.lambda0 = 0.002;
    const auto res = qe.run(q);
    EXPECT_EQ(res.cost, QueryCost::Rebuild);
    EXPECT_TRUE(res.retune.rebuilt);
  }
  {  // tune-only axes: reevaluate
    WhatIfQuery q;
    q.lanes = 2;
    q.load_scale = 1.1;
    q.lambda0 = 0.002;
    EXPECT_EQ(qe.run(q).cost, QueryCost::Reevaluate);
  }
  {  // identical repeat: memoized
    WhatIfQuery q;
    q.lanes = 2;
    q.load_scale = 1.1;
    q.lambda0 = 0.002;
    EXPECT_EQ(qe.run(q).cost, QueryCost::Memoized);
  }
  EXPECT_EQ(qe.queries_served(), 4u);
  EXPECT_EQ(qe.served_retune(), 1u);
  EXPECT_EQ(qe.served_rebuild(), 1u);
  EXPECT_EQ(qe.served_reevaluate(), 1u);
  EXPECT_EQ(qe.served_memoized(), 1u);
}

TEST(QueryEngine, DedupSharesVariantsAndMemoizesAcrossBatches) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::uniform());

  // Three queries, one variant (same hotspot delta), two distinct λs.
  std::vector<WhatIfQuery> batch(3);
  for (auto& q : batch) q.traffic = traffic::TrafficSpec::hotspot(0.2, 3);
  batch[0].lambda0 = 0.002;
  batch[1].lambda0 = 0.003;
  batch[2].lambda0 = 0.002;  // duplicate of [0]
  const auto res = qe.run_batch(batch);
  EXPECT_EQ(qe.variants_prepared(), 1u);
  EXPECT_EQ(res[2].cost, QueryCost::Memoized);
  EXPECT_EQ(res[2].est.latency, res[0].est.latency);

  // The whole batch again: all memoized, no new variants.
  const auto res2 = qe.run_batch(batch);
  for (const auto& r : res2) EXPECT_EQ(r.cost, QueryCost::Memoized);
  EXPECT_EQ(qe.variants_prepared(), 1u);
  EXPECT_EQ(res2[1].est.latency, res[1].est.latency);
}

/// The permutation s -> s + shift (mod n) as a custom matrix.
traffic::TrafficSpec shift_matrix(int n, int shift) {
  traffic::TrafficMatrix m(n);
  for (int s = 0; s < n; ++s) m.set(s, (s + shift) % n, 1.0);
  return traffic::TrafficSpec::matrix(std::move(m));
}

TEST(QueryEngine, EqualMatricesShareOneVariant) {
  // Two separately built matrix specs of equal content are one delta.
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::uniform());
  std::vector<WhatIfQuery> batch(2);
  batch[0].traffic = shift_matrix(ft.num_processors(), 5);
  batch[1].traffic = shift_matrix(ft.num_processors(), 5);
  batch[0].lambda0 = 0.002;
  batch[1].lambda0 = 0.003;
  const auto res = qe.run_batch(batch);
  EXPECT_EQ(qe.variants_prepared(), 1u);
  EXPECT_NE(res[0].cost, QueryCost::Memoized);
  EXPECT_NE(res[1].cost, QueryCost::Memoized);
}

TEST(QueryEngine, MatrixAnswersOutliveTheirSpecs) {
  // A matrix asked about and then destroyed must not answer for a later
  // matrix of other content, wherever the allocator puts the new payload.
  const topo::ButterflyFatTree ft(3);
  const int n = ft.num_processors();
  QueryEngine qe(ft, traffic::TrafficSpec::uniform());
  WhatIfQuery q;
  q.metric = QueryMetric::Saturation;
  q.traffic = shift_matrix(n, 1);
  const double first = qe.run(q).saturation_rate;
  q.traffic.reset();
  q.traffic = shift_matrix(n, 32);
  const QueryResult second = qe.run(q);
  EXPECT_NE(second.cost, QueryCost::Memoized);
  const double cold =
      core::build_traffic_model(ft, *q.traffic).saturation_rate();
  EXPECT_LE(rel(second.saturation_rate, cold), kMetricTol);
  EXPECT_GT(rel(second.saturation_rate, first), 0.5);
}

TEST(QueryEngine, CollapsedResidentServesSymmetricDeltasOnOrbitPath) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine::Options opts;
  opts.build.collapse = core::CollapseMode::Auto;
  QueryEngine qe(ft, traffic::TrafficSpec::uniform(), opts);
  ASSERT_TRUE(qe.resident_model(0).collapsed());

  WhatIfQuery q;
  q.traffic = traffic::TrafficSpec::hotspot(0.3, 0);
  q.lambda0 = 0.002;
  const auto res = qe.run(q);
  EXPECT_EQ(res.cost, QueryCost::Retune);
  EXPECT_TRUE(res.retune.collapsed);
  const auto cold = core::build_traffic_model(
      ft, traffic::TrafficSpec::hotspot(0.3, 0));
  EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002).latency), kMetricTol);
}

TEST(QueryEngine, ResidentRegistryDedupsByTopologyAndSpec) {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(4);
  QueryEngine qe;
  const int a = qe.resident(ft, traffic::TrafficSpec::uniform());
  const int b = qe.resident(ft, traffic::TrafficSpec::uniform());
  const int c = qe.resident(ft, traffic::TrafficSpec::hotspot(0.2, 0));
  const int d = qe.resident(hc, traffic::TrafficSpec::uniform());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(qe.num_residents(), 3u);

  WhatIfQuery q;
  q.lambda0 = 0.002;
  EXPECT_GT(qe.run(d, q).est.latency, 0.0);
}

TEST(QueryEngine, ClassBreakdownRowsMatchDirectSolve) {
  // A dense resident labels its rows "ch<node>:<port>", a collapsed one
  // "cls<c>@ch<node>:<port>"; either way each row carries its class's own
  // ChannelClass::label.
  const topo::Hypercube hc(4);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  for (const core::CollapseMode mode :
       {core::CollapseMode::Dense, core::CollapseMode::Auto}) {
    const bool collapsed = mode == core::CollapseMode::Auto;
    QueryEngine::Options opts;
    opts.build.collapse = mode;
    QueryEngine qe(hc, uniform, opts);
    ASSERT_EQ(qe.resident_model(0).collapsed(), collapsed);
    WhatIfQuery q;
    q.metric = QueryMetric::ClassBreakdown;
    q.lambda0 = 0.003;
    const auto res = qe.run(q);
    const auto cold = core::build_traffic_model(hc, uniform, {}, opts.build);
    const auto sol = cold.solve(0.003);
    ASSERT_EQ(static_cast<int>(res.breakdown.size()), cold.graph.size());
    for (int id = 0; id < cold.graph.size(); ++id) {
      const auto& row = res.breakdown[static_cast<std::size_t>(id)];
      EXPECT_EQ(row.class_id, id);
      EXPECT_EQ(row.label, cold.graph.at(id).label);
      EXPECT_EQ(row.label.rfind(collapsed ? "cls" : "ch", 0), 0u) << row.label;
      EXPECT_NEAR(row.utilization, sol.utilization(id), kMetricTol);
      EXPECT_NEAR(row.wait, sol.wait(id), kMetricTol);
      EXPECT_NEAR(row.rate, cold.graph.at(id).rate_per_link * 0.003, kStateTol);
    }
  }
}

// ---------------------------------------------------------------------------
// Tuned variants: pinned answer bits, and a resident no batch ever tunes.

/// What one delta set answers, as pinned bits: Latency's latency and
/// inj_wait, Saturation's λ₀*, and the ClassBreakdown row sums.
struct PinnedTune {
  const char* tag;
  double latency, inj_wait, saturation_rate;
  double utilization_sum, wait_sum, service_sum;
};

// Answers of the two residents below to one query per delta set.
// clang-format off
const PinnedTune kTunedAnswers[] = {
    {"uniform lanes",
     0x1.a29ab57065b37p+4, 0x1.66199fa6e7282p-6, 0x1.c75ee55a5afdcp-7,
     0x1.b200e34f6da12p+3, 0x1.66f434afca195p+2, 0x1.0f4f8216ed83bp+12},
    {"uniform buffers",
     0x1.f62add304182ep+4, 0x1.9ea8b0420b1bbp+0, 0x1.e779d897ab068p-8,
     0x1.fe1112e4eedd9p+4, 0x1.4e95bc503beb5p+8, 0x1.3fe6e16b66dbdp+12},
    {"uniform bandwidth",
     0x1.79bfd810de0dcp+4, 0x1.7d9975aaa8fbap-1, 0x1.47224caec7f4cp-7,
     0x1.826e009824f45p+4, 0x1.51fb798247508p+7, 0x1.e53cfd899b753p+11},
    {"uniform load",
     0x1.8a4bda2f78545p+4, 0x1.005f18e076abfp+0, 0x1.1152bb91fd604p-7,
     0x1.dac30e9007924p+4, 0x1.bc8583993f51p+7, 0x1.f08bd8167c2f9p+11},
    {"uniform arrival",
     0x1.5c87b5fc19642p+5, 0x1.4ad60f13c0ec8p+4, 0x1.4625dd3015648p-7,
     0x1.82bde80c6d8cdp+4, 0x1.08735cc24aaaep+8, 0x1.e59d0f4dd9f93p+11},
    {"uniform traffic+lanes",
     0x1.fb3d0f564ab26p+4, 0x1.858e5641a92c1p-5, 0x1.239e892432b3ap-8,
     0x1.0d22c1d6b514ep+4, 0x1.c2218df7b79b7p+5, 0x1.3a9f2dcf6a6e4p+12},
    {"uniform fault+load",
     0x1.8e14958820c12p+4, 0x1.072026e78d4dep+0, 0x1.dab1b0d4e804ap-8,
     0x1.dd2425081b165p+4, 0x1.c6c9d6c462acp+7, 0x1.ee818ab3415a3p+11},
    {"tapered hotspot lanes",
     0x1.1e7960d8ccc8ep+6, 0x1.00c5c717a59f7p-4, 0x1.21ad7e30fedf8p-9,
     0x1.07b9f201f9f89p+4, 0x1.9ab8cde5cc2a7p+8, 0x1.56e514ebfebd8p+13},
    {"tapered hotspot buffers",
     0x1.3be77d837c4c4p+6, 0x1.156b39396bdd8p+2, 0x1.364f73247cdcp-9,
     0x1.3e61eb2cb4142p+4, 0x1.5680c54644f33p+9, 0x1.69a66a5cc3acap+13},
    {"tapered hotspot bandwidth",
     0x1.bcf7089584849p+5, 0x1.e767d68163616p+0, 0x1.a7fd4cd54d992p-9,
     0x1.cb6700d59a5aep+3, 0x1.2f632b27e0cd4p+8, 0x1.04995a1559bbbp+13},
    {"tapered hotspot load",
     0x1.30f8334c93b2bp+6, 0x1.3031fbd1e898cp+2, 0x1.1768ee61af8b4p-9,
     0x1.65726f45d4a3p+4, 0x1.77907cda66a88p+9, 0x1.5075bd549bd37p+13},
    {"tapered hotspot arrival",
     0x1.19ec59697b82ep+7, 0x1.2129711e80a69p+6, 0x1.4d6d807196c0ap-9,
     0x1.22774661ec988p+4, 0x1.a8ccbffc5c57bp+9, 0x1.470731d470807p+13},
    {"tapered hotspot traffic+lanes",
     0x1.1e7960d8ccc8fp+6, 0x1.00c5c717a59f4p-4, 0x1.21ad7e30fedf8p-9,
     0x1.07b9f201f9f89p+4, 0x1.9ab8cde5cc2a7p+8, 0x1.56e514ebfebd7p+13},
    {"tapered hotspot fault+load",
     0x1.33d9d6e615037p+6, 0x1.36abf1f7e3e94p+2, 0x1.f418b6bddc85p-10,
     0x1.67083c3005b9ep+4, 0x1.80561c9c1a008p+9, 0x1.5111ebe7ecb58p+13},
};
// clang-format on

void print_tuned_answers(const std::vector<PinnedTune>& got,
                         const std::vector<std::string>& tags) {
  std::printf("const PinnedTune kTunedAnswers[] = {\n");
  for (std::size_t i = 0; i < got.size(); ++i)
    std::printf("    {\"%s\",\n     %a, %a, %a,\n     %a, %a, %a},\n",
                tags[i].c_str(), got[i].latency, got[i].inj_wait,
                got[i].saturation_rate, got[i].utilization_sum,
                got[i].wait_sum, got[i].service_sum);
  std::printf("};\n");
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One query per tune axis, plus traffic + lanes and fault + load, each
/// tagged; `moved` is the traffic delta and `faults` the fault delta.
std::vector<std::pair<std::string, WhatIfQuery>> tune_deltas(
    const traffic::TrafficSpec& moved,
    std::shared_ptr<const topo::FaultSet> faults) {
  std::vector<std::pair<std::string, WhatIfQuery>> deltas(7);
  deltas[0].first = "lanes";
  deltas[0].second.lanes = 2;
  deltas[1].first = "buffers";
  deltas[1].second.buffer_depth = 4;
  deltas[2].first = "bandwidth";
  deltas[2].second.bandwidth_scale = 1.25;
  deltas[3].first = "load";
  deltas[3].second.load_scale = 1.2;
  deltas[4].first = "arrival";
  deltas[4].second.arrival = arrivals::ArrivalSpec::batch(2.0);
  deltas[5].first = "traffic+lanes";
  deltas[5].second.traffic = moved;
  deltas[5].second.lanes = 2;
  deltas[6].first = "fault+load";
  deltas[6].second.faults = std::move(faults);
  deltas[6].second.load_scale = 1.2;
  return deltas;
}

TEST(QueryEngine, TunedVariantAnswersArePinned) {
  // A dense uniform BFT(3) and a dense tapered BFT(3) under a hotspot, each
  // asked every tune axis and two rewired combinations.  Any change of
  // these bits is a change of answers.
  const topo::ButterflyFatTree ft(3);
  topo::ButterflyFatTree tapered(3);
  tapered.set_tier_bandwidth(1, 0.5);
  tapered.set_tier_bandwidth(2, 0.25);
  struct Cell {
    const char* tag;
    const topo::ButterflyFatTree* topo;
    traffic::TrafficSpec spec, moved;
  };
  const std::vector<Cell> cells{
      {"uniform", &ft, traffic::TrafficSpec::uniform(),
       traffic::TrafficSpec::hotspot(0.2, 9)},
      {"tapered hotspot", &tapered, traffic::TrafficSpec::hotspot(0.1, 5),
       traffic::TrafficSpec::hotspot(0.1, 40)}};
  QueryEngine qe;
  std::vector<PinnedTune> got;
  std::vector<std::string> tags;
  for (const Cell& cell : cells) {
    const int id = qe.resident(*cell.topo, cell.spec);
    WhatIfQuery sat;
    sat.metric = QueryMetric::Saturation;
    const double lambda0 = 0.4 * qe.run(id, sat).saturation_rate;
    auto faults = std::make_shared<topo::FaultSet>(*cell.topo);
    faults->fail_link(cell.topo->switch_id(1, 2),
                      topo::ButterflyFatTree::kParentPort1);
    for (auto& [axis, delta] : tune_deltas(cell.moved, faults)) {
      std::vector<WhatIfQuery> batch(3, delta);
      batch[0].metric = QueryMetric::Latency;
      batch[0].lambda0 = lambda0;
      batch[1].metric = QueryMetric::Saturation;
      batch[2].metric = QueryMetric::ClassBreakdown;
      batch[2].lambda0 = lambda0;
      const std::vector<QueryResult> res = qe.run_batch(id, batch);
      PinnedTune p{nullptr, res[0].est.latency, res[0].est.inj_wait,
                   res[1].saturation_rate, 0.0, 0.0, 0.0};
      for (const ClassLoadRow& row : res[2].breakdown) {
        p.utilization_sum += row.utilization;
        p.wait_sum += row.wait;
        p.service_sum += row.service_time;
      }
      got.push_back(p);
      tags.push_back(std::string(cell.tag) + " " + axis);
    }
  }

  const std::size_t n = std::size(kTunedAnswers);
  bool ok = got.size() == n;
  EXPECT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n && i < got.size(); ++i) {
    const PinnedTune& w = kTunedAnswers[i];
    const PinnedTune& g = got[i];
    const bool row_ok = tags[i] == w.tag && same_bits(g.latency, w.latency) &&
                        same_bits(g.inj_wait, w.inj_wait) &&
                        same_bits(g.saturation_rate, w.saturation_rate) &&
                        same_bits(g.utilization_sum, w.utilization_sum) &&
                        same_bits(g.wait_sum, w.wait_sum) &&
                        same_bits(g.service_sum, w.service_sum);
    EXPECT_TRUE(row_ok) << tags[i];
    ok = ok && row_ok;
  }
  if (!ok) print_tuned_answers(got, tags);
}

TEST(QueryEngine, BatchesNeverTuneTheResident) {
  // Every tune axis, a traffic delta and a fault delta in one batch: the
  // resident model and its identity answers must come out bit-equal.  The
  // engine does not memoize, so the identity answers are solved afresh.
  const topo::ButterflyFatTree ft(3);
  QueryEngine::Options opts;
  opts.memoize = false;
  QueryEngine qe(ft, traffic::TrafficSpec::hotspot(0.1, 5), opts);
  WhatIfQuery identity;
  identity.metric = QueryMetric::Latency;
  identity.lambda0 = 0.003;
  WhatIfQuery identity_sat;
  identity_sat.metric = QueryMetric::Saturation;
  const std::uint64_t digest = qe.resident_model(0).model().content_digest();
  const QueryResult lat = qe.run(identity);
  const QueryResult sat = qe.run(identity_sat);

  auto faults = std::make_shared<topo::FaultSet>(ft);
  faults->fail_link(ft.switch_id(1, 2), topo::ButterflyFatTree::kParentPort1);
  std::vector<WhatIfQuery> batch;
  for (auto& [axis, delta] :
       tune_deltas(traffic::TrafficSpec::hotspot(0.1, 40), faults)) {
    delta.lambda0 = 0.003;
    batch.push_back(delta);
  }
  WhatIfQuery all = batch[5];  // traffic + lanes, then every other axis
  all.faults = faults;
  all.buffer_depth = 4;
  all.bandwidth_scale = 1.25;
  all.load_scale = 1.2;
  all.arrival = arrivals::ArrivalSpec::batch(2.0);
  batch.push_back(all);
  qe.run_batch(batch);

  EXPECT_EQ(qe.resident_model(0).model().content_digest(), digest);
  const QueryResult lat_after = qe.run(identity);
  EXPECT_EQ(lat_after.est.status, lat.est.status);
  EXPECT_TRUE(same_bits(lat_after.est.latency, lat.est.latency));
  EXPECT_TRUE(same_bits(lat_after.est.inj_wait, lat.est.inj_wait));
  EXPECT_TRUE(same_bits(qe.run(identity_sat).saturation_rate,
                        sat.saturation_rate));
}

// ---------------------------------------------------------------------------
// Link orbits: a single-link fault query is served by its orbit
// representative's variant, on every path through run_batch.
// ---------------------------------------------------------------------------

void expect_same_bits(const core::LatencyEstimate& a,
                      const core::LatencyEstimate& b, const std::string& tag) {
  EXPECT_EQ(a.status, b.status) << tag;
  EXPECT_EQ(a.stable, b.stable) << tag;
  EXPECT_EQ(a.latency, b.latency) << tag;
  EXPECT_EQ(a.inj_wait, b.inj_wait) << tag;
  EXPECT_EQ(a.inj_service, b.inj_service) << tag;
  EXPECT_EQ(a.mean_distance, b.mean_distance) << tag;
  EXPECT_EQ(a.unroutable_fraction, b.unroutable_fraction) << tag;
}

std::shared_ptr<const topo::FaultSet> one_link(const topo::Topology& t,
                                               int node, int port) {
  auto fs = std::make_shared<topo::FaultSet>(t);
  fs->fail_link(node, port);
  return fs;
}

TEST(QueryEngineOrbits, LoneQueryForAnyOrbitMateEqualsItsSweepRow) {
  const topo::ButterflyFatTree ft(3);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.2, 5);
  QueryEngine sweeper(ft, spec);
  const AvailabilityReport report = sweeper.availability_n_minus_1(0, 0.002);
  QueryEngine::Options o;
  o.memoize = false;  // every lone query prepares its variant afresh
  QueryEngine lone(ft, spec, o);
  for (const AvailabilityRow& row : report.rows) {
    WhatIfQuery q;
    q.lambda0 = 0.002;
    q.faults = row.faults;
    const QueryResult r = lone.run(q);
    expect_same_bits(r.est, row.est, row.label);
    EXPECT_EQ(r.cost, row.cost) << row.label;
    ASSERT_EQ(r.representative != nullptr, row.representative != nullptr)
        << row.label;
    if (r.representative) {
      EXPECT_EQ(r.representative->failed_links(),
                row.representative->failed_links())
          << row.label;
    }
  }
}

TEST(QueryEngineOrbits, ParallelSweepBitwiseEqualsSerialUnmemoized) {
  const topo::ButterflyFatTree ft(3);
  const topo::Hypercube hc(5);
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.2, 5);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  const std::pair<const topo::Topology*, const traffic::TrafficSpec*> cases[] = {
      {&ft, &hot}, {&ft, &uniform}, {&hc, &uniform}};
  for (const auto& [topo, spec] : cases) {
    QueryEngine::Options par;
    par.threads = 4;
    QueryEngine::Options ser;
    ser.parallel = false;
    ser.memoize = false;
    QueryEngine qpar(*topo, *spec, par);
    QueryEngine qser(*topo, *spec, ser);
    const AvailabilityReport rp = qpar.availability_n_minus_1(0, 0.002);
    const AvailabilityReport rs = qser.availability_n_minus_1(0, 0.002);
    ASSERT_EQ(rp.rows.size(), rs.rows.size());
    for (std::size_t i = 0; i < rp.rows.size(); ++i) {
      const std::string tag = topo->name() + " " + rp.rows[i].label;
      EXPECT_EQ(rp.rows[i].label, rs.rows[i].label) << tag;
      EXPECT_EQ(rp.rows[i].cost, rs.rows[i].cost) << tag;
      expect_same_bits(rp.rows[i].est, rs.rows[i].est, tag);
    }
    EXPECT_EQ(qpar.variants_prepared(), qser.variants_prepared());

    // The sweep again: every row from the result cache.
    const AvailabilityReport again = qpar.availability_n_minus_1(0, 0.002);
    for (const AvailabilityRow& row : again.rows) {
      EXPECT_EQ(row.cost, QueryCost::Memoized) << row.label;
      EXPECT_EQ(row.representative, nullptr) << row.label;
    }
  }
}

TEST(QueryEngineOrbits, OnlySingleLinkFaultsWithoutTrafficDeltaMove) {
  const topo::ButterflyFatTree ft(3);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  QueryEngine qe(ft, uniform);
  // Level 1↔2 links form one orbit under uniform traffic; its
  // representative is the first in enumeration order, S(1,0)'s parent 0.
  const int s1 = ft.switch_id(1, 0);
  const int mate_node = ft.switch_id(1, 3);
  const auto rep_link = one_link(ft, s1, topo::ButterflyFatTree::kParentPort0);
  const auto mate = one_link(ft, mate_node, topo::ButterflyFatTree::kParentPort1);
  auto two = std::make_shared<topo::FaultSet>(ft);
  two->fail_link(mate_node, topo::ButterflyFatTree::kParentPort1);
  two->fail_link(ft.switch_id(1, 6), topo::ButterflyFatTree::kParentPort0);
  auto top = std::make_shared<topo::FaultSet>(ft);
  top->fail_switch(ft.switch_id(3, 1));

  std::vector<WhatIfQuery> batch(6);
  for (WhatIfQuery& q : batch) q.lambda0 = 0.002;
  batch[0].faults = mate;                                    // moved
  batch[1].faults = mate;                                    // identical
  batch[2].faults = rep_link;                                // the representative
  batch[3].faults = mate;                                    // + traffic delta
  batch[3].traffic = traffic::TrafficSpec::hotspot(0.2, 3);
  batch[4].faults = two;                                     // two links
  batch[5].faults = top;                                     // a failed switch
  const std::vector<QueryResult> res = qe.run_batch(batch);

  EXPECT_EQ(res[0].cost, QueryCost::Symmetric);
  ASSERT_NE(res[0].representative, nullptr);
  EXPECT_EQ(res[0].representative->failed_links(), rep_link->failed_links());
  EXPECT_EQ(res[1].cost, QueryCost::Memoized);
  EXPECT_EQ(res[1].representative, nullptr);
  // Same answer key as [0], but its own link IS the representative: the
  // retune was done for this link.
  EXPECT_EQ(res[2].cost, QueryCost::Retune);
  EXPECT_EQ(res[2].representative, nullptr);
  EXPECT_EQ(res[2].est.latency, res[0].est.latency);
  // Uniform → hotspot changes every pair weight, so that variant rebuilds,
  // exactly as it does without the orbit rule.
  EXPECT_EQ(res[3].cost, QueryCost::Rebuild);
  EXPECT_EQ(res[4].cost, QueryCost::Retune);
  EXPECT_EQ(res[5].cost, QueryCost::Retune);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_EQ(res[i].representative, nullptr) << i;
  // Healthy-free batch: the orbit variant plus one per unmoved query.
  EXPECT_EQ(qe.variants_prepared(), 4u);

  // The unmoved queries answer for their OWN fault sets.
  const auto cold = [&](const topo::FaultSet& fs, const traffic::TrafficSpec& spec) {
    return core::build_traffic_model(topo::FaultedTopology(ft, fs), spec)
        .evaluate(0.002);
  };
  EXPECT_LE(rel(res[3].est.latency,
                cold(*mate, traffic::TrafficSpec::hotspot(0.2, 3)).latency),
            kMetricTol);
  EXPECT_LE(rel(res[4].est.latency, cold(*two, uniform).latency), kMetricTol);
  EXPECT_LE(rel(res[5].est.latency, cold(*top, uniform).latency), kMetricTol);
}

TEST(QueryEngineOrbits, SymmetricRowsNameTheirRepresentative) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::hotspot(0.2, 5));
  const AvailabilityReport report = qe.availability_n_minus_1(0, 0.002);
  std::vector<const AvailabilityRow*> retuned;
  for (const AvailabilityRow& row : report.rows)
    if (row.cost == QueryCost::Retune) retuned.push_back(&row);
  EXPECT_EQ(retuned.size(), 5u);  // BFT(3) link orbits with one pin
  std::size_t symmetric = 0;
  for (const AvailabilityRow& row : report.rows) {
    if (row.cost != QueryCost::Symmetric) {
      EXPECT_EQ(row.representative, nullptr) << row.label;
      continue;
    }
    ++symmetric;
    ASSERT_NE(row.representative, nullptr) << row.label;
    ASSERT_EQ(row.representative->failed_links().size(), 1u) << row.label;
    const std::pair<int, int> own = row.faults->failed_links().front();
    const std::pair<int, int> rep = row.representative->failed_links().front();
    // The representative is its orbit's first link in enumeration order.
    EXPECT_LT(rep, own) << row.label;
    // ...and exactly one retuned row is that link, with the same bits.
    int matches = 0;
    for (const AvailabilityRow* r : retuned) {
      if (r->faults->failed_links().front() != rep) continue;
      ++matches;
      expect_same_bits(row.est, r->est, row.label);
    }
    EXPECT_EQ(matches, 1) << row.label;
  }
  EXPECT_EQ(symmetric, report.rows.size() - retuned.size());
}

TEST(QueryEngineOrbits, PublishMetricsCountsSymmetricRows) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::uniform());
  const AvailabilityReport report = qe.availability_n_minus_1(0, 0.002);
  std::uint64_t rows = 0;
  for (const AvailabilityRow& row : report.rows)
    rows += row.cost == QueryCost::Symmetric ? 1 : 0;
  EXPECT_EQ(rows, 46u);
  EXPECT_EQ(qe.served_symmetric(), rows);
  obs::Registry reg;
  qe.publish_metrics(reg, "t");
  EXPECT_EQ(reg.value("wormnet_query_served", "engine=t,cost=symmetric"),
            static_cast<double>(rows));
  EXPECT_EQ(reg.value("wormnet_query_served", "engine=t,cost=retune"), 2.0);
}

}  // namespace
}  // namespace wormnet::harness
