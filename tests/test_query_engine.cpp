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

#include <cmath>
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
    ASSERT_EQ(a.next.size(), b.next.size()) << tag << " ch " << id;
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
// Delta axis 2: lanes (bitwise contract).

TEST(RetunableTrafficModel, LaneDeltaBitwiseIdenticalToTopologyRebuild) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.2, 1));
    rm.set_uniform_lanes(4);

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
    ASSERT_EQ(rm.model().graph.size(), cold.graph.size()) << tc.tag;
    for (int id = 0; id < cold.graph.size(); ++id) {
      EXPECT_EQ(rm.model().graph.at(id).rate_per_link,
                cold.graph.at(id).rate_per_link)
          << tc.tag << " ch " << id;
      EXPECT_EQ(rm.model().graph.at(id).lanes, cold.graph.at(id).lanes)
          << tc.tag << " ch " << id;
    }
    EXPECT_EQ(rm.model().evaluate(0.002).latency, cold.evaluate(0.002).latency)
        << tc.tag;
  }
}

TEST(RetunableTrafficModel, LaneTuneSurvivesRetune) {
  const topo::ButterflyFatTree ft(2);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  rm.set_uniform_lanes(4);
  rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 9));
  topo::ButterflyFatTree ft4(2);
  ft4.set_uniform_lanes(4);
  const auto cold =
      core::build_traffic_model(ft4, traffic::TrafficSpec::hotspot(0.2, 9));
  expect_parity(rm.model(), cold, 0.003, "lanes survive");
}

// ---------------------------------------------------------------------------
// Delta axis 3: load (scale_injection_rates).

TEST(RetunableTrafficModel, LoadDeltaMatchesScaledLambdaEvaluation) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo, traffic::TrafficSpec::uniform());
    rm.scale_injection_rates(1.25);
    const auto cold =
        core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
    const auto scaled = rm.model().evaluate(0.004);
    const auto ref = cold.evaluate(0.004 * 1.25);
    EXPECT_LE(rel(scaled.latency, ref.latency), kMetricTol) << tc.tag;
    // The channel state is identical up to the scaling, so the injection
    // service time (what saturation is defined through) agrees too.  Note
    // λ₀* itself does NOT scale by 1/1.25: Eq. 26's λ·x̄_inj(λ) = 1 puts λ
    // on both sides.
    EXPECT_LE(rel(scaled.inj_service, ref.inj_service), kMetricTol) << tc.tag;
  }
}

TEST(RetunableTrafficModel, LoadScaleComposesAndSurvivesRetune) {
  const topo::Hypercube hc(4);
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::hotspot(0.2, 1));
  rm.scale_injection_rates(1.5);
  rm.scale_injection_rates(0.8);  // composes to 1.2
  rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 7));
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::hotspot(0.2, 7));
  const auto got = rm.model().evaluate(0.004);
  const auto ref = cold.evaluate(0.004 * 1.2);
  EXPECT_LE(rel(got.latency, ref.latency), kMetricTol);
}

// ---------------------------------------------------------------------------
// Delta axis 4: arrival process.

TEST(RetunableTrafficModel, ArrivalDeltaParityAndSurvivesRetune) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.2, 1));
    rm.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
    rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 2));
    auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::hotspot(0.2, 2));
    cold.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
    expect_parity(rm.model(), cold, 0.001, tc.tag);
    EXPECT_NEAR(rm.model().arrival_ca2(), cold.arrival_ca2(), kStateTol);
    EXPECT_NEAR(rm.model().arrival_batch_residual(),
                cold.arrival_batch_residual(), kStateTol);
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
