// Degraded-routing model-vs-sim conformance and the N−1 availability sweep.
//
// The fault layer's acceptance table: a levels-2 butterfly fat-tree under
// uniform traffic, degraded by a single failure, simulated with the SAME
// FaultedTopology the model solves — the decorator's route() IS the degraded
// routing, so the simulator exercises it with no fault-specific sim code.
// Axes:
//  * taper    — healthy tier bandwidths (1:1) or tier-1 links at half the
//               processor bandwidth (2:1, the oversubscribed fabric);
//  * failure  — an up-link (one level-1 switch loses a parent; the redundant
//               parent absorbs the reroute) or a mid-fabric switch (one top
//               switch fails wholesale; the other carries everything);
//  * load     — 20% and 50% of the DEGRADED model's own saturation point.
// The relative latency error |model − sim| / sim must stay within 10% at
// the 20% point and 15% at 50% — the same below-80%-load contract as the
// healthy and heterogeneous tables (raw errors in EXPERIMENTS.md).  The
// table is the "fault" slice of the accuracy map (harness/accuracy_map.hpp),
// run as one SimEngine campaign over four degraded fabrics.
//
// Alongside the table: the N−1 availability sweep acceptance — every
// failable link of a 3-level fat-tree swept through harness::QueryEngine,
// every scenario served as Retune or cheaper (never a per-scenario rebuild),
// one retune per link orbit, ranked worst-first, and memoized on repeat.
// The orbit rule is checked by brute force: every orbit-served row against
// its OWN link's cold build, and topologies that declare no fault symmetry
// against a one-retune-per-scenario reference, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "accuracy_slice.hpp"
#include "core/traffic_model.hpp"
#include "harness/query_engine.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/symmetry.hpp"

namespace wormnet {
namespace {

const AccuracySlice& slice() {
  static const AccuracySlice s("fault");
  return s;
}

class FaultConformance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultConformance, DegradedLatencyWithinCellBounds) {
  const harness::AccuracyRow& row = slice().rows()[GetParam()];
  const std::string& tag = row.cell.label;
  ASSERT_GT(row.saturation_rate, 0.0);
  for (const harness::AccuracyPoint& p : row.points) {
    ASSERT_EQ(p.model.status, core::SolveStatus::Ok) << tag;
    // A single failure on BFT(2) severs nothing: no demand is unroutable in
    // the model, no message is discarded in the simulator.
    EXPECT_EQ(p.model.unroutable_fraction, 0.0) << tag;
    EXPECT_EQ(p.sim.unroutable_messages, 0) << tag;
  }
  check_points(row, tag);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, FaultConformance, ::testing::Range<std::size_t>(0, slice().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return slice().label(info.param);
    });

// Failures cost capacity in the model the way they cost it in the fabric:
// degraded saturation below healthy, and the wholesale top-switch failure
// below the single up-link one, per taper.
TEST(FaultConformanceShape, FailureSeverityOrdersSaturation) {
  const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  for (const double taper : {1.0, 0.5}) {
    topo::ButterflyFatTree healthy(2);
    if (taper != 1.0) healthy.set_tier_bandwidth(1, taper);
    const double sat_healthy = core::model_saturation_rate(
        core::build_traffic_model(healthy, spec, opts), opts);

    // The degraded models' λ₀*, as the map solved them for the table.
    double sat_uplink = std::nan(""), sat_midsw = std::nan("");
    for (const harness::AccuracyRow& row : slice().rows()) {
      if (row.cell.taper != taper) continue;
      (row.cell.fault == harness::FaultKind::UpLink ? sat_uplink : sat_midsw) =
          row.saturation_rate;
    }

    EXPECT_LT(sat_uplink, sat_healthy) << "taper " << taper;
    EXPECT_LT(sat_midsw, sat_uplink) << "taper " << taper;
  }
}

// ---------------------------------------------------------------------------
// N−1 availability sweep through the query engine (acceptance criterion).
// ---------------------------------------------------------------------------

TEST(AvailabilitySweep, NMinus1OverEveryLinkIsRetuneOrCheaper) {
  // 3-level fat-tree: 64 processors, 16 + 8 + 4 switches, 48 failable
  // switch-to-switch links (16·2 level-1→2 plus 8·2 level-2→3).
  topo::ButterflyFatTree ft(3);
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());

  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double sat = engine.run(sat_q).saturation_rate;
  ASSERT_GT(sat, 0.0);
  const double lambda0 = 0.25 * sat;

  const harness::AvailabilityReport report =
      engine.availability_n_minus_1(0, lambda0);
  ASSERT_EQ(report.rows.size(), 48u);
  EXPECT_EQ(report.lambda0, lambda0);
  EXPECT_EQ(report.baseline.status, core::SolveStatus::Ok);
  ASSERT_TRUE(std::isfinite(report.baseline.latency));

  for (const harness::AvailabilityRow& row : report.rows) {
    // THE acceptance bar: every scenario is served by the fault delta —
    // Retune or cheaper, never a per-scenario rebuild.
    EXPECT_NE(row.cost, harness::QueryCost::Rebuild) << row.label;
    // N−1 on a fat-tree severs nothing (redundant parents), so every
    // scenario still serves all demand...
    EXPECT_EQ(row.est.unroutable_fraction, 0.0) << row.label;
    EXPECT_EQ(row.est.status, core::SolveStatus::Ok) << row.label;
    EXPECT_FALSE(std::isnan(row.est.latency)) << row.label;
    // ...at a latency no better than the healthy baseline.
    EXPECT_GE(row.est.latency, report.baseline.latency * (1.0 - 1e-9))
        << row.label;
    ASSERT_NE(row.faults, nullptr);
    EXPECT_EQ(row.faults->failed_links().size(), 1u) << row.label;
  }
  EXPECT_EQ(report.scenarios_ok, 48);
  // Ranked worst-first, deterministically.
  for (std::size_t i = 1; i < report.rows.size(); ++i) {
    EXPECT_GE(report.rows[i - 1].est.latency * (1.0 + 1e-12),
              report.rows[i].est.latency)
        << "rank " << i;
  }
  EXPECT_EQ(engine.served_rebuild(), 0u);
  // Two link orbits under uniform traffic (level 1↔2 and level 2↔3): one
  // retune each, the other 46 rows answered by their orbit's retune.
  EXPECT_EQ(engine.served_retune(), 2u);
  EXPECT_EQ(engine.served_symmetric(), 46u);

  // The sweep again: every scenario now memoized — the resident service
  // answers availability questions from cache.
  const harness::AvailabilityReport again =
      engine.availability_n_minus_1(0, lambda0);
  ASSERT_EQ(again.rows.size(), report.rows.size());
  for (std::size_t i = 0; i < again.rows.size(); ++i) {
    EXPECT_EQ(again.rows[i].cost, harness::QueryCost::Memoized) << i;
    EXPECT_EQ(again.rows[i].est.latency, report.rows[i].est.latency) << i;
    EXPECT_EQ(again.rows[i].label, report.rows[i].label) << i;
  }
  EXPECT_EQ(engine.served_rebuild(), 0u);
}

// N−k scenarios: a double-parent failure cuts a level-1 switch's block off;
// the report ranks the cut above any single-link row and classifies it
// Disconnected, while the engine still never rebuilds.
TEST(AvailabilitySweep, NMinusKScenariosRankCutsWorst) {
  topo::ButterflyFatTree ft(2);
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());

  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = 0.25 * engine.run(sat_q).saturation_rate;

  const int s1 = ft.switch_id(1, 0);
  auto one = std::make_shared<topo::FaultSet>(ft);
  one->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  auto cut = std::make_shared<topo::FaultSet>(ft);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort1);

  const harness::AvailabilityReport report = engine.availability_scenarios(
      0, lambda0, {one, cut}, {"one-parent", "both-parents"});
  ASSERT_EQ(report.rows.size(), 2u);
  // The cut ranks first on unroutable demand, regardless of latency.
  EXPECT_EQ(report.rows[0].label, "both-parents");
  EXPECT_EQ(report.rows[0].est.status, core::SolveStatus::Disconnected);
  EXPECT_NEAR(report.rows[0].est.unroutable_fraction, 96.0 / 240.0, 1e-12);
  EXPECT_EQ(report.rows[1].label, "one-parent");
  EXPECT_EQ(report.rows[1].est.status, core::SolveStatus::Ok);
  EXPECT_EQ(report.scenarios_ok, 1);
  EXPECT_EQ(engine.served_rebuild(), 0u);
}

// ---------------------------------------------------------------------------
// Link orbits: one fault retune per orbit, checked link by link.
// ---------------------------------------------------------------------------

double rel_diff(double a, double b) {
  const double mag = std::max(std::abs(a), std::abs(b));
  return mag == 0.0 ? 0.0 : std::abs(a - b) / mag;
}

double quarter_saturation(harness::QueryEngine& engine) {
  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  return 0.25 * engine.run(sat_q).saturation_rate;
}

TEST(AvailabilitySweep, OrbitRowsMatchTheirOwnColdBuilds) {
  topo::ButterflyFatTree bft2(2), bft3(3), bft4(4), tapered3(3);
  tapered3.set_tier_bandwidth(1, 0.5);
  tapered3.set_tier_bandwidth(2, 0.25);
  topo::Hypercube hc3(3), hc5(5);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  const traffic::TrafficSpec hot0 = traffic::TrafficSpec::hotspot(0.2, 0);
  const traffic::TrafficSpec hot5 = traffic::TrafficSpec::hotspot(0.2, 5);
  struct Case {
    const char* tag;
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
    int orbits;  ///< pinned link-orbit count
  };
  const Case cases[] = {
      {"bft2 uniform", &bft2, uniform, 1}, {"bft2 hot0", &bft2, hot0, 2},
      {"bft2 hot5", &bft2, hot5, 2},       {"bft3 uniform", &bft3, uniform, 2},
      {"bft3 hot0", &bft3, hot0, 5},       {"bft3 hot5", &bft3, hot5, 5},
      {"bft3 tapered", &tapered3, uniform, 2},
      {"bft4 uniform", &bft4, uniform, 3}, {"hc3 uniform", &hc3, uniform, 3},
      {"hc5 uniform", &hc5, uniform, 5},
  };
  for (const Case& c : cases) {
    harness::QueryEngine engine(*c.topo, c.spec);
    const double lambda0 = quarter_saturation(engine);
    const std::uint64_t variants0 = engine.variants_prepared();
    const std::uint64_t retunes0 = engine.served_retune();
    const harness::AvailabilityReport report =
        engine.availability_n_minus_1(0, lambda0);
    EXPECT_EQ(engine.variants_prepared() - variants0,
              static_cast<std::uint64_t>(c.orbits + 1))
        << c.tag;
    EXPECT_EQ(engine.served_retune() - retunes0,
              static_cast<std::uint64_t>(c.orbits))
        << c.tag;
    EXPECT_EQ(engine.served_symmetric(), report.rows.size() - c.orbits)
        << c.tag;
    for (const harness::AvailabilityRow& row : report.rows) {
      const topo::FaultedTopology view(*c.topo, *row.faults);
      const core::LatencyEstimate cold =
          core::build_traffic_model(view, c.spec).evaluate(lambda0);
      EXPECT_EQ(row.est.status, cold.status) << c.tag << " " << row.label;
      EXPECT_LE(rel_diff(row.est.latency, cold.latency), 1e-9)
          << c.tag << " " << row.label;
      EXPECT_EQ(row.representative != nullptr,
                row.cost == harness::QueryCost::Symmetric)
          << c.tag << " " << row.label;
    }
  }
}

TEST(AvailabilitySweep, UndeclaredTopologiesRetuneEveryScenario) {
  // No fault symmetry declared (meshes, a fat-tree with m != 2 parents) or none
  // for the resident's pins (a hypercube hotspot, a permutation): every
  // row is its own link's retune, bit for bit.
  topo::Mesh mesh3(3, 2), mesh4(4, 2);
  topo::ButterflyFatTree bft_m3(3, 3);
  topo::Hypercube hc3(3);
  topo::ButterflyFatTree bft3(3);
  std::vector<int> dest(static_cast<std::size_t>(bft3.num_processors()));
  for (int p = 0; p < bft3.num_processors(); ++p)
    dest[static_cast<std::size_t>(p)] = (p * 5 + 3) % bft3.num_processors();
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  struct Case {
    const char* tag;
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
  };
  const Case cases[] = {
      {"mesh3", &mesh3, uniform},
      {"mesh4", &mesh4, uniform},
      {"bft(3, m=3)", &bft_m3, uniform},
      {"hc3 hotspot", &hc3, traffic::TrafficSpec::hotspot(0.2, 1)},
      {"bft3 permutation", &bft3, traffic::TrafficSpec::permutation(dest)},
  };
  for (const Case& c : cases) {
    harness::QueryEngine engine(*c.topo, c.spec);
    const double lambda0 = quarter_saturation(engine);
    const std::uint64_t variants0 = engine.variants_prepared();
    const harness::AvailabilityReport report =
        engine.availability_n_minus_1(0, lambda0);
    ASSERT_FALSE(report.rows.empty()) << c.tag;
    EXPECT_EQ(engine.variants_prepared() - variants0, report.rows.size() + 1)
        << c.tag;
    EXPECT_EQ(engine.served_symmetric(), 0u) << c.tag;
    // The reference: one fresh retune of the resident per scenario.
    const core::RetunableTrafficModel base(*c.topo, c.spec);
    for (const harness::AvailabilityRow& row : report.rows) {
      core::RetunableTrafficModel own(base);
      own.retune_faults(row.faults);
      const core::LatencyEstimate want = own.model().evaluate(lambda0);
      EXPECT_NE(row.cost, harness::QueryCost::Symmetric) << c.tag << " " << row.label;
      EXPECT_EQ(row.est.status, want.status) << c.tag << " " << row.label;
      EXPECT_EQ(row.est.latency, want.latency) << c.tag << " " << row.label;
      EXPECT_EQ(row.est.inj_wait, want.inj_wait) << c.tag << " " << row.label;
    }
  }
}

TEST(AvailabilitySweep, MeshReflectionMatesDifferUnderFaults) {
  // Why Mesh declares no fault symmetry: its reflections are orbits of the
  // healthy model, but the survivor routing breaks ties by port order, and
  // a reflection swaps an axis's + and − ports.  Two links of one
  // reflection orbit give measurably different degraded latencies.
  const topo::Mesh mesh(4, 2);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  const std::vector<int> no_pins;
  ASSERT_TRUE(mesh.has_symmetry(no_pins));
  EXPECT_FALSE(mesh.has_fault_symmetry(no_pins));
  const topo::ChannelTable ct(mesh);
  topo::SymmetryClasses sym;
  ASSERT_TRUE(topo::topology_symmetry(mesh, no_pins, sym));

  const double lambda0 =
      0.25 * core::build_traffic_model(mesh, uniform).saturation_rate();
  // Per link orbit (unordered class pair): the range of cold latencies.
  std::vector<std::pair<double, double>> range;
  double widest = 0.0;
  for (int ch = 0; ch < ct.size(); ++ch) {
    const topo::DirectedChannel& dc = ct.at(ch);
    if (mesh.is_processor(dc.src_node) || mesh.is_processor(dc.dst_node)) continue;
    if (ct.reverse(ch) < ch) continue;  // each undirected link once
    const int a = sym.channel_class[static_cast<std::size_t>(ch)];
    const int b = sym.channel_class[static_cast<std::size_t>(ct.reverse(ch))];
    const auto orbit = static_cast<std::size_t>(std::min(a, b) * sym.num_channel_classes +
                                                std::max(a, b));
    if (range.size() <= orbit) range.resize(orbit + 1, {HUGE_VAL, -HUGE_VAL});
    topo::FaultSet fs(mesh);
    fs.fail_link(dc.src_node, dc.src_port);
    const double lat = core::build_traffic_model(topo::FaultedTopology(mesh, fs), uniform)
                           .evaluate(lambda0)
                           .latency;
    range[orbit] = {std::min(range[orbit].first, lat),
                    std::max(range[orbit].second, lat)};
    widest = std::max(widest, range[orbit].second - range[orbit].first);
  }
  EXPECT_GT(widest, 1e-6);
}

}  // namespace
}  // namespace wormnet
