// Virtual-channel (multi-lane) extension tests.  Three guarantees:
//
//  * lanes == 1 is provably unchanged — the kernel at L = 1 is the paper's
//    channel (test_solver_golden.cpp pins the solver's bits across lane
//    counts), and seeded simulator runs are bit-identical to golden traces
//    captured from the pre-virtual-channel simulator;
//  * the lane-aware kernel behaves physically — blocking discounts L-fold,
//    the multiplexing excess grows with link utilization and diverges at
//    the wire's one flit/cycle, closed form and collapsed-graph solver
//    agree at machine precision for every L;
//  * lanes buy real headroom where blocking dominates — hotspot saturation
//    strictly improves from one lane to two in BOTH the model and the
//    flit-level simulator, with the interior optimum (gain flattening past
//    L ~ 2-4) documented in EXPERIMENTS.md rather than asserted away.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/traffic_model.hpp"
#include "queueing/channel_solver.hpp"
#include "queueing/queueing.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet {
namespace {

using core::GeneralModel;
using core::SolveOptions;
using queueing::ChannelSolver;

// ---------------------------------------------------------------------------
// Kernel units: the three lane-aware ingredients of ChannelSolver.

TEST(VirtualChannelKernel, BlockingFactorDiscountsLFold) {
  const ChannelSolver solver(16.0);
  const double base = solver.blocking_factor({}, 0.01, 0.02, 0.5);
  ASSERT_GT(base, 0.0);
  for (int lanes : {1, 2, 3, 4, 8}) {
    EXPECT_DOUBLE_EQ(solver.blocking_factor({.lanes = lanes}, 0.01, 0.02, 0.5),
                     base / lanes)
        << "lanes=" << lanes;
  }
  // Monotone non-increasing in L: each extra lane is an extra escape from
  // the head-of-line wait.
  double prev = base;
  for (int lanes = 2; lanes <= 16; ++lanes) {
    const double p =
        solver.blocking_factor({.servers = 2, .lanes = lanes}, 0.01, 0.02, 0.5);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(VirtualChannelKernel, SingleLaneIsThePaperForm) {
  const ChannelSolver solver(16.0);
  // At L = 1 the lane-aware kernel is the paper's channel exactly: the
  // Eq. 10 factor, Hokstad's M/G/2 at the total rate (Eq. 8 + erratum), and
  // no multiplexing stretch.
  EXPECT_EQ(solver.blocking_factor({.servers = 2, .lanes = 1}, 0.01, 0.02, 0.5),
            util::clamp01(1.0 - (0.01 / 0.02) * 0.5));
  EXPECT_EQ(solver.bundle_wait({.servers = 2, .lanes = 1}, 0.01, 20.0),
            queueing::mg2_wait_wormhole(0.02, 20.0, 16.0));
  EXPECT_EQ(solver.bundle_wait({.servers = 1, .lanes = 1}, 0.01, 20.0),
            queueing::mg1_wait_wormhole(0.01, 20.0, 16.0));
  EXPECT_DOUBLE_EQ(solver.lane_excess(1, 0.02), 0.0);
}

TEST(VirtualChannelKernel, LaneExcessTracksTheWire) {
  const ChannelSolver solver(16.0);
  // No load, no sharing.
  EXPECT_DOUBLE_EQ(solver.lane_excess(2, 0.0), 0.0);
  // Increasing in link utilization and in lane count (more lanes share the
  // same flit/cycle).
  double prev = 0.0;
  for (double lambda : {0.01, 0.02, 0.03, 0.05}) {
    const double e = solver.lane_excess(2, lambda);
    EXPECT_GT(e, prev);
    prev = e;
  }
  EXPECT_GT(solver.lane_excess(4, 0.03), solver.lane_excess(2, 0.03));
  // V is bounded by the physical L-way interleave: excess < (L-1)·s_f.
  EXPECT_LT(solver.lane_excess(4, 0.0624), 3.0 * 16.0);
  // Past one flit/cycle the link is infeasible regardless of lanes.
  EXPECT_TRUE(std::isinf(solver.lane_excess(2, 1.0 / 16.0)));
}

TEST(VirtualChannelKernel, LaneWaitDivergesAtLaneOccupancy) {
  const ChannelSolver solver(16.0);
  // λ·x̄ = 1.2 > 1: a single-lane channel is saturated...
  EXPECT_TRUE(std::isinf(solver.bundle_wait({.lanes = 1}, 0.06, 20.0)));
  // ...but two lane latches hold it comfortably (occupancy 0.6 < 2)...
  EXPECT_TRUE(std::isfinite(solver.bundle_wait({.lanes = 2}, 0.06, 20.0)));
  // ...until occupancy reaches the lane pool.
  EXPECT_TRUE(std::isinf(solver.bundle_wait({.lanes = 2}, 0.11, 20.0)));
}

// ---------------------------------------------------------------------------
// Closed form vs collapsed graph per lane count.  (lanes == 1 bit identity
// with the paper path is pinned by SolverGolden in test_solver_golden.cpp.)

TEST(VirtualChannelParity, ClosedFormMatchesCollapsedGraphForEveryLaneCount) {
  // The closed-form recurrence and the general solver on the collapsed
  // 2n-class graph are two encodings of the same lane-aware equations.
  for (int lanes : {1, 2, 4}) {
    core::FatTreeModelOptions opts{.levels = 3, .worm_flits = 16.0};
    opts.lanes = lanes;
    const core::FatTreeModel closed(opts);
    GeneralModel graph = core::build_fattree_collapsed(3);
    graph.set_uniform_lanes(lanes);
    SolveOptions sopts;
    sopts.worm_flits = 16.0;
    for (double lambda0 : {0.001, 0.004, 0.008}) {
      const double a = closed.evaluate(lambda0).latency;
      const double b = core::model_latency(graph, lambda0, sopts).latency;
      ASSERT_TRUE(std::isfinite(a) && std::isfinite(b)) << "lanes=" << lanes;
      EXPECT_NEAR(a, b, 1e-9 * b) << "lanes=" << lanes << " lambda0=" << lambda0;
    }
  }
}

// ---------------------------------------------------------------------------
// Lane physics in the model: hotspot saturation strictly improves with the
// second lane on every topology; where blocking dominates (fat-tree, mesh
// under hotspot) the gain is monotone through L = 4.  (Saturation is NOT
// globally monotone in L — the shared flit/cycle eventually claws the gain
// back, in the simulator as in the model; EXPERIMENTS.md records that
// interior optimum.)

double traffic_model_saturation(topo::Topology& topo,
                                const traffic::TrafficSpec& spec, int lanes) {
  topo.set_uniform_lanes(lanes);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const GeneralModel net = core::build_traffic_model(topo, spec, opts);
  return core::model_saturation_rate(net, opts);
}

TEST(VirtualChannelModel, HotspotSaturationStrictlyImprovesWithSecondLane) {
  topo::ButterflyFatTree ft(3);
  topo::Mesh mesh(3, 3);
  topo::Hypercube hc(4);
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.1);
  for (topo::Topology* topo :
       std::initializer_list<topo::Topology*>{&ft, &mesh, &hc}) {
    const double sat1 = traffic_model_saturation(*topo, hot, 1);
    const double sat2 = traffic_model_saturation(*topo, hot, 2);
    EXPECT_GT(sat2, sat1) << topo->name();
    topo->set_uniform_lanes(1);
  }
}

TEST(VirtualChannelModel, BlockingDominatedSaturationMonotoneThroughFourLanes) {
  topo::ButterflyFatTree ft(3);
  topo::Mesh mesh(3, 3);
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.1);
  for (topo::Topology* topo : std::initializer_list<topo::Topology*>{&ft, &mesh}) {
    double prev = 0.0;
    for (int lanes : {1, 2, 4}) {
      const double sat = traffic_model_saturation(*topo, hot, lanes);
      EXPECT_GE(sat, prev) << topo->name() << " lanes=" << lanes;
      prev = sat;
    }
    topo->set_uniform_lanes(1);
  }
}

TEST(VirtualChannelModel, ClosedFormHotspotFreeLatencyDropsWithLanes) {
  // At a fixed load below L1 saturation, the second lane's blocking relief
  // outweighs its multiplexing cost in the closed form too.
  core::FatTreeModelOptions o1{.levels = 3, .worm_flits = 16.0};
  core::FatTreeModelOptions o2 = o1;
  o2.lanes = 2;
  const core::FatTreeModel m1(o1), m2(o2);
  const double load = m1.saturation_load() * 0.9;
  const double l1 = m1.evaluate_load(load).latency;
  const double l2 = m2.evaluate_load(load).latency;
  ASSERT_TRUE(std::isfinite(l1));
  ASSERT_TRUE(std::isfinite(l2));
  EXPECT_LT(l2, l1);
}

// ---------------------------------------------------------------------------
// Simulator: lanes == 1 seeded runs must be BIT-IDENTICAL to golden traces
// captured from the pre-virtual-channel simulator (exact comparisons, no
// tolerances — hex-float means captured verbatim).

struct GoldenRun {
  const char* tag;
  long cycles_run;
  long long delivered_messages, delivered_flits, generated_messages, tagged;
  double latency_mean, queue_wait_mean, inj_service_mean, distance_mean;
};

const GoldenRun kGolden[] = {
    {"fattree2-uniform", 12045L, 2012LL, 32192LL, 2013LL, 2013LL,
     0x1.cfd1334038f94p+4, 0x1.38e0d7afa05e1p+2, 0x1.57dc64366e21fp+4,
     0x1.cde4c8ef16003p+1},
    {"fattree2-hotspot", 12021L, 1006LL, 16096LL, 1008LL, 1008LL, 0x1.65p+4,
     0x1.89e79e79e79e4p+0, 0x1.22d34d34d34cep+4, 0x1.cc71c71c71c75p+1},
    {"hypercube3-uniform", 12007L, 1255LL, 20080LL, 1253LL, 1253LL,
     0x1.aedd1023f5602p+4, 0x1.450e81884648p+2, 0x1.31f4266903e1cp+4,
     0x1.dd2a4ac6ff637p+1},
    {"hypercube3-bitcomp", 12008L, 1460LL, 11680LL, 1461LL, 1461LL,
     0x1.9e34375ecb9b8p+3, 0x1.e34375ecb9bbfp-1, 0x1p+3, 0x1.4p+2},
    {"mesh4x2-uniform", 11999L, 1037LL, 16592LL, 1036LL, 1036LL,
     0x1.6e7c8a60dd67ap+4, 0x1.a9c2b7d8769cp+0, 0x1.198769c2b7d89p+4,
     0x1.2963d48278965p+2},
    {"mesh4x2-nn", 12016L, 3024LL, 24192LL, 3025LL, 3025LL,
     0x1.be235fe235fd6p+3, 0x1.48dd6319791a3p+0, 0x1.2bfefc05c1362p+3,
     0x1.12116ef28b4cdp+2},
};

sim::SimResult golden_config_run(const topo::Topology& topo, double load,
                                 int worm, std::uint64_t seed,
                                 const traffic::TrafficSpec& spec) {
  sim::SimConfig cfg;
  cfg.load_flits = load;
  cfg.worm_flits = worm;
  cfg.seed = seed;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 10000;
  cfg.max_cycles = 200000;
  cfg.traffic = spec;
  return sim::simulate(topo, cfg);
}

void expect_golden(const GoldenRun& g, const sim::SimResult& r) {
  EXPECT_EQ(r.cycles_run, g.cycles_run) << g.tag;
  EXPECT_EQ(r.delivered_messages, g.delivered_messages) << g.tag;
  EXPECT_EQ(r.delivered_flits, g.delivered_flits) << g.tag;
  EXPECT_EQ(r.generated_messages, g.generated_messages) << g.tag;
  EXPECT_EQ(r.latency.count(), g.tagged) << g.tag;
  EXPECT_EQ(r.latency.mean(), g.latency_mean) << g.tag;
  EXPECT_EQ(r.queue_wait.mean(), g.queue_wait_mean) << g.tag;
  EXPECT_EQ(r.inj_service.mean(), g.inj_service_mean) << g.tag;
  EXPECT_EQ(r.distance.mean(), g.distance_mean) << g.tag;
}

TEST(VirtualChannelSim, SingleLaneSeededRunsBitIdenticalToGoldenTraces) {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(3);
  const topo::Mesh mesh(4, 2);
  expect_golden(kGolden[0], golden_config_run(ft, 0.20, 16, 42,
                                              traffic::TrafficSpec::uniform()));
  expect_golden(kGolden[1], golden_config_run(ft, 0.10, 16, 43,
                                              traffic::TrafficSpec::hotspot(0.2)));
  expect_golden(kGolden[2], golden_config_run(hc, 0.25, 16, 44,
                                              traffic::TrafficSpec::uniform()));
  expect_golden(kGolden[3], golden_config_run(hc, 0.15, 8, 45,
                                              traffic::TrafficSpec::bit_complement()));
  expect_golden(kGolden[4], golden_config_run(mesh, 0.10, 16, 46,
                                              traffic::TrafficSpec::uniform()));
  expect_golden(kGolden[5], golden_config_run(mesh, 0.15, 8, 47,
                                              traffic::TrafficSpec::nearest_neighbor(0.5)));
}

// ---------------------------------------------------------------------------
// Simulator lane semantics.

TEST(VirtualChannelSim, LaneTablesIndexTheLatches) {
  topo::ButterflyFatTree ft(2);
  ft.set_uniform_lanes(3);
  const sim::SimNetwork net(ft);
  EXPECT_EQ(net.max_lanes(), 3);
  EXPECT_EQ(net.num_lanes(), 3 * net.num_channels());
  for (int ch = 0; ch < net.num_channels(); ++ch) {
    EXPECT_EQ(net.channel_lanes(ch), 3);
    for (int lane = net.lane_begin(ch); lane < net.lane_begin(ch + 1); ++lane) {
      EXPECT_EQ(net.lane_channel(lane), ch);
    }
  }
}

TEST(VirtualChannelSim, UncontendedWormUnaffectedByLanes) {
  // One scripted worm: lanes change nothing without contention — latency is
  // exactly D + s_f - 1.
  for (int lanes : {1, 2, 4}) {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_lanes(lanes);
    const sim::SimNetwork net(ft);
    sim::SimConfig cfg;
    cfg.worm_flits = 16;
    sim::Simulator s(net, cfg);
    s.add_message(0, 0, 15);
    const sim::SimResult r = s.run();
    ASSERT_TRUE(r.completed);
    const double d = ft.distance(0, 15);
    EXPECT_DOUBLE_EQ(r.latency.mean(), d + 16.0 - 1.0) << "lanes=" << lanes;
  }
}

TEST(VirtualChannelSim, SecondLanePassesABlockedWorm) {
  // Two worms to the SAME destination share the ejection link.  With one
  // lane the second worm waits for the first's full drain before it can
  // even hold the ejection latch; with two lanes it occupies the spare lane
  // immediately and interleaves its drain, finishing strictly earlier.
  auto run = [](int lanes) {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_lanes(lanes);
    const sim::SimNetwork net(ft);
    sim::SimConfig cfg;
    cfg.worm_flits = 16;
    sim::Simulator s(net, cfg);
    s.add_message(0, 1, 3);   // seizes the ejection channel of PE 3
    s.add_message(0, 2, 3);   // queues behind it (lane 2 of the ejection link)
    const sim::SimResult r = s.run();
    EXPECT_TRUE(r.completed);
    return r.cycles_run;
  };
  const long one = run(1);
  const long two = run(2);
  EXPECT_LT(two, one);
}

TEST(VirtualChannelSim, HotspotOverloadThroughputStrictlyImprovesWithSecondLane) {
  // The acceptance gate: lanes > 1 must buy real saturation headroom under
  // hotspot in the SIMULATOR too (the model side is tested above).
  struct Case {
    const char* name;
    std::unique_ptr<topo::Topology> topo;
  };
  std::vector<Case> cases;
  cases.push_back({"fattree2", std::make_unique<topo::ButterflyFatTree>(2)});
  cases.push_back({"mesh-3ary-3d", std::make_unique<topo::Mesh>(3, 3)});
  cases.push_back({"hypercube4", std::make_unique<topo::Hypercube>(4)});
  for (Case& c : cases) {
    double ovl[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      const int lanes = i == 0 ? 1 : 2;
      // set_uniform_lanes is non-virtual base state; safe through the
      // concrete pointer.
      c.topo->set_uniform_lanes(lanes);
      sim::SimConfig cfg;
      cfg.arrivals = sim::ArrivalProcess::Overload;
      cfg.worm_flits = 16;
      cfg.seed = 21;
      cfg.traffic = traffic::TrafficSpec::hotspot(0.1);
      cfg.warmup_cycles = 5000;
      cfg.measure_cycles = 25000;
      cfg.channel_stats = false;
      ovl[i] = sim::simulate(*c.topo, cfg).throughput_flits_per_pe;
    }
    EXPECT_GT(ovl[1], ovl[0]) << c.name;
  }
}

TEST(VirtualChannelSim, LaneRunsConserveFlits) {
  // Seeded open-loop run at L = 2: every generated-and-tagged message is
  // delivered, flit accounting closes, and latency never beats zero-load.
  topo::Hypercube hc(3);
  hc.set_uniform_lanes(2);
  sim::SimConfig cfg;
  cfg.load_flits = 0.3;
  cfg.worm_flits = 16;
  cfg.seed = 99;
  cfg.warmup_cycles = 3000;
  cfg.measure_cycles = 15000;
  const sim::SimResult r = sim::simulate(hc, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.delivered_flits, 16 * r.delivered_messages);
  EXPECT_GE(r.latency.min(), 16.0 + 2.0 - 1.0);  // D >= 2 channels
  EXPECT_GT(r.latency.count(), 0);
}

}  // namespace
}  // namespace wormnet
