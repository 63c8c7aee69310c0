// Long-run stress tests: large networks, high load, mixed patterns — the
// conservation and sanity invariants must survive hundreds of thousands of
// worm lifecycles (these exercise the worm free-list recycling, the bundle
// dirty-list mechanics, and the tagged-accounting paths at scale).
#include <gtest/gtest.h>

#include "core/fattree_model.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet::sim {
namespace {

void expect_invariants(const SimResult& r, double min_latency) {
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.latency.count(), r.generated_messages);  // all tagged delivered
  EXPECT_GE(r.latency.min(), min_latency);
  EXPECT_GE(r.queue_wait.min(), 0.0);
  EXPECT_GE(r.inj_service.min(), 0.0);
  EXPECT_GT(r.delivered_flits, 0);
}

TEST(SimStress, Fig3ScaleNetworkNearKnee) {
  // N = 1024 at 80% of saturation: tens of thousands of worms in one run.
  topo::ButterflyFatTree ft(5);
  core::FatTreeModel model({.levels = 5, .worm_flits = 16.0});
  SimConfig cfg;
  cfg.load_flits = model.saturation_load() * 0.8;
  cfg.worm_flits = 16;
  cfg.seed = 99;
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 20'000;
  cfg.max_cycles = 400'000;
  cfg.channel_stats = true;
  const SimResult r = simulate(ft, cfg);
  expect_invariants(r, 16.0 + 2.0 - 1.0);
  EXPECT_GT(r.generated_messages, 20'000);
  // No channel can have been busy longer than the window.
  for (const ChannelStat& st : r.channels)
    EXPECT_LE(st.busy_cycles, cfg.measure_cycles + 1);
}

TEST(SimStress, RepeatedRunsOnOneNetworkAreIndependent) {
  // Re-using a SimNetwork across many Simulator instances must not leak
  // state: identical seeds give identical results even after other runs.
  topo::ButterflyFatTree ft(3);
  SimNetwork net(ft);
  SimConfig cfg;
  cfg.load_flits = 0.08;
  cfg.worm_flits = 16;
  cfg.seed = 1;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 10'000;
  Simulator first(net, cfg);
  const SimResult a = first.run();
  for (std::uint64_t s = 2; s < 6; ++s) {
    SimConfig other = cfg;
    other.seed = s;
    Simulator mid(net, other);
    mid.run();
  }
  Simulator again(net, cfg);
  const SimResult b = again.run();
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.cycles_run, b.cycles_run);
}

TEST(SimStress, AllTopologiesSurviveHighLoad) {
  // 90% of each network's measured comfort zone, long windows.
  struct Case {
    const topo::Topology* topo;
    double load;
  };
  topo::ButterflyFatTree ft(3);
  topo::Hypercube hc(6);
  topo::Mesh mesh(8, 2);
  topo::ButterflyFatTree gen(2, 3);
  const Case cases[] = {{&ft, 0.13}, {&hc, 0.38}, {&mesh, 0.15}, {&gen, 0.24}};
  for (const Case& c : cases) {
    SimConfig cfg;
    cfg.load_flits = c.load;
    cfg.worm_flits = 16;
    cfg.seed = 7;
    cfg.warmup_cycles = 4'000;
    cfg.measure_cycles = 25'000;
    cfg.max_cycles = 500'000;
    cfg.channel_stats = false;
    const SimResult r = simulate(*c.topo, cfg);
    expect_invariants(r, 16.0);
    EXPECT_FALSE(r.saturated) << c.topo->name();
  }
}

TEST(SimStress, MixedWormLengthsAcrossRuns) {
  // Worm length sweep on one network: latency ordering must hold at equal
  // flit load (longer worms => higher absolute latency).
  topo::ButterflyFatTree ft(3);
  SimNetwork net(ft);
  double prev = 0.0;
  for (int sf : {4, 8, 16, 32, 64}) {
    SimConfig cfg;
    cfg.load_flits = 0.08;
    cfg.worm_flits = sf;
    cfg.seed = 11;
    cfg.warmup_cycles = 3'000;
    cfg.measure_cycles = 15'000;
    cfg.max_cycles = 400'000;
    cfg.channel_stats = false;
    Simulator s(net, cfg);
    const SimResult r = s.run();
    ASSERT_TRUE(r.completed) << "sf=" << sf;
    EXPECT_GT(r.latency.mean(), prev) << "sf=" << sf;
    prev = r.latency.mean();
  }
}

TEST(SimStress, OverloadLongRunConservation) {
  topo::ButterflyFatTree ft(3);
  SimConfig cfg;
  cfg.arrivals = ArrivalProcess::Overload;
  cfg.worm_flits = 16;
  cfg.seed = 13;
  cfg.warmup_cycles = 10'000;
  cfg.measure_cycles = 40'000;
  const SimResult r = simulate(ft, cfg);
  EXPECT_TRUE(r.completed);
  // Delivered flits must be a multiple of the worm length.
  EXPECT_EQ(r.delivered_flits % 16, 0);
  EXPECT_EQ(r.delivered_flits / 16, r.delivered_messages);
  // Capacity band sanity for N = 64.
  EXPECT_GT(r.throughput_flits_per_pe, 0.10);
  EXPECT_LT(r.throughput_flits_per_pe, 0.30);
}

TEST(SimStress, HotspotLongRunStaysWedgeFree) {
  // Saturated hotspot traffic for a long horizon: the watchdog must never
  // fire (progress continues even though the backlog grows).
  topo::ButterflyFatTree ft(2);
  SimConfig cfg;
  cfg.load_flits = 0.3;
  cfg.worm_flits = 16;
  cfg.traffic = traffic::TrafficSpec::hotspot(0.5);
  cfg.seed = 17;
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 10'000;
  cfg.max_cycles = 60'000;
  const SimResult r = simulate(ft, cfg);
  EXPECT_TRUE(r.saturated);           // by construction
  EXPECT_GT(r.delivered_messages, 0);  // but it kept delivering throughout
}

}  // namespace
}  // namespace wormnet::sim
