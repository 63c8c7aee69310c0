// Contract-violation (death) tests and boundary-condition coverage across
// modules: wormnet enforces its preconditions in all build types, because a
// silently-invalid queueing parameter produces plausible garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/channel_graph.hpp"
#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "queueing/queueing.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"

namespace wormnet {
namespace {

using ::testing::KilledBySignal;

TEST(ContractDeath, QueueingRejectsNegativeRates) {
  EXPECT_DEATH(queueing::mg1_wait(-0.1, 10.0, 0.5), "precondition");
  EXPECT_DEATH(queueing::mgm_wait(0, 0.1, 10.0, 0.5), "precondition");
  EXPECT_DEATH(queueing::wormhole_cb2(10.0, 0.0), "precondition");
}

TEST(ContractDeath, FatTreeModelRejectsBadOptions) {
  EXPECT_DEATH(core::FatTreeModel({.levels = 0, .worm_flits = 16.0}), "precondition");
  EXPECT_DEATH(core::FatTreeModel({.levels = 9, .worm_flits = 16.0}), "precondition");
  EXPECT_DEATH(core::FatTreeModel({.levels = 3, .worm_flits = 0.0}), "precondition");
  EXPECT_DEATH(core::FatTreeModel({.levels = 3, .worm_flits = 16.0, .parents = 5}),
               "precondition");
}

TEST(ContractDeath, TopologyRejectsOutOfRange) {
  topo::ButterflyFatTree ft(2);
  EXPECT_DEATH(ft.neighbor(-1, 0), "precondition");
  EXPECT_DEATH(ft.neighbor(0, 1), "precondition");  // processors have one port
  EXPECT_DEATH(ft.route(0, 99), "precondition");
  EXPECT_DEATH(ft.switch_id(3, 0), "precondition");  // only two levels
  EXPECT_DEATH(ft.covers(1, ft.switches_at(1), 0), "precondition");
  EXPECT_DEATH(topo::ButterflyFatTree(0), "precondition");
  EXPECT_DEATH(topo::ButterflyFatTree(2, 0), "precondition");
  EXPECT_DEATH(topo::ButterflyFatTree(2, 5), "precondition");
  // route() checks the node as well as the destination.
  EXPECT_DEATH(ft.route(-1, 5), "precondition");
  EXPECT_DEATH(ft.route(ft.num_nodes(), 5), "precondition");
  const topo::ButterflyFatTree ft_m3(2, 3);
  EXPECT_DEATH(ft_m3.route(-1, 5), "precondition");
  EXPECT_DEATH(ft_m3.route(ft_m3.num_nodes(), 5), "precondition");
  const topo::Hypercube hc(3);
  EXPECT_DEATH(hc.route(-1, 5), "precondition");
  EXPECT_DEATH(hc.route(hc.num_nodes(), 5), "precondition");
  const topo::Mesh mesh(3, 2);
  EXPECT_DEATH(mesh.route(-1, 5), "precondition");
  EXPECT_DEATH(mesh.route(mesh.num_nodes(), 5), "precondition");
  // The fault layer's link queries check (node, port) before reading.
  const topo::FaultSet fs(ft);
  const topo::FaultedTopology view(ft, fs);
  const int last = ft.num_nodes() - 1;
  EXPECT_DEATH(fs.link_failed(0, 1), "precondition");
  EXPECT_DEATH(fs.link_failed(last, ft.num_ports(last)), "precondition");
  EXPECT_DEATH(fs.link_failed(ft.num_nodes(), 0), "precondition");
  EXPECT_DEATH(view.link_ok(0, 1), "precondition");
  EXPECT_DEATH(view.link_ok(last, ft.num_ports(last)), "precondition");
  EXPECT_DEATH(view.link_ok(-1, 0), "precondition");
}

TEST(ContractDeath, ChannelGraphRejectsBadTransitions) {
  core::ChannelGraph g;
  core::ChannelClass c;
  const int id = g.add_channel(c);
  EXPECT_DEATH(g.add_transition(id, 7, 1.0), "precondition");
  EXPECT_DEATH(g.add_transition(id, id, 1.5), "precondition");
  EXPECT_DEATH(g.at(3), "precondition");
}

TEST(ContractDeath, ChannelGraphRejectsTransitionsOutOfClassOrder) {
  // The transitions are one flat array filled class by class: once class 1
  // has continuations, class 0 can get no more.
  core::ChannelGraph g;
  core::ChannelClass c;
  const int a = g.add_channel(c);
  const int b = g.add_channel(c);
  const int e = g.add_channel(c);
  g.add_transition(a, e, 0.5);
  g.add_transition(b, e, 1.0);
  EXPECT_DEATH(g.add_transition(a, b, 0.5), "precondition");
}

TEST(ContractDeath, ChannelGraphRejectsRouteProbAboveOne) {
  core::ChannelGraph g;
  core::ChannelClass c;
  const int a = g.add_channel(c);
  const int e = g.add_channel(c);
  EXPECT_DEATH(g.add_transition(a, e, 1.0, 1.5), "precondition");
}

TEST(ContractDeath, NetworkModelUnknownLabel) {
  const core::GeneralModel net = core::build_fattree_collapsed(2);
  EXPECT_DEATH(net.class_id("nonexistent"), "precondition");
}

TEST(ContractDeath, SimulatorRejectsBadMessages) {
  topo::ButterflyFatTree ft(1);
  sim::SimNetwork net(ft);
  sim::SimConfig cfg;
  sim::Simulator s(net, cfg);
  EXPECT_DEATH(s.add_message(0, 0, 0), "precondition");   // src == dst
  EXPECT_DEATH(s.add_message(0, 0, 99), "precondition");  // dst out of range
  EXPECT_DEATH(s.add_message(-1, 0, 1), "precondition");  // negative cycle
}

TEST(ContractDeath, HistogramRejectsEmptyRange) {
  EXPECT_DEATH(util::Histogram(1.0, 1.0, 4), "precondition");
  EXPECT_DEATH(util::Histogram(0.0, 1.0, 0), "precondition");
}

TEST(ContractDeath, TableRejectsRaggedRows) {
  util::Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({1.0}), "precondition");
}

TEST(EdgeCases, SolveAtExactlyZeroWorm) {
  EXPECT_DEATH(
      [] {
        core::SolveOptions opts;
        opts.worm_flits = 0.0;
        const core::GeneralModel net = core::build_fattree_collapsed(2);
        core::SolvePlan(net, opts).solve(1.0);
      }(),
      "precondition");
}

TEST(EdgeCases, SmallestSimulationsComplete) {
  // The 4-processor fat-tree with 1-flit worms at modest load.
  topo::ButterflyFatTree ft(1);
  sim::SimConfig cfg;
  cfg.load_flits = 0.05;
  cfg.worm_flits = 1;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 2'000;
  cfg.max_cycles = 50'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.latency.min(), 2.0);  // D_min = 2, s_f = 1
}

TEST(EdgeCases, ZeroWarmupOpenLoopRunRejected) {
  // An open-loop measurement run with zero warmup tags messages into empty
  // queues from cycle 0 and biases every latency statistic; the simulator
  // now fails fast instead of silently misbehaving (scripted runs — which
  // legitimately use warmup 0 — are exempt and covered by test_sim_basic).
  topo::ButterflyFatTree ft(1);
  sim::SimConfig cfg;
  cfg.load_flits = 0.02;
  cfg.worm_flits = 8;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 5'000;
  EXPECT_THROW(sim::simulate(ft, cfg), std::invalid_argument);
}

TEST(EdgeCases, MinimalWarmupSimulation) {
  topo::ButterflyFatTree ft(1);
  sim::SimConfig cfg;
  cfg.load_flits = 0.02;
  cfg.worm_flits = 8;
  cfg.warmup_cycles = 1;
  cfg.measure_cycles = 5'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  EXPECT_TRUE(r.completed);
}

TEST(EdgeCases, ZeroLoadSimulationDeliversNothing) {
  topo::ButterflyFatTree ft(1);
  sim::SimConfig cfg;
  cfg.load_flits = 0.0;
  cfg.worm_flits = 8;
  cfg.warmup_cycles = 10;
  cfg.measure_cycles = 100;
  const sim::SimResult r = sim::simulate(ft, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.latency.count(), 0);
  EXPECT_EQ(r.delivered_messages, 0);
}

TEST(EdgeCases, ModelAtExactlySaturationIsUnstableOrHuge) {
  core::FatTreeModel m({.levels = 3, .worm_flits = 16.0});
  const core::FatTreeEvaluation ev = m.evaluate_detail(m.saturation_rate() * 1.0001);
  EXPECT_FALSE(ev.stable);
}

TEST(EdgeCases, MaxSupportedFatTree) {
  // levels = 8 => 65,536 processors; the model must stay fast and finite.
  core::FatTreeModel m({.levels = 8, .worm_flits = 16.0});
  const core::FatTreeEvaluation ev = m.evaluate_load_detail(0.001);
  EXPECT_TRUE(ev.stable);
  EXPECT_GT(m.saturation_load(), 0.0);
  EXPECT_NEAR(ev.mean_distance, m.mean_distance(), 1e-12);
}

// Heterogeneous-link attributes fail fast at configuration time with
// std::invalid_argument — never NaN or garbage mid-solve / mid-simulation.
TEST(HeteroValidation, TopologySettersRejectBadAttributes) {
  topo::ButterflyFatTree ft(2);
  EXPECT_THROW(ft.set_uniform_bandwidth(0.0), std::invalid_argument);
  EXPECT_THROW(ft.set_uniform_bandwidth(-1.0), std::invalid_argument);
  EXPECT_THROW(ft.set_uniform_link_latency(-0.5), std::invalid_argument);
  EXPECT_THROW(ft.set_uniform_buffer_depth(0), std::invalid_argument);
  EXPECT_THROW(ft.set_tier_bandwidth(-1, 0.5), std::invalid_argument);
  EXPECT_THROW(ft.set_tier_bandwidth(2, 0.5), std::invalid_argument);  // levels=2
  EXPECT_THROW(ft.set_tier_bandwidth(1, 0.0), std::invalid_argument);
  // Valid settings still go through after the failed attempts.
  EXPECT_NO_THROW(ft.set_tier_bandwidth(1, 0.5));
  EXPECT_DOUBLE_EQ(ft.bandwidth(ft.num_processors(), 4), 0.5);
}

TEST(HeteroValidation, ModelSettersRejectBadAttributes) {
  topo::ButterflyFatTree ft(2);
  core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  EXPECT_THROW(net.set_uniform_buffers(0), std::invalid_argument);
  EXPECT_THROW(net.scale_bandwidths(0.0), std::invalid_argument);
  EXPECT_THROW(net.scale_bandwidths(-2.0), std::invalid_argument);
  std::vector<double> bw(static_cast<std::size_t>(net.graph.size()), 1.0);
  bw.pop_back();
  EXPECT_THROW(net.set_channel_bandwidths(bw), std::invalid_argument);  // size
  bw.push_back(0.0);
  EXPECT_THROW(net.set_channel_bandwidths(bw), std::invalid_argument);  // entry
  bw.back() = 0.5;
  EXPECT_NO_THROW(net.set_channel_bandwidths(bw));
  // A scale multiplies the per-class bandwidths, whatever their shape.
  EXPECT_NO_THROW(net.scale_bandwidths(2.0));
  EXPECT_EQ(net.graph.at(0).bandwidth, 2.0);
  EXPECT_EQ(net.graph.at(net.graph.size() - 1).bandwidth, 1.0);
}

TEST(HeteroValidation, SimNetworkRejectsUnrealizableAttributes) {
  // The flit simulator realizes bandwidth as an integer claim period 1/bw,
  // so it rejects what it cannot step cycle-accurately.
  {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_bandwidth(0.3);  // 1/0.3 is not a whole cycle count
    EXPECT_THROW(sim::SimNetwork net(ft), std::invalid_argument);
  }
  {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_bandwidth(2.0);  // super-unit bandwidth has no sim lane
    EXPECT_THROW(sim::SimNetwork net(ft), std::invalid_argument);
  }
  {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_link_latency(1.5);  // fractional pipeline cycles
    EXPECT_THROW(sim::SimNetwork net(ft), std::invalid_argument);
  }
  {
    topo::ButterflyFatTree ft(2);
    ft.set_uniform_bandwidth(0.25);
    ft.set_uniform_link_latency(3.0);
    ft.set_uniform_buffer_depth(2);
    EXPECT_NO_THROW(sim::SimNetwork net(ft));  // realizable hetero config
  }
}

// -- fault-layer validation ---------------------------------------------------
// A FaultSet rejects malformed failures up front (std::invalid_argument, not a
// contract abort: fault descriptions arrive from operators, not from code),
// and scripted sim fault events are validated the same way before cycle 0.

TEST(FaultValidation, FaultSetRejectsBadLinks) {
  topo::ButterflyFatTree ft(2);
  topo::FaultSet fs(ft);
  const int s10 = ft.switch_id(1, 0);
  EXPECT_THROW(fs.fail_link(-1, 0), std::invalid_argument);
  EXPECT_THROW(fs.fail_link(ft.num_nodes(), 0), std::invalid_argument);
  EXPECT_THROW(fs.fail_link(s10, -1), std::invalid_argument);
  EXPECT_THROW(fs.fail_link(s10, ft.num_ports(s10)), std::invalid_argument);
  // Injection/ejection links cannot fail — from either endpoint.
  EXPECT_THROW(fs.fail_link(0, 0), std::invalid_argument);
  EXPECT_THROW(fs.fail_link(s10, 0), std::invalid_argument);
  // Double-fail is rejected even when named from the other endpoint.
  fs.fail_link(s10, topo::ButterflyFatTree::kParentPort0);
  EXPECT_THROW(fs.fail_link(s10, topo::ButterflyFatTree::kParentPort0),
               std::invalid_argument);
  const int top = ft.neighbor(s10, topo::ButterflyFatTree::kParentPort0);
  const int back = ft.neighbor_port(s10, topo::ButterflyFatTree::kParentPort0);
  EXPECT_THROW(fs.fail_link(top, back), std::invalid_argument);
  EXPECT_EQ(fs.failed_links().size(), 1u);
}

TEST(FaultValidation, FailSwitchValidatesBeforeFailing) {
  topo::ButterflyFatTree ft(2);
  topo::FaultSet fs(ft);
  // A processor is not a switch.
  EXPECT_THROW(fs.fail_switch(0), std::invalid_argument);
  // A level-1 switch has processor attachment links, which cannot fail; the
  // rejection must leave the set untouched (validate-all-then-apply).
  EXPECT_THROW(fs.fail_switch(ft.switch_id(1, 0)), std::invalid_argument);
  EXPECT_TRUE(fs.empty());
  // A top switch has only switch-switch links and expands cleanly.
  EXPECT_NO_THROW(fs.fail_switch(ft.switch_id(2, 0)));
  EXPECT_EQ(fs.failed_links().size(), 4u);
}

TEST(FaultValidation, SimRejectsBadFaultEvents) {
  topo::ButterflyFatTree ft(2);
  sim::SimNetwork net(ft);
  const int s10 = ft.switch_id(1, 0);
  const int up0 = topo::ButterflyFatTree::kParentPort0;
  const auto reject = [&](std::vector<sim::FaultEvent> events) {
    sim::SimConfig cfg;
    cfg.fault_events = std::move(events);
    EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  };
  reject({{100, -1, 0, false}});                     // node out of range
  reject({{100, s10, 99, false}});                   // port out of range
  reject({{100, s10, 0, false}});                    // ejection link
  reject({{100, 0, 0, false}});                      // injection link
  reject({{100, s10, up0, false}, {200, s10, up0, false}});  // down twice
  reject({{100, s10, up0, true}});                   // up while not down
  // Order-insensitive: the same double-down named from the peer endpoint.
  const int top = ft.neighbor(s10, up0);
  const int back = ft.neighbor_port(s10, up0);
  reject({{100, s10, up0, false}, {200, top, back, false}});
  // Down→up→down is a legal script.
  {
    sim::SimConfig cfg;
    cfg.fault_events = {{100, s10, up0, false},
                        {200, s10, up0, true},
                        {300, s10, up0, false}};
    EXPECT_NO_THROW(sim::Simulator(net, cfg));
  }
}

TEST(FaultValidation, SimRejectsEventsOnStaticallyFailedLinks) {
  topo::ButterflyFatTree ft(2);
  topo::FaultSet fs(ft);
  const int s10 = ft.switch_id(1, 0);
  const int up0 = topo::ButterflyFatTree::kParentPort0;
  fs.fail_link(s10, up0);
  topo::FaultedTopology view(ft, fs);
  sim::SimNetwork net(view);
  sim::SimConfig cfg;
  // Scripting the already-dead link is meaningless: the degraded routing
  // never recovers it, so an up event could only strand worms.
  cfg.fault_events = {{100, s10, up0, false}};
  EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  // Scripting a LIVE link of the degraded fabric is fine.
  cfg.fault_events = {{100, s10, topo::ButterflyFatTree::kParentPort1, false}};
  EXPECT_NO_THROW(sim::Simulator(net, cfg));
}

TEST(FaultValidation, StallTimeoutMustStayBelowWatchdog) {
  topo::ButterflyFatTree ft(2);
  sim::SimNetwork net(ft);
  sim::SimConfig cfg;
  cfg.fault_events = {{100, ft.switch_id(1, 0),
                       topo::ButterflyFatTree::kParentPort0, false}};
  cfg.fault_stall_timeout = cfg.watchdog_cycles;  // drops could never preempt
  EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  cfg.fault_stall_timeout = 0;  // no grace at all is equally meaningless
  EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  cfg.fault_stall_timeout = cfg.watchdog_cycles - 1;
  EXPECT_NO_THROW(sim::Simulator(net, cfg));
}

}  // namespace
}  // namespace wormnet
