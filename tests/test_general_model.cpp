// Tests for the channel graph and the general model solver (§2).
#include "core/general_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/channel_graph.hpp"
#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "queueing/queueing.hpp"
#include "topo/channels.hpp"
#include "topo/hypercube.hpp"

namespace wormnet::core {
namespace {

// A minimal two-channel graph: injection feeding an ejection channel —
// effectively an M/G/1 queue in front of a deterministic drain.
GeneralModel two_channel_line() {
  GeneralModel net;
  ChannelClass ej;
  ej.label = "eject";
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  const int ej_id = net.graph.add_channel(ej);
  ChannelClass inj;
  inj.label = "inj";
  inj.rate_per_link = 1.0;
  const int inj_id = net.graph.add_channel(inj);
  net.graph.add_transition(inj_id, ej_id, 1.0, 1.0);
  net.injection_classes = {inj_id};
  net.mean_distance = 2.0;
  return net;
}

TEST(ChannelGraph, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(two_channel_line().graph.validate().empty());
}

TEST(ChannelGraph, ValidateRejectsBadWeights) {
  ChannelGraph g;
  ChannelClass a;
  a.rate_per_link = 1.0;
  const int ia = g.add_channel(a);
  ChannelClass b;
  b.terminal = true;
  b.rate_per_link = 1.0;
  const int ib = g.add_channel(b);
  g.add_transition(ia, ib, 0.5);  // weights sum to 0.5, not 1
  EXPECT_FALSE(g.validate().empty());
}

TEST(ChannelGraph, ValidateRejectsTerminalWithTransitions) {
  ChannelGraph g;
  ChannelClass a;
  a.terminal = true;
  const int ia = g.add_channel(a);
  ChannelClass b;
  b.terminal = true;
  const int ib = g.add_channel(b);
  g.mutable_at(ia).terminal = true;
  g.add_transition(ia, ib, 1.0);
  EXPECT_FALSE(g.validate().empty());
}

TEST(ChannelGraph, ReverseTopologicalOrderPutsTerminalsFirst) {
  const GeneralModel net = two_channel_line();
  const std::vector<int> order = net.graph.reverse_topological_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], net.class_id("eject"));
  EXPECT_EQ(order[1], net.class_id("inj"));
  EXPECT_TRUE(net.graph.acyclic());
}

TEST(ChannelGraph, CycleDetected) {
  ChannelGraph g;
  ChannelClass a;
  const int ia = g.add_channel(a);
  const int ib = g.add_channel(a);
  g.add_transition(ia, ib, 1.0);
  g.add_transition(ib, ia, 1.0);
  EXPECT_TRUE(g.reverse_topological_order().empty());
  EXPECT_FALSE(g.acyclic());
}

TEST(GeneralModel, TwoChannelLineMatchesHandComputation) {
  // x̄_ej = s_f.  W_ej = M/G/1 wait at (λ, s_f) with the wormhole C².
  // Blocking: single input feeding single output exclusively -> P = 0, so
  // x̄_inj = s_f exactly, and W_inj is the source M/G/1 wait.
  const GeneralModel net = two_channel_line();
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const double lambda0 = 0.03;
  const SolveResult res = SolvePlan(net, opts).solve(lambda0);
  ASSERT_TRUE(res.stable);
  EXPECT_DOUBLE_EQ(res.service_time(net.class_id("eject")), 16.0);
  EXPECT_NEAR(res.service_time(net.class_id("inj")), 16.0, 1e-12);
  EXPECT_NEAR(res.wait(net.class_id("inj")),
              queueing::mg1_wait_wormhole(lambda0, 16.0, 16.0), 1e-12);
  const LatencyEstimate est = model_latency(net, lambda0, opts);
  EXPECT_NEAR(est.latency, est.inj_wait + 16.0 + 2.0 - 1.0, 1e-12);
}

TEST(GeneralModel, BlockingOffRestoresFullWait) {
  const GeneralModel net = two_channel_line();
  SolveOptions with;
  with.worm_flits = 16.0;
  SolveOptions without = with;
  without.ablation.blocking_correction = false;
  const double lambda0 = 0.03;
  const SolveResult a = SolvePlan(net, with).solve(lambda0);
  const SolveResult b = SolvePlan(net, without).solve(lambda0);
  // With the correction, the single input never waits for itself: x̄ = s_f.
  EXPECT_NEAR(a.service_time(net.class_id("inj")), 16.0, 1e-12);
  // Without it, the ejection wait is charged in full.
  EXPECT_GT(b.service_time(net.class_id("inj")), 16.0);
}

// The repository's central consistency check: the general solver on the
// collapsed fat-tree graph must reproduce the §3 closed form EXACTLY.
class CollapsedVsClosedForm
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(CollapsedVsClosedForm, Agree) {
  const auto [levels, sf, frac] = GetParam();
  FatTreeModel closed({.levels = levels, .worm_flits = sf});
  const GeneralModel net = build_fattree_collapsed(levels);
  SolveOptions opts;
  opts.worm_flits = sf;
  const double lambda0 = closed.saturation_rate() * frac;

  const FatTreeEvaluation ev = closed.evaluate_detail(lambda0);
  const LatencyEstimate est = model_latency(net, lambda0, opts);
  ASSERT_EQ(ev.stable, est.stable);
  if (!ev.stable) return;
  EXPECT_NEAR(est.latency, ev.latency, 1e-9 * std::max(1.0, ev.latency));
  EXPECT_NEAR(est.inj_wait, ev.inj_wait, 1e-9);
  EXPECT_NEAR(est.inj_service, ev.inj_service, 1e-9);

  // Per-level detail agrees too.
  const SolveResult res = SolvePlan(net, opts).solve(lambda0);
  for (int l = 0; l < levels; ++l) {
    EXPECT_NEAR(res.service_time(net.class_id("up" + std::to_string(l))),
                ev.x_up[static_cast<std::size_t>(l)], 1e-9);
    EXPECT_NEAR(res.service_time(net.class_id("down" + std::to_string(l))),
                ev.x_down[static_cast<std::size_t>(l)], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollapsedVsClosedForm,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(16.0, 64.0),
                       ::testing::Values(0.2, 0.6, 0.9)));

TEST(GeneralModel, AblationFlagsMatchClosedFormAblations) {
  // Each ablation switch must act identically on both implementations.
  const int levels = 4;
  const double sf = 16.0, lambda0 = 0.0012;
  const GeneralModel net = build_fattree_collapsed(levels);
  for (int mask = 0; mask < 8; ++mask) {
    FatTreeModelOptions fo{.levels = levels, .worm_flits = sf};
    SolveOptions so;
    so.worm_flits = sf;
    fo.ablation.multi_server = (mask & 1) != 0;
    fo.ablation.blocking_correction = (mask & 2) != 0;
    fo.ablation.erratum_2lambda = (mask & 4) != 0;
    so.ablation = fo.ablation;
    const FatTreeEvaluation ev = FatTreeModel(fo).evaluate_detail(lambda0);
    const LatencyEstimate est = model_latency(net, lambda0, so);
    ASSERT_EQ(ev.stable, est.stable) << "mask=" << mask;
    if (ev.stable) {
      EXPECT_NEAR(est.latency, ev.latency, 1e-9) << "mask=" << mask;
    }
  }
}

TEST(GeneralModel, CyclicGraphConvergesByFixedPoint) {
  // A ring of two channels with a small escape probability to an ejection
  // channel; the dependency graph is cyclic, exercising the damped solver.
  GeneralModel net;
  ChannelGraph& g = net.graph;
  ChannelClass ej;
  ej.label = "eject";
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  const int e = g.add_channel(ej);
  ChannelClass ring;
  ring.label = "ring";
  ring.rate_per_link = 0.5;
  const int a = g.add_channel(ring);
  const int b = g.add_channel(ring);
  g.add_transition(a, b, 0.5, 0.5);
  g.add_transition(a, e, 0.5, 0.5);
  g.add_transition(b, a, 0.5, 0.5);
  g.add_transition(b, e, 0.5, 0.5);
  ASSERT_TRUE(g.validate().empty());
  ASSERT_FALSE(g.acyclic());

  SolveOptions opts;
  opts.worm_flits = 8.0;
  const SolveResult res = SolvePlan(net, opts).solve(0.004);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.stable);
  EXPECT_GT(res.iterations, 1);
  // Symmetry: both ring channels identical.
  EXPECT_NEAR(res.service_time(a), res.service_time(b), 1e-9);
  EXPECT_GT(res.service_time(a), 8.0);
}

GeneralModel hypercube_collapsed(int dims) {
  return build_traffic_model_collapsed(topo::Hypercube(dims),
                                       traffic::TrafficSpec::uniform());
}

TEST(GeneralModel, HypercubeCollapsedBasics) {
  const GeneralModel net = hypercube_collapsed(6);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const LatencyEstimate zero = model_latency(net, 0.0, opts);
  EXPECT_NEAR(zero.latency, 16.0 + net.mean_distance - 1.0, 1e-9);
  const LatencyEstimate loaded = model_latency(net, 0.004, opts);
  EXPECT_TRUE(loaded.stable);
  EXPECT_GT(loaded.latency, zero.latency);
}

TEST(GeneralModel, HypercubeDimensionZeroCarriesLongestService) {
  // E-cube resolves dimension 0 first, so dim-0 channels sit earliest on
  // paths and accumulate the most downstream waiting.
  const topo::Hypercube hc(8);
  const topo::ChannelTable ct(hc);
  const GeneralModel net = hypercube_collapsed(8);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const SolveResult res = SolvePlan(net, opts).solve(0.003);
  ASSERT_TRUE(res.stable);
  double prev = std::numeric_limits<double>::infinity();
  for (int d = 0; d < 8; ++d) {
    const int dim_class = net.channel_class_of[static_cast<std::size_t>(
        ct.from(hc.router_of(0), d))];
    const double x = res.service_time(dim_class);
    EXPECT_LE(x, prev + 1e-12) << "d=" << d;
    prev = x;
  }
}

TEST(EstimateLatency, AveragesInjectionClasses) {
  // Two injection classes with different service times: the estimate must
  // average them uniformly (Eq. 2).
  GeneralModel net;
  ChannelGraph& g = net.graph;
  ChannelClass ej;
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  const int e1 = g.add_channel(ej);
  const int e2 = g.add_channel(ej);
  ChannelClass inj;
  inj.rate_per_link = 0.5;
  const int i1 = g.add_channel(inj);
  ChannelClass inj2;
  inj2.rate_per_link = 1.5;
  const int i2 = g.add_channel(inj2);
  g.add_transition(i1, e1, 1.0, 1.0);
  g.add_transition(i2, e2, 1.0, 1.0);
  net.injection_classes = {i1, i2};
  net.mean_distance = 2.0;
  net.opts.worm_flits = 10.0;
  const SolveResult res = net.solve(0.02);
  const LatencyEstimate est = net.evaluate(0.02);
  EXPECT_NEAR(est.inj_wait, 0.5 * (res.wait(i1) + res.wait(i2)), 1e-12);
  EXPECT_NEAR(est.latency, est.inj_wait + est.inj_service + 1.0, 1e-12);
}

TEST(GeneralModel, InjectionScaleZeroGivesZeroWaits) {
  const GeneralModel net = build_fattree_collapsed(3);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const SolveResult res = SolvePlan(net, opts).solve(0.0);
  for (const ChannelSolution& c : res.channels) {
    EXPECT_DOUBLE_EQ(c.wait, 0.0);
    EXPECT_DOUBLE_EQ(c.utilization, 0.0);
  }
}

}  // namespace
}  // namespace wormnet::core
