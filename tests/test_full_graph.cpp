// Tests for the per-physical-channel model under uniform traffic:
// build_traffic_model(topo, TrafficSpec::uniform()), one class per directed
// channel of an arbitrary Topology.
//
// The strongest checks here are representation-independence results: the
// full (per-channel) graph and the collapsed (per-class) graph are different
// encodings of the same network, and the general solver must produce the
// same network-level numbers on both.  The hypercube's collapsed classes are
// also pinned against the e-cube closed forms, an independent derivation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet::core {
namespace {

GeneralModel uniform_model(const topo::Topology& topo) {
  return build_traffic_model(topo, traffic::TrafficSpec::uniform());
}

TEST(FullGraph, FatTreeRatesMatchEq14PerLevel) {
  topo::ButterflyFatTree ft(2);
  const GeneralModel net = uniform_model(ft);
  const topo::ChannelTable ct(ft);
  FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  for (int ch = 0; ch < ct.size(); ++ch) {
    const topo::DirectedChannel& dc = ct.at(ch);
    const int from_level = ft.node_level(dc.src_node);
    const int to_level = ft.node_level(dc.dst_node);
    const double rate = net.graph.at(ch).rate_per_link;
    if (to_level > from_level) {
      EXPECT_NEAR(rate, model.rate_up(from_level, 1.0), 1e-9)
          << "up channel at level " << from_level;
    } else {
      EXPECT_NEAR(rate, model.rate_up(to_level, 1.0), 1e-9)
          << "down channel to level " << to_level;
    }
  }
}

TEST(FullGraph, FatTreeFullMatchesCollapsedUpToPaperApproximation) {
  // The collapsed graph uses the paper's Eq. 22 branching probability P↑_l
  // UNCONDITIONALLY, while the exact continuation probability for a message
  // already on channel ⟨l-1,l⟩ is P↑_l / P↑_{l-1} (it is known not to have
  // ended below level l).  The full-graph builder measures exact flows, so
  // the two representations agree only up to this (sub-0.1%) approximation
  // the paper itself makes.
  for (int levels : {1, 2, 3}) {
    topo::ButterflyFatTree ft(levels);
    const GeneralModel full = uniform_model(ft);
    const GeneralModel collapsed = build_fattree_collapsed(levels);
    SolveOptions opts;
    opts.worm_flits = 16.0;
    for (double lambda0 : {0.0005, 0.002}) {
      const LatencyEstimate a = model_latency(full, lambda0, opts);
      const LatencyEstimate b = model_latency(collapsed, lambda0, opts);
      ASSERT_EQ(a.stable, b.stable);
      if (a.stable) {
        EXPECT_NEAR(a.latency, b.latency, 2e-3 * b.latency)
            << "levels=" << levels << " lambda0=" << lambda0;
      }
    }
  }
}

TEST(FullGraph, ExactConditionalsCloseTheGapToFullGraph) {
  // With the exact conditional branching probabilities (P↑_l / P↑_{l-1})
  // the collapsed graph must agree with the exact-flow per-channel graph to
  // near machine precision — proving the residual FatTreeFullMatchesCollapsed
  // difference is entirely the paper's unconditional-P↑ approximation.
  for (int levels : {2, 3}) {
    topo::ButterflyFatTree ft(levels);
    const GeneralModel full = uniform_model(ft);
    const GeneralModel exact = build_fattree_collapsed(levels, 2,
                                                       /*exact_conditionals=*/true);
    SolveOptions opts;
    opts.worm_flits = 16.0;
    for (double lambda0 : {0.0005, 0.002}) {
      const LatencyEstimate a = model_latency(full, lambda0, opts);
      const LatencyEstimate b = model_latency(exact, lambda0, opts);
      ASSERT_EQ(a.stable, b.stable);
      if (a.stable) {
        EXPECT_NEAR(a.latency, b.latency, 1e-9 * b.latency)
            << "levels=" << levels << " lambda0=" << lambda0;
      }
    }
  }
}

TEST(FullGraph, HypercubeFullMatchesCollapsed) {
  for (int dims : {2, 3, 4}) {
    topo::Hypercube hc(dims);
    const GeneralModel full = uniform_model(hc);
    const GeneralModel collapsed =
        build_traffic_model_collapsed(hc, traffic::TrafficSpec::uniform());
    ASSERT_EQ(collapsed.graph.size(), dims + 2);
    SolveOptions opts;
    opts.worm_flits = 16.0;
    for (double lambda0 : {0.001, 0.004}) {
      const LatencyEstimate a = model_latency(full, lambda0, opts);
      const LatencyEstimate b = model_latency(collapsed, lambda0, opts);
      ASSERT_EQ(a.stable, b.stable);
      if (a.stable) {
        EXPECT_NEAR(a.latency, b.latency, 1e-6 * b.latency)
            << "dims=" << dims << " lambda0=" << lambda0;
      }
    }
  }
}

TEST(FullGraph, HypercubeCollapsedMatchesECubeClosedForms) {
  // E-cube (ascending dimension order) under uniform traffic, N = 2^n: the
  // first differing bit is d with probability 2^(n-d-1)/(N-1), and once a
  // worm crosses dimension d the bits above d are i.i.d. fair coins.  So
  //   λ_d = N / (2(N-1))          per directed dimension-d link,
  //   inj → d    = 2^(n-d-1) / (N-1),
  //   d → d'     = 2^-(d'-d)      (d' > d),
  //   d → eject  = 2^-(n-1-d),
  //   D̄          = n·(N/2)/(N-1) + 2   (Hamming distance + inj + eject).
  const auto rel_near = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::abs(want);
  };
  for (int n = 2; n <= 10; ++n) {
    const topo::Hypercube hc(n);
    const topo::ChannelTable ct(hc);
    const GeneralModel net =
        build_traffic_model_collapsed(hc, traffic::TrafficSpec::uniform());
    ASSERT_EQ(net.graph.size(), n + 2) << "n=" << n;
    const double big_n = std::ldexp(1.0, n);
    const auto class_of = [&](int ch) {
      return net.channel_class_of[static_cast<std::size_t>(ch)];
    };
    std::vector<int> dim(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d)
      dim[static_cast<std::size_t>(d)] = class_of(ct.from(hc.router_of(0), d));
    const int inj = class_of(ct.from(0, 0));
    const int ej = class_of(ct.into(0, 0));
    ASSERT_EQ(net.injection_classes, std::vector<int>{inj});
    EXPECT_TRUE(net.graph.at(ej).terminal);

    // expected[from][to]: the closed-form transition weight, 0 = no edge.
    std::vector<std::vector<double>> expected(
        static_cast<std::size_t>(net.graph.size()),
        std::vector<double>(static_cast<std::size_t>(net.graph.size()), 0.0));
    for (int d = 0; d < n; ++d) {
      const int cd = dim[static_cast<std::size_t>(d)];
      EXPECT_TRUE(rel_near(net.graph.at(cd).rate_per_link,
                           big_n / (2.0 * (big_n - 1.0))))
          << "n=" << n << " rate of dim " << d;
      expected[static_cast<std::size_t>(inj)][static_cast<std::size_t>(cd)] =
          std::ldexp(1.0, n - d - 1) / (big_n - 1.0);
      for (int d2 = d + 1; d2 < n; ++d2)
        expected[static_cast<std::size_t>(cd)]
                [static_cast<std::size_t>(dim[static_cast<std::size_t>(d2)])] =
            std::ldexp(1.0, -(d2 - d));
      expected[static_cast<std::size_t>(cd)][static_cast<std::size_t>(ej)] =
          std::ldexp(1.0, -(n - 1 - d));
    }
    for (int from = 0; from < net.graph.size(); ++from) {
      int edges = 0;
      for (double w : expected[static_cast<std::size_t>(from)]) edges += w > 0.0;
      ASSERT_EQ(static_cast<int>(net.graph.transitions(from).size()), edges)
          << "n=" << n << " class " << from;
      for (const Transition& t : net.graph.transitions(from)) {
        const double want = expected[static_cast<std::size_t>(from)]
                                    [static_cast<std::size_t>(t.target)];
        EXPECT_TRUE(rel_near(t.weight, want))
            << "n=" << n << " " << from << "->" << t.target << ": " << t.weight
            << " vs " << want;
        // One link per dimension hop: the specific-link R equals the weight.
        EXPECT_TRUE(rel_near(t.route_prob, want))
            << "n=" << n << " " << from << "->" << t.target;
      }
    }
    EXPECT_TRUE(rel_near(net.mean_distance,
                         n * (big_n / 2.0) / (big_n - 1.0) + 2.0))
        << "n=" << n;
  }
}

TEST(FullGraph, FlowConservationAtInjectionAndEjection) {
  topo::Mesh m(4, 2);
  const GeneralModel net = uniform_model(m);
  const topo::ChannelTable ct(m);
  for (int p = 0; p < m.num_processors(); ++p) {
    // Unit injection per processor...
    const int inj = ct.from(p, 0);
    EXPECT_NEAR(net.graph.at(inj).rate_per_link, 1.0, 1e-9);
    // ...and unit absorption (uniform traffic): the ejection channel into p.
    const int ej = ct.into(p, 0);
    EXPECT_NEAR(net.graph.at(ej).rate_per_link, 1.0, 1e-9);
    EXPECT_TRUE(net.graph.at(ej).terminal);
    EXPECT_FALSE(net.graph.at(inj).terminal);
  }
}

TEST(FullGraph, MeshCenterChannelsCarryMoreTraffic) {
  // DOR on a line: the middle links carry the most flow — the heterogeneity
  // that makes the mesh a real test of the per-channel model.
  topo::Mesh line(8, 1);
  const GeneralModel net = uniform_model(line);
  const topo::ChannelTable ct(line);
  // x+ channel out of router i (port 1).
  auto plus_rate = [&](int i) {
    return net.graph.at(ct.from(line.router_of(i), 1)).rate_per_link;
  };
  EXPECT_GT(plus_rate(3), plus_rate(0));
  EXPECT_GT(plus_rate(3), plus_rate(6));
  // Symmetry of the line: rate(i -> i+1) == rate(7-i -> 6-i) mirrored.
  EXPECT_NEAR(plus_rate(1), net.graph.at(ct.from(line.router_of(6), 0)).rate_per_link,
              1e-9);
}

TEST(FullGraph, MeshZeroLoadLatency) {
  topo::Mesh m(4, 2);
  const GeneralModel net = uniform_model(m);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const LatencyEstimate est = model_latency(net, 0.0, opts);
  EXPECT_NEAR(est.latency, 16.0 + m.mean_distance() - 1.0, 1e-9);
}

TEST(FullGraph, MeshLatencyMonotoneAndSaturates) {
  topo::Mesh m(4, 2);
  const GeneralModel net = uniform_model(m);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  double prev = 0.0;
  const double sat = model_saturation_rate(net, opts);
  EXPECT_GT(sat, 0.0);
  for (double frac : {0.2, 0.4, 0.6, 0.8}) {
    const LatencyEstimate est = model_latency(net, sat * frac, opts);
    ASSERT_TRUE(est.stable) << "frac=" << frac;
    EXPECT_GT(est.latency, prev);
    prev = est.latency;
  }
  EXPECT_FALSE(model_latency(net, sat * 1.1, opts).stable);
}

TEST(FullGraph, InjectionClassesOnePerProcessor) {
  topo::Hypercube hc(3);
  const GeneralModel net = uniform_model(hc);
  EXPECT_EQ(static_cast<int>(net.injection_classes.size()), hc.num_processors());
}

TEST(FullGraph, FatTreeUpBundlesHaveTwoServers) {
  topo::ButterflyFatTree ft(2);
  const GeneralModel net = uniform_model(ft);
  const topo::ChannelTable ct(ft);
  const int up0 = ct.from(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const int up1 = ct.from(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort1);
  EXPECT_EQ(net.graph.at(up0).servers, 2);
  EXPECT_EQ(net.graph.at(up1).servers, 2);
  const int down = ct.from(ft.switch_id(1, 0), 0);
  EXPECT_EQ(net.graph.at(down).servers, 1);
}

TEST(FullGraph, AdaptiveSplitBalancesUpLinks) {
  // The probability-splitting walk sends half of each up-decision to each
  // parent: both up channels of a switch carry identical rates.
  topo::ButterflyFatTree ft(3);
  const GeneralModel net = uniform_model(ft);
  const topo::ChannelTable ct(ft);
  for (int a = 0; a < ft.switches_at(1); ++a) {
    const int sw = ft.switch_id(1, a);
    const int up0 = ct.from(sw, topo::ButterflyFatTree::kParentPort0);
    const int up1 = ct.from(sw, topo::ButterflyFatTree::kParentPort1);
    EXPECT_NEAR(net.graph.at(up0).rate_per_link, net.graph.at(up1).rate_per_link,
                1e-9);
  }
}

}  // namespace
}  // namespace wormnet::core
