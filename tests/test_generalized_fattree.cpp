// Tests for the m-parent butterfly fat-tree, ButterflyFatTree(levels, m),
// and the M/G/m model extension the paper's conclusion anticipates.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/graph_checks.hpp"
#include "util/math.hpp"

namespace wormnet {
namespace {

using topo::ButterflyFatTree;
using util::ipow;

TEST(GenFatTree, SwitchCounts) {
  for (int n = 1; n <= 3; ++n) {
    for (int m = 1; m <= 4; ++m) {
      ButterflyFatTree ft(n, m);
      for (int l = 1; l <= n; ++l) {
        EXPECT_EQ(ft.switches_at(l), ipow(4, n - l) * ipow(m, l - 1))
            << "n=" << n << " m=" << m << " l=" << l;
      }
    }
  }
}

TEST(GenFatTree, ParentWiringFollowsOneRuleForEveryM) {
  // With block b = a / m^(l-1), parent p of S(l, a) is
  // S(l+1, (b/4)*m^l + (a + p*m^(l-1)) mod m^l) on child port b mod 4; the
  // top level leaves every parent port unconnected.
  for (int n = 2; n <= 4; ++n) {
    for (int m = 1; m <= 4; ++m) {
      ButterflyFatTree ft(n, m);
      for (int l = 1; l < n; ++l) {
        const int group = static_cast<int>(ipow(m, l - 1));
        const int group_up = group * m;
        for (int a = 0; a < ft.switches_at(l); ++a) {
          const int me = ft.switch_id(l, a);
          const int b = a / group;
          for (int p = 0; p < m; ++p) {
            const int parent_addr = (b / 4) * group_up + (a + p * group) % group_up;
            const int parent = ft.switch_id(l + 1, parent_addr);
            EXPECT_EQ(ft.neighbor(me, ButterflyFatTree::kParentPort0 + p), parent)
                << "n=" << n << " m=" << m << " l=" << l << " a=" << a;
            EXPECT_EQ(ft.neighbor_port(me, ButterflyFatTree::kParentPort0 + p),
                      b % 4);
          }
        }
      }
      for (int a = 0; a < ft.switches_at(n); ++a)
        for (int p = 0; p < m; ++p)
          EXPECT_EQ(ft.neighbor(ft.switch_id(n, a), ButterflyFatTree::kParentPort0 + p),
                    topo::kNoNode);
    }
  }
}

class GenFatTreeStructure
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GenFatTreeStructure, VerifierPasses) {
  const auto [n, m] = GetParam();
  ButterflyFatTree ft(n, m);
  const topo::VerifyReport report = topo::verify_topology(ft);
  EXPECT_TRUE(report.ok()) << ft.name() << ": "
                           << (report.ok() ? "" : report.violations[0]);
}

TEST_P(GenFatTreeStructure, DistanceIndependentOfParentCount) {
  const auto [n, m] = GetParam();
  ButterflyFatTree ft(n, m);
  ButterflyFatTree ref(n, 1);
  const int procs = ft.num_processors();
  const int stride = procs > 64 ? procs / 64 : 1;
  for (int s = 0; s < procs; s += stride)
    for (int d = 0; d < procs; d += stride)
      EXPECT_EQ(ft.distance(s, d), ref.distance(s, d));
}

TEST_P(GenFatTreeStructure, UpRouteOffersAllParents) {
  const auto [n, m] = GetParam();
  if (n < 2) return;
  ButterflyFatTree ft(n, m);
  const int sw = ft.switch_id(1, 0);
  const topo::RouteOptions up = ft.route(sw, ft.num_processors() - 1);
  EXPECT_EQ(up.size(), m);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GenFatTreeStructure,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(GenFatTree, CoverageIsBlockStructured) {
  ButterflyFatTree ft(2, 3);
  for (int l = 1; l <= 2; ++l) {
    for (int a = 0; a < ft.switches_at(l); ++a) {
      std::set<int> reachable;
      std::vector<int> stack{ft.switch_id(l, a)};
      while (!stack.empty()) {
        const int node = stack.back();
        stack.pop_back();
        if (ft.is_processor(node)) {
          reachable.insert(node);
          continue;
        }
        for (int c = 0; c < 4; ++c) stack.push_back(ft.neighbor(node, c));
      }
      EXPECT_EQ(static_cast<long>(reachable.size()), ipow(4, l));
      for (int p = 0; p < ft.num_processors(); ++p)
        EXPECT_EQ(ft.covers(l, a, p), reachable.count(p) == 1);
    }
  }
}

TEST(GenFatTreeModel, TwoParentsIsThePaperModel) {
  // parents = 2 must change nothing relative to the published equations.
  core::FatTreeModel paper({.levels = 4, .worm_flits = 16.0});
  core::FatTreeModel gen(
      {.levels = 4, .worm_flits = 16.0, .parents = 2});
  for (double load : {0.01, 0.02, 0.03}) {
    EXPECT_DOUBLE_EQ(paper.evaluate_load(load).latency,
                     gen.evaluate_load(load).latency);
  }
}

TEST(GenFatTreeModel, RatesScaleAsFourOverM) {
  core::FatTreeModel m3({.levels = 3, .worm_flits = 16.0, .parents = 3});
  const double lambda0 = 0.001;
  for (int l = 0; l < 3; ++l) {
    EXPECT_NEAR(m3.rate_up(l, lambda0),
                lambda0 * m3.up_probability(l) * std::pow(4.0 / 3.0, l), 1e-15);
  }
}

TEST(GenFatTreeModel, MoreParentsMoreCapacity) {
  double prev = 0.0;
  for (int m = 1; m <= 4; ++m) {
    core::FatTreeModel model({.levels = 4, .worm_flits = 16.0, .parents = m});
    const double sat = model.saturation_load();
    EXPECT_GT(sat, prev) << "m=" << m;
    prev = sat;
  }
}

TEST(GenFatTreeModel, CollapsedGraphMatchesClosedFormForAllM) {
  for (int m = 1; m <= 4; ++m) {
    core::FatTreeModel closed({.levels = 3, .worm_flits = 16.0, .parents = m});
    const core::GeneralModel net = core::build_fattree_collapsed(3, m);
    core::SolveOptions opts;
    opts.worm_flits = 16.0;
    const double lambda0 = closed.saturation_rate() * 0.6;
    const core::LatencyEstimate ev = closed.evaluate(lambda0);
    const core::LatencyEstimate est = core::model_latency(net, lambda0, opts);
    ASSERT_TRUE(ev.stable);
    EXPECT_NEAR(est.latency, ev.latency, 1e-9) << "m=" << m;
  }
}

TEST(GenFatTreeModel, ZeroLoadIndependentOfM) {
  for (int m = 1; m <= 4; ++m) {
    core::FatTreeModel model({.levels = 3, .worm_flits = 32.0, .parents = m});
    EXPECT_NEAR(model.evaluate(0.0).latency, 32.0 + model.mean_distance() - 1.0,
                1e-9);
  }
}

// End-to-end: the M/G/m model tracks simulation on the m-parent topology.
class GenFatTreeAgreement : public ::testing::TestWithParam<int> {};

TEST_P(GenFatTreeAgreement, ModelTracksSimulation) {
  const int m = GetParam();
  ButterflyFatTree ft(2, m);
  core::FatTreeModel model({.levels = 2, .worm_flits = 16.0, .parents = m});
  const double load = model.saturation_load() * 0.55;

  sim::SimConfig cfg;
  cfg.load_flits = load;
  cfg.worm_flits = 16;
  cfg.seed = 31 + static_cast<std::uint64_t>(m);
  cfg.warmup_cycles = 6'000;
  cfg.measure_cycles = 30'000;
  cfg.max_cycles = 400'000;
  cfg.channel_stats = false;
  const sim::SimResult r = sim::simulate(ft, cfg);
  ASSERT_TRUE(r.completed);
  const double model_latency = model.evaluate_load(load).latency;
  // 12%: at high parent multiplicity on a small network the simulator's
  // one-cycle arbitration hand-off is a visible fraction of each (short)
  // queueing episode, which the model idealizes away.
  EXPECT_NEAR(r.latency.mean(), model_latency, model_latency * 0.12) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GenFatTreeAgreement, ::testing::Values(1, 2, 3, 4));

TEST(GenFatTree, SimulatorOverloadScalesWithParents) {
  // Closed-loop capacity must grow with parent multiplicity.
  double prev = 0.0;
  for (int m = 1; m <= 3; ++m) {
    ButterflyFatTree ft(2, m);
    sim::SimConfig cfg;
    cfg.arrivals = sim::ArrivalProcess::Overload;
    cfg.worm_flits = 16;
    cfg.seed = 8;
    cfg.warmup_cycles = 4'000;
    cfg.measure_cycles = 10'000;
    cfg.channel_stats = false;
    const sim::SimResult r = sim::simulate(ft, cfg);
    EXPECT_GT(r.throughput_flits_per_pe, prev) << "m=" << m;
    prev = r.throughput_flits_per_pe;
  }
}

}  // namespace
}  // namespace wormnet
