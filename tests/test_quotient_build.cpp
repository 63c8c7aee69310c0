// Quotient builds: a collapsed model built on the route graph's node orbits
// (Topology::route_orbits) must be the model the node-built collapsed path
// produces over the whole fabric.  Structure — class ids, labels,
// channel_class_of, servers, lanes, terminal flags, transition targets,
// injection classes and weights — must be identical; the floating-point
// folds (rates, self_frac, transition weights, route_prob, mean distance)
// must agree to 1e-12 relative, across BFT levels 1-9 × {uniform, hotspot at
// three targets, 2:1 taper on tier 1}.  The node-built side is reached
// through a fat-tree that declines the hook, so both sides share every
// symmetry key.
//
// Above N = 4096 the bound widens to N·ε: the node-built path adds one term
// per source and per member channel, one after another, so its own
// rounding grows with N (≈ 2e-11 relative at BFT(9)), while the quotient
// adds a handful of orbit totals.  MeanDistanceIsExactOnTheQuotient shows
// which side is exact there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/traffic_model.hpp"
#include "obs/metrics.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/mesh.hpp"

namespace wormnet::core {
namespace {

/// The same fat-tree with the quotient hook declined: collapsed builds take
/// the node-built path.
class NodeBuiltFatTree final : public topo::ButterflyFatTree {
 public:
  using ButterflyFatTree::ButterflyFatTree;
  bool route_orbits(const std::vector<int>& /*pinned_procs*/, int /*dest*/,
                    std::vector<topo::RouteOrbit>& out) const override {
    out.clear();
    return false;
  }
};

double builds(const char* path) {
  return obs::Registry::global().value("wormnet_collapsed_builds_total",
                                       std::string("path=") + path);
}

/// Relative agreement bound of a quotient vs node-built comparison on N
/// processors: 1e-12, or the node-built sums' rounding N·ε when larger.
double tolerance(int procs) {
  return std::max(1e-12, procs * std::numeric_limits<double>::epsilon());
}

void expect_rel(double actual, double expected, double rel,
                const std::string& tag) {
  EXPECT_NEAR(actual, expected,
              rel * std::max(std::abs(actual), std::abs(expected)))
      << tag;
}

/// quotient == node-built, field by field, on `procs` processors.
void expect_same_model(const GeneralModel& q, const GeneralModel& n, int procs,
                       const std::string& tag) {
  const double rel = tolerance(procs);
  ASSERT_FALSE(q.channel_class_of.empty()) << tag << ": quotient did not collapse";
  ASSERT_EQ(q.graph.size(), n.graph.size()) << tag;
  EXPECT_EQ(q.channel_class_of, n.channel_class_of) << tag;
  for (int c = 0; c < q.graph.size(); ++c) {
    const ChannelClass& a = q.graph.at(c);
    const ChannelClass& b = n.graph.at(c);
    const std::string ctag = tag + " " + b.label;
    EXPECT_EQ(a.label, b.label) << ctag;
    EXPECT_EQ(a.servers, b.servers) << ctag;
    EXPECT_EQ(a.lanes, b.lanes) << ctag;
    EXPECT_EQ(a.terminal, b.terminal) << ctag;
    EXPECT_EQ(a.bandwidth, b.bandwidth) << ctag;
    expect_rel(a.rate_per_link, b.rate_per_link, rel, ctag + " rate");
    expect_rel(a.self_frac, b.self_frac, rel, ctag + " self_frac");
    const std::vector<Transition>& ta = a.next;
    const std::vector<Transition>& tb = b.next;
    ASSERT_EQ(ta.size(), tb.size()) << ctag;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].target, tb[i].target) << ctag;
      expect_rel(ta[i].weight, tb[i].weight, rel, ctag + " weight");
      expect_rel(ta[i].route_prob, tb[i].route_prob, rel, ctag + " route_prob");
    }
  }
  EXPECT_EQ(q.injection_classes, n.injection_classes) << tag;
  EXPECT_EQ(q.injection_class_weights, n.injection_class_weights) << tag;
  expect_rel(q.mean_distance, n.mean_distance, rel, tag + " mean_distance");
  EXPECT_EQ(q.unroutable_fraction, n.unroutable_fraction) << tag;
}

/// The contract's traffic specs at N processors.
std::vector<traffic::TrafficSpec> specs(int procs) {
  return {traffic::TrafficSpec::uniform(),
          traffic::TrafficSpec::hotspot(0.1, 0),
          traffic::TrafficSpec::hotspot(0.1, procs / 3),
          traffic::TrafficSpec::hotspot(0.1, procs - 1)};
}

TEST(QuotientBuild, MatchesNodeBuiltAcrossLevelsAndPatterns) {
  for (int levels = 1; levels <= 9; ++levels) {
    const topo::ButterflyFatTree ft(levels);
    const NodeBuiltFatTree nb(levels);
    for (const traffic::TrafficSpec& spec : specs(ft.num_processors())) {
      std::string tag = "BFT(";
      tag += std::to_string(levels);
      tag += ") ";
      tag += spec.name();
      const double q0 = builds("quotient");
      const double n0 = builds("node");
      const GeneralModel q = build_traffic_model_collapsed(ft, spec);
      const GeneralModel n = build_traffic_model_collapsed(nb, spec);
      EXPECT_EQ(builds("quotient"), q0 + 1.0) << tag;
      EXPECT_EQ(builds("node"), n0 + 1.0) << tag;
      expect_same_model(q, n, ft.num_processors(), tag);
    }
  }
}

TEST(QuotientBuild, MatchesNodeBuiltOnATaperedTree) {
  for (int levels = 3; levels <= 9; ++levels) {
    topo::ButterflyFatTree ft(levels);
    NodeBuiltFatTree nb(levels);
    ft.set_tier_bandwidth(1, 0.5);
    nb.set_tier_bandwidth(1, 0.5);
    for (const traffic::TrafficSpec& spec :
         {traffic::TrafficSpec::uniform(),
          traffic::TrafficSpec::hotspot(0.1, ft.num_processors() / 3)}) {
      std::string tag = "tapered BFT(";
      tag += std::to_string(levels);
      tag += ") ";
      tag += spec.name();
      expect_same_model(build_traffic_model_collapsed(ft, spec),
                        build_traffic_model_collapsed(nb, spec),
                        ft.num_processors(), tag);
    }
  }
}

// A full hotspot leaves every other destination unloaded: source orbits
// with no weight seed nothing, and classes only they would feed stay idle.
TEST(QuotientBuild, MatchesNodeBuiltUnderAFullHotspot) {
  for (int levels = 2; levels <= 5; ++levels) {
    const topo::ButterflyFatTree ft(levels);
    const NodeBuiltFatTree nb(levels);
    const traffic::TrafficSpec spec =
        traffic::TrafficSpec::hotspot(1.0, ft.num_processors() / 3);
    std::string tag = "BFT(";
    tag += std::to_string(levels);
    tag += ") ";
    tag += spec.name();
    expect_same_model(build_traffic_model_collapsed(ft, spec),
                      build_traffic_model_collapsed(nb, spec),
                      ft.num_processors(), tag);
  }
}

// Under uniform and hotspot traffic alike the traffic-weighted D̄ is the
// topology's closed form (every processor's row averages the same distance
// sum), so it pins the quotient build's exactness at a size where the
// node-built sums have drifted by ~2e-11.
TEST(QuotientBuild, MeanDistanceIsExactOnTheQuotient) {
  for (int levels : {7, 9}) {
    const topo::ButterflyFatTree ft(levels);
    for (const traffic::TrafficSpec& spec : specs(ft.num_processors())) {
      EXPECT_NEAR(build_traffic_model_collapsed(ft, spec).mean_distance,
                  ft.mean_distance(), 1e-14 * ft.mean_distance())
          << "BFT(" << levels << ") " << spec.name();
    }
  }
}

// The quotient model folds the dense model: every physical channel's rate
// and self_frac equal its class's (the dense rebuild bounds this at L5).
TEST(QuotientBuild, CollapsedParityHolds) {
  for (int levels = 2; levels <= 5; ++levels) {
    topo::ButterflyFatTree ft(levels);
    std::vector<traffic::TrafficSpec> cases = specs(ft.num_processors());
    for (const traffic::TrafficSpec& spec : cases) {
      const GeneralModel q = build_traffic_model_collapsed(ft, spec);
      EXPECT_EQ(check_collapsed_parity(ft, spec, q), "")
          << "BFT(" << levels << ") " << spec.name();
    }
    ft.set_tier_bandwidth(1, 0.5);
    const GeneralModel tapered =
        build_traffic_model_collapsed(ft, traffic::TrafficSpec::uniform());
    EXPECT_EQ(check_collapsed_parity(ft, traffic::TrafficSpec::uniform(), tapered),
              "")
        << "tapered BFT(" << levels << ")";
  }
}

// An empty-fault view forwards the symmetry keys but not the hook (it may
// reroute), so it builds node by node — and must land on the bare tree's
// quotient model.
TEST(QuotientBuild, EmptyFaultViewMatchesTheBareTree) {
  const topo::ButterflyFatTree ft(3);
  const topo::FaultSet none(ft);
  const topo::FaultedTopology view(ft, none);
  for (const traffic::TrafficSpec& spec : specs(ft.num_processors())) {
    const double n0 = builds("node");
    const GeneralModel n = build_traffic_model_collapsed(view, spec);
    EXPECT_EQ(builds("node"), n0 + 1.0) << spec.name();
    expect_same_model(build_traffic_model_collapsed(ft, spec), n,
                      ft.num_processors(), "empty-fault BFT(3) " + spec.name());
  }
}

// The hook's own contract: orbits partition the nodes, targets come later,
// and the quotient stays O(levels²) at any N.
TEST(QuotientBuild, RouteOrbitsPartitionTheFabric) {
  for (int levels = 1; levels <= 9; ++levels) {
    const topo::ButterflyFatTree ft(levels);
    const int procs = ft.num_processors();
    for (const std::vector<int>& pins :
         {std::vector<int>{}, std::vector<int>{0}, std::vector<int>{procs - 1}}) {
      for (int dest : {0, procs / 3, procs - 1}) {
        std::vector<topo::RouteOrbit> orbits;
        ASSERT_TRUE(ft.route_orbits(pins, dest, orbits));
        long nodes = 0;
        long processors = 0;
        for (std::size_t x = 0; x < orbits.size(); ++x) {
          const topo::RouteOrbit& o = orbits[x];
          nodes += o.size;
          if (ft.is_processor(o.rep)) processors += o.size;
          EXPECT_EQ(o.count, ft.route(o.rep, dest).size());
          EXPECT_EQ(o.count == 0, o.rep == dest);
          for (int i = 0; i < o.count; ++i) {
            EXPECT_GT(o.candidates[static_cast<std::size_t>(i)].target,
                      static_cast<int>(x));
          }
        }
        EXPECT_EQ(nodes, ft.num_nodes());
        EXPECT_EQ(processors, procs);
        EXPECT_LE(orbits.size(),
                  static_cast<std::size_t>(4 * (levels + 1) * (levels + 1)));
      }
    }
  }
  // Declined off m = 2 and for two pins, as the symmetry keys are.
  std::vector<topo::RouteOrbit> orbits;
  EXPECT_FALSE(topo::ButterflyFatTree(3, 3).route_orbits({}, 0, orbits));
  EXPECT_FALSE(topo::ButterflyFatTree(3).route_orbits({0, 1}, 0, orbits));
  EXPECT_FALSE(topo::Mesh(3, 3).route_orbits({}, 0, orbits));
}

// A resident on a hooked topology retunes on the quotient too: one pass per
// destination orbit, and the same model a cold collapsed build gives.
TEST(QuotientBuild, ResidentRetunesOnTheQuotient) {
  const topo::ButterflyFatTree ft(5);
  TrafficBuildOptions build;
  build.collapse = CollapseMode::Auto;
  RetunableTrafficModel rm(ft, traffic::TrafficSpec::uniform(), {}, build);
  ASSERT_TRUE(rm.collapsed());
  const double q0 = builds("quotient");
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.2, 100);
  const RetuneReport rep = rm.retune_traffic(hot);
  EXPECT_TRUE(rep.collapsed);
  EXPECT_EQ(rep.passes, ft.levels() + 1);
  EXPECT_GT(rep.nodes_visited, 0);
  EXPECT_EQ(builds("quotient"), q0 + 1.0);
  expect_same_model(rm.model(), build_traffic_model_collapsed(ft, hot),
                    ft.num_processors(), "resident " + hot.name());
}

}  // namespace
}  // namespace wormnet::core
