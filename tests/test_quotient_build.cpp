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
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/traffic_model.hpp"
#include "obs/metrics.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
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
    const std::span<const Transition> ta = q.graph.transitions(c);
    const std::span<const Transition> tb = n.graph.transitions(c);
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

/// One collapsed model's answers, bit for bit: per class rate_per_link and
/// self_frac, then mean_distance and saturation_rate.
struct PinnedModel {
  const char* tag;
  std::vector<double> values;
};

// The collapsed models below as built before the two collapsed paths shared
// one class index; any change of these bits is a change of answers.
// clang-format off
const PinnedModel kPinnedModels[] = {
    {"traffic-sym(butterfly-fat-tree(n=4, N=256), uniform)", {
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1.6ad43da71079cp-11,
      0x1.f9f9f9f9f9fap+0, 0x1.010101010100fp-9,
      0x1.f9f9f9f9f9fap+0, 0x1.56ac0156ac013p-11,
      0x1.e1e1e1e1e1e1ep+1, 0x1.010101010101p-10,
      0x1.e1e1e1e1e1e1ep+1, 0x1.34679ace01346p-11,
      0x1.8181818181818p+2, 0x1.010101010101p-11,
      0x1.8181818181818p+2, 0x1.010101010101p-11,
      0x1.d757575757575p+2, 0x1.42a30d2402a3cp-8}},
    {"traffic-sym(butterfly-fat-tree(n=4, N=256), hotspot(f=0.10,node=85))", {
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1p+0,
      0x1.cd00336699ccfp-1, 0x1.469dda545a6b5p-11,
      0x1.fa942dc760fabp+0, 0x1.ca8702f68b26bp-8,
      0x1.cd00336699cd1p-1, 0x1.46d44c5c0efdbp-11,
      0x1.fa942dc760fabp+0, 0x1.ca8702f68b26cp-8,
      0x1.cd00336699cd1p-1, 0x1.4741306b7822ap-11,
      0x1.fa942dc760fabp+0, 0x1.ca8702f68b26bp-8,
      0x1.cd00336699ccfp-1, 0x1.481af88a4a6ccp-11,
      0x1.a666666666667p+4, 0x1.2b557fa9d3fe3p-6,
      0x1.d4073a6da0d4p+0, 0x1.dc7fc9204df84p-10,
      0x1.c794612dfac78p+0, 0x1.347be6f92355cp-11,
      0x1.e4e4e4e4e4e5p+1, 0x1.d9dc67b1ca98ap-9,
      0x1.c794612dfac7bp+0, 0x1.34b2fedbedafep-11,
      0x1.e4e4e4e4e4e5p+1, 0x1.d9dc67b1ca98ap-9,
      0x1.c794612dfac7bp+0, 0x1.35212ea182645p-11,
      0x1.cc1f5285b8ec2p+3, 0x1.015e44673d8aap-6,
      0x1.b4b4b4b4b4b4cp+1, 0x1.d226e59297e3bp-11,
      0x1.b1e5184b7eb1dp+1, 0x1.15a968dee257fp-11,
      0x1.8e27c15af48e4p+2, 0x1.13f2dfbde4777p-9,
      0x1.b1e5184b7eb2p+1, 0x1.15e3419fdfcc1p-11,
      0x1.2c6c6c6c6c6c7p+3, 0x1.569062a6ddfe6p-7,
      0x1.5b8ec1f5285bap+2, 0x1.cf7f758550c8dp-12,
      0x1.5b27f4c18e5b3p+2, 0x1.cee78327d4a64p-12,
      0x1.f48e27c15af4ap+2, 0x1.212a0951f618dp-8,
      0x1.d757575757575p+2, 0x1.dd9d4ecb8c6eap-10}},
    {"traffic-sym(butterfly-fat-tree(n=3, N=64), uniform)", {
      0x1p+0, 0x1p+0,
      0x1p+0, 0x1.5ac056b015abfp-8,
      0x1.e79e79e79e79ep+0, 0x1.041041041041p-7,
      0x1.e79e79e79e79ep+0, 0x1.3813813813813p-8,
      0x1.8618618618618p+1, 0x1.041041041041p-8,
      0x1.8618618618618p+1, 0x1.041041041041p-8,
      0x1.5b6db6db6db6dp+2, 0x1.3dab5f6663d6ep-8}},
    {"traffic-sym(hypercube(n=6, N=64), uniform)", {
      0x1.ffffffffffffp-1, 0x1p+0,
      0x1.041041041041p-1, 0x1.041041041040fp-6,
      0x1.041041041041p-1, 0x1.041041041040fp-6,
      0x1.041041041041p-1, 0x1.041041041040fp-6,
      0x1.041041041041p-1, 0x1.041041041041p-6,
      0x1.041041041041p-1, 0x1.041041041041p-6,
      0x1.041041041041p-1, 0x1.041041041041p-6,
      0x1p+0, 0x1.041041041041p-6,
      0x1.430c30c30c30ap+2, 0x1.ec3e792f11c5cp-6}},
    {"traffic-sym(mesh(k=5, d=2, N=25), hotspot(f=0.10,node=12))", {
      0x1.0000000000002p+0, 0x1p+0,
      0x1.0000000000002p+0, 0x1p+0,
      0x1.ffffffffffffep-1, 0x1p+0,
      0x1.0000000000002p+0, 0x1p+0,
      0x1.0000000000002p+0, 0x1p+0,
      0x1.ffffffffffffdp-1, 0x1p+0,
      0x1.ffffffffffffdp-1, 0x1p+0,
      0x1.ffffffffffffdp-1, 0x1p+0,
      0x1p+0, 0x1p+0,
      0x1.b333333333338p-1, 0x1.b7b7b7b7b7b78p-5,
      0x1.8p-1, 0x1.3333333333333p-5,
      0x1.ceeeeeeeeeeefp-1, 0x1.34c5e103397dfp-5,
      0x1.7ffffffffffffp-1, 0x1.3333333333333p-5,
      0x1.5333333333334p+0, 0x1.dd38ff08b1c02p-5,
      0x1.8p-1, 0x1.3333333333333p-5,
      0x1.ceeeeeeeeeeedp-1, 0x1.34c5e103397ep-5,
      0x1.2p+0, 0x1.3333333333332p-5,
      0x1.4p+0, 0x1.7ae147ae147aep-4,
      0x1.ceeeeeeeeeeedp-1, 0x1.34c5e103397ep-5,
      0x1.b333333333338p-1, 0x1.b7b7b7b7b7b78p-5,
      0x1.8222222222222p-1, 0x1.3515f844a4d22p-5,
      0x1.2p+0, 0x1.3333333333334p-5,
      0x1.ceeeeeeeeeeefp-1, 0x1.34c5e103397dep-5,
      0x1.7ffffffffffffp-1, 0x1.3333333333333p-5,
      0x1.5333333333334p+0, 0x1.dd38ff08b1c02p-5,
      0x1.822222222222p-1, 0x1.3515f844a4d24p-5,
      0x1.2p+0, 0x1.3333333333334p-5,
      0x1.ceeeeeeeeeeedp-1, 0x1.34c5e103397ep-5,
      0x1.2p+0, 0x1.3333333333332p-5,
      0x1.8222222222221p-1, 0x1.3515f844a4d22p-5,
      0x1.1p+1, 0x1.a2a2a2a2a2a2bp-4,
      0x1.ceeeeeeeeeeeep-1, 0x1.34c5e103397dfp-5,
      0x1.b333333333331p-1, 0x1.b7b7b7b7b7b7fp-5,
      0x1.2222222222222p+0, 0x1.35b5b5b5b5b5cp-5,
      0x1.ceeeeeeeeeeefp-1, 0x1.34c5e103397dep-5,
      0x1.8aaaaaaaaaaabp-1, 0x1.3c6cdb8f73c6cp-5,
      0x1.5333333333332p+0, 0x1.dd38ff08b1c06p-5,
      0x1.2222222222221p+0, 0x1.35b5b5b5b5b5dp-5,
      0x1.ceeeeeeeeeeeep-1, 0x1.34c5e103397dfp-5,
      0x1.2aaaaaaaaaaabp+0, 0x1.3f63f63f63f64p-5,
      0x1.2222222222222p+0, 0x1.35b5b5b5b5b5bp-5,
      0x1.a666666666666p+1, 0x1.199999999999ap-3,
      0x1.4fffffffffffdp+2, 0x1.cb797a9ca9818p-7}},
    {"traffic-sym(butterfly-fat-tree(n=3, N=64) - 0 failed link(s), uniform)", {
      0x1.ffffffffffffp-1, 0x1p+0,
      0x1.ffffffffffffep-1, 0x1.5ac056b015acp-8,
      0x1.e79e79e79e79ep+0, 0x1.041041041040fp-7,
      0x1.e79e79e79e79ep+0, 0x1.3813813813813p-8,
      0x1.8618618618618p+1, 0x1.041041041040fp-8,
      0x1.8618618618618p+1, 0x1.041041041041p-8,
      0x1.5b6db6db6db6bp+2, 0x1.47224caec7f4ep-7}},
};
// clang-format on

std::vector<double> pinned_values(const GeneralModel& m) {
  std::vector<double> v;
  for (int c = 0; c < m.graph.size(); ++c) {
    v.push_back(m.graph.at(c).rate_per_link);
    v.push_back(m.graph.at(c).self_frac);
  }
  v.push_back(m.mean_distance);
  v.push_back(m.saturation_rate());
  return v;
}

void print_pinned_models(const std::vector<std::string>& tags,
                         const std::vector<std::vector<double>>& got) {
  std::printf("const PinnedModel kPinnedModels[] = {\n");
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::printf("    {\"%s\", {", tags[i].c_str());
    for (std::size_t k = 0; k < got[i].size(); ++k)
      std::printf("%s%s%a", k == 0 ? "" : ",", k % 2 == 0 ? "\n      " : " ",
                  got[i][k]);
    std::printf("}},\n");
  }
  std::printf("};\n");
}

// Both collapsed paths, pinned: the quotient (BFT(4) under uniform and a
// hotspot, a tapered BFT(3)) and the node-built (Hypercube(6), Mesh(5,2)
// with a centre hotspot, an empty fault view over BFT(3)).
TEST(QuotientBuild, CollapsedAnswersArePinned) {
  const topo::ButterflyFatTree ft4(4);
  topo::ButterflyFatTree tapered(3);
  tapered.set_tier_bandwidth(1, 0.5);
  const topo::Hypercube hc(6);
  const topo::Mesh mesh(5, 2);
  const topo::ButterflyFatTree ft3(3);
  const topo::FaultSet none(ft3);
  const topo::FaultedTopology view(ft3, none);
  struct Case {
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
    const char* path;
  };
  const std::vector<Case> cases{
      {&ft4, traffic::TrafficSpec::uniform(), "quotient"},
      {&ft4, traffic::TrafficSpec::hotspot(0.1, ft4.num_processors() / 3),
       "quotient"},
      {&tapered, traffic::TrafficSpec::uniform(), "quotient"},
      {&hc, traffic::TrafficSpec::uniform(), "node"},
      {&mesh, traffic::TrafficSpec::hotspot(0.1, 12), "node"},
      {&view, traffic::TrafficSpec::uniform(), "node"}};

  std::vector<std::string> tags;
  std::vector<std::vector<double>> got;
  for (const Case& c : cases) {
    const double before = builds(c.path);
    const GeneralModel m = build_traffic_model_collapsed(*c.topo, c.spec);
    tags.push_back(m.model_name);
    EXPECT_EQ(builds(c.path), before + 1.0) << tags.back();
    got.push_back(pinned_values(m));
  }

  const std::size_t n = std::size(kPinnedModels);
  bool ok = got.size() == n;
  EXPECT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n && i < got.size(); ++i) {
    const PinnedModel& want = kPinnedModels[i];
    bool row_ok = tags[i] == want.tag && got[i].size() == want.values.size();
    for (std::size_t k = 0; row_ok && k < got[i].size(); ++k)
      row_ok = std::bit_cast<std::uint64_t>(got[i][k]) ==
               std::bit_cast<std::uint64_t>(want.values[k]);
    EXPECT_TRUE(row_ok) << tags[i] << " differs from its pinned answers";
    ok = ok && row_ok;
  }
  if (!ok) print_pinned_models(tags, got);
}

}  // namespace
}  // namespace wormnet::core
