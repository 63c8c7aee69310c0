// Tests for the Eq. 26 saturation solver.
#include "core/saturation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::core {
namespace {

TEST(Saturation, ConstantServiceTime) {
  // x̄(λ) = 20 regardless of load: saturation at λ = 1/20.
  const double rate = find_saturation_rate([](double) { return 20.0; }, 1.0);
  EXPECT_NEAR(rate, 0.05, 1e-9);
}

TEST(Saturation, LinearServiceGrowth) {
  // x̄(λ) = 10 + 100λ: solve λ(10 + 100λ) = 1 -> λ = (−10+√(10²+400))/200.
  const double rate =
      find_saturation_rate([](double l) { return 10.0 + 100.0 * l; }, 1.0);
  const double expected = (-10.0 + std::sqrt(100.0 + 400.0)) / 200.0;
  EXPECT_NEAR(rate, expected, 1e-9);
}

TEST(Saturation, HandlesInfinitePastStability) {
  // Service blows up at λ = 0.04; the solver must converge below it.
  auto service = [](double l) {
    return l < 0.04 ? 10.0 / (1.0 - l / 0.04) : util::kInf;
  };
  const double rate = find_saturation_rate(service, 1.0);
  EXPECT_LT(rate, 0.04);
  EXPECT_GT(rate, 0.0);
  // At the root, λ·x̄ ≈ 1.
  EXPECT_NEAR(rate * service(rate), 1.0, 1e-6);
}

TEST(Saturation, GrowsBracketWhenUpperBoundTooSmall) {
  // Root is at 0.05 but we pass an upper bound of 0.001: bracket growth
  // must find it anyway.
  const double rate = find_saturation_rate([](double) { return 20.0; }, 0.001);
  EXPECT_NEAR(rate, 0.05, 1e-6);
}

/// find_saturation_rate as it was before the bracket step, verbatim: 60
/// blind halvings of [0, upper_bound], probing every midpoint that is not
/// an already-probed endpoint.
double plain_bisection(const std::function<double(double)>& service_of,
                       double upper_bound, int iterations = 60) {
  WORMNET_EXPECTS(upper_bound > 0.0);
  WORMNET_EXPECTS(iterations > 0);
  // g(λ) = λ · x̄(λ) - 1 is negative below saturation, positive (or +inf)
  // at/above it.
  auto g = [&](double lambda) {
    const double x = service_of(lambda);
    if (!std::isfinite(x)) return 1.0;  // unstable: definitely past saturation
    return lambda * x - 1.0;
  };
  double lo = 0.0;
  double hi = upper_bound;
  // Ensure the bracket: grow hi if g(hi) is somehow still negative (cannot
  // happen for wormhole x̄ >= s_f with hi = 1/s_f, but keep the solver
  // generic for custom service functions).
  double g_hi = g(hi);
  bool hi_known = true;
  for (int grow = 0; grow < 64 && g_hi < 0.0; ++grow) {
    hi *= 2.0;
    hi_known = grow + 1 < 64;
    if (hi_known) g_hi = g(hi);
  }
  // Once the bracket is one ulp wide the midpoint lands on an endpoint
  // (the last 4-6 of the 60 halvings for a λ₀* of 1e-3..1e-2).  g is a
  // pure function of λ, so an endpoint's known value stands in for
  // re-probing it: the same steps, bit for bit, without the repeated
  // solves.
  double g_lo = 0.0;
  bool lo_known = false;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double g_mid = mid == hi && hi_known   ? g_hi
                         : mid == lo && lo_known ? g_lo
                                                 : g(mid);
    if (g_mid < 0.0) {
      lo = mid;
      g_lo = g_mid;
      lo_known = true;
    } else {
      hi = mid;
      g_hi = g_mid;
      hi_known = true;
    }
  }
  return 0.5 * (lo + hi);
}

/// A search input: x̄_inj as a function of λ₀ and the upper bound callers
/// pass (1/s_f for a network model).
struct SearchCase {
  std::string tag;
  std::function<double(double)> service;
  double upper_bound;
};

/// The search through a GeneralModel's solve plan, as SolvePlan and
/// SweepEngine run it.
SearchCase plan_case(std::string tag, const GeneralModel& net) {
  auto plan = std::make_shared<const SolvePlan>(net);
  return {std::move(tag),
          [plan](double l) { return plan->evaluate(l).inj_service; },
          1.0 / net.worm_flits()};
}

/// A derangement drawn from `rng` (no processor sends to itself).
std::vector<int> derangement(int n, std::mt19937_64& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<int> dest(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    dest[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        order[static_cast<std::size_t>((i + 1) % n)];
  return dest;
}

std::vector<SearchCase> search_cases() {
  std::vector<SearchCase> cases;
  const auto uniform = traffic::TrafficSpec::uniform();
  cases.push_back(plan_case(
      "dense BFT(4) uniform",
      build_traffic_model(topo::ButterflyFatTree(4), uniform)));
  {
    topo::ButterflyFatTree tapered(3);
    tapered.set_tier_bandwidth(1, 0.5);
    tapered.set_uniform_lanes(2);
    tapered.set_uniform_buffer_depth(2);
    cases.push_back(plan_case("BFT(3) 2:1 taper L=2 B=2",
                              build_traffic_model(tapered, uniform)));
  }
  cases.push_back(plan_case(
      "BFT(3) hotspot",
      build_traffic_model(topo::ButterflyFatTree(3),
                          traffic::TrafficSpec::hotspot(0.2, 5))));
  cases.push_back(plan_case("Mesh(4,4) uniform",
                            build_traffic_model(topo::Mesh(4, 2), uniform)));
  cases.push_back(plan_case(
      "Hypercube(6) bit-complement",
      build_traffic_model(topo::Hypercube(6),
                          traffic::TrafficSpec::bit_complement())));
  cases.push_back(plan_case(
      "BFT(3) m=4", build_traffic_model(topo::ButterflyFatTree(3, 4), uniform)));
  {
    const topo::ButterflyFatTree ft(3);
    topo::FaultSet faults(ft);
    faults.fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
    cases.push_back(plan_case(
        "BFT(3) one failed link",
        build_traffic_model(topo::FaultedTopology(ft, faults), uniform)));
  }
  {
    const topo::ButterflyFatTree ft(3);
    std::mt19937_64 rng(2718);
    std::vector<int> dest = derangement(ft.num_processors(), rng);
    RetunableTrafficModel resident(ft, traffic::TrafficSpec::permutation(dest));
    std::swap(dest[3], dest[40]);
    resident.retune_traffic(traffic::TrafficSpec::permutation(dest));
    cases.push_back(plan_case("BFT(3) retuned derangement", resident.model()));
  }
  {
    auto closed = std::make_shared<const FatTreeModel>(
        FatTreeModelOptions{.levels = 5, .worm_flits = 16.0});
    cases.push_back({"FatTreeModel BFT(5)",
                     [closed](double l) { return closed->evaluate(l).inj_service; },
                     1.0 / 16.0});
  }
  {
    // The cyclic ring of SolvePlan.CyclicGraphMatchesPinnedFixedPoint
    // (test_solve_plan.cpp): a and b feed each other and the ejection
    // channel e.  It has no injection class, so a ring channel's service
    // time stands in for x̄_inj; each solve is a damped fixed point.
    GeneralModel ring;
    ring.opts.worm_flits = 8.0;
    ChannelGraph& g = ring.graph;
    ChannelClass ej;
    ej.label = "eject";
    ej.rate_per_link = 1.0;
    ej.terminal = true;
    const int e = g.add_channel(ej);
    ChannelClass link;
    link.label = "ring";
    link.rate_per_link = 0.5;
    const int a = g.add_channel(link);
    const int b = g.add_channel(link);
    g.add_transition(a, b, 0.5, 0.5);
    g.add_transition(a, e, 0.5, 0.5);
    g.add_transition(b, a, 0.5, 0.5);
    g.add_transition(b, e, 0.5, 0.5);
    auto plan = std::make_shared<const SolvePlan>(ring);
    cases.push_back({"cyclic ring",
                     [plan, a](double l) {
                       const SolveResult sol = plan->solve(l);
                       return sol.stable ? sol.service_time(a) : util::kInf;
                     },
                     1.0 / 8.0});
  }
  cases.push_back({"constant", [](double) { return 20.0; }, 1.0 / 16.0});
  cases.push_back({"linear", [](double l) { return 10.0 + 100.0 * l; }, 1.0 / 16.0});
  cases.push_back(
      {"pole",
       [](double l) { return l < 0.04 ? 10.0 / (1.0 - l / 0.04) : util::kInf; },
       1.0 / 16.0});
  cases.push_back(
      {"jump",
       [](double l) { return l < 0.00123 ? 16.0 + 2000.0 * l : util::kInf; },
       1.0 / 16.0});
  // g = −1 everywhere: the bracket doubles 64 times and the last doubling
  // is never probed.
  cases.push_back({"never saturates", [](double) { return 0.0; }, 1.0 / 16.0});
  return cases;
}

TEST(Saturation, BisectionNeverProbesTheSameRateTwice) {
  // A midpoint at or beyond a probed rate takes that rate's sign instead of
  // being probed again.
  for (const SearchCase& c : search_cases()) {
    std::vector<double> probes;
    find_saturation_rate(
        [&](double l) {
          probes.push_back(l);
          return c.service(l);
        },
        c.upper_bound);
    std::sort(probes.begin(), probes.end());
    EXPECT_EQ(std::adjacent_find(probes.begin(), probes.end()), probes.end())
        << c.tag << ": a rate was probed twice";
  }
}

TEST(Saturation, BracketedSearchMatchesPlainBisection) {
  for (const SearchCase& c : search_cases()) {
    const auto count = [&](int& probes) {
      return [&c, &probes](double l) {
        ++probes;
        return c.service(l);
      };
    };
    int plain_probes = 0;
    int probes = 0;
    const double expected = plain_bisection(count(plain_probes), c.upper_bound);
    const double rate = find_saturation_rate(count(probes), c.upper_bound);
    EXPECT_EQ(rate, expected) << c.tag;
    EXPECT_LE(probes, plain_probes) << c.tag;
  }
}

TEST(Saturation, FatTreeModelAndGraphAgree) {
  for (int levels : {2, 3, 5}) {
    FatTreeModel closed({.levels = levels, .worm_flits = 16.0});
    const GeneralModel net = build_fattree_collapsed(levels);
    SolveOptions opts;
    opts.worm_flits = 16.0;
    EXPECT_NEAR(model_saturation_rate(net, opts), closed.saturation_rate(),
                1e-6 * closed.saturation_rate())
        << "levels=" << levels;
  }
}

TEST(Saturation, LargerNetworksSaturateEarlier) {
  // Deeper fat-trees funnel proportionally more traffic through their upper
  // levels relative to a processor's injection capacity.
  double prev = 1.0;
  for (int levels : {1, 2, 3, 4, 5}) {
    FatTreeModel m({.levels = levels, .worm_flits = 16.0});
    const double sat = m.saturation_load();
    EXPECT_LT(sat, prev) << "levels=" << levels;
    prev = sat;
  }
}

TEST(Saturation, AblationsShiftSaturationTheRightWay) {
  FatTreeModelOptions base{.levels = 5, .worm_flits = 16.0};
  const double sat_full = FatTreeModel(base).saturation_load();

  FatTreeModelOptions no_ms = base;
  no_ms.ablation.multi_server = false;
  // Ignoring the pooled two-server bundles makes queues look worse:
  // saturation moves DOWN.
  EXPECT_LT(FatTreeModel(no_ms).saturation_load(), sat_full);

  FatTreeModelOptions no_block = base;
  no_block.ablation.blocking_correction = false;
  // Charging full waits (P = 1) also predicts earlier saturation.
  EXPECT_LT(FatTreeModel(no_block).saturation_load(), sat_full);

  FatTreeModelOptions typo = base;
  typo.ablation.erratum_2lambda = false;
  // The typo'd M/G/2 under-counts arrivals: optimistically late saturation.
  EXPECT_GT(FatTreeModel(typo).saturation_load(), sat_full);
}

}  // namespace
}  // namespace wormnet::core
