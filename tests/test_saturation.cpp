// Tests for the Eq. 26 saturation solver.
#include "core/saturation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
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

TEST(Saturation, BisectionNeverProbesTheSameRateTwice) {
  // Once the bracket is an ulp wide the midpoint lands on an endpoint; the
  // bisection reuses that endpoint's value instead of probing it again,
  // and lands on the bits of the plain 60-step bisection.
  const auto reference = [](const std::function<double(double)>& service,
                            double hi) {
    auto g = [&](double l) {
      const double x = service(l);
      return std::isfinite(x) ? l * x - 1.0 : 1.0;
    };
    double lo = 0.0;
    for (int grow = 0; grow < 64 && g(hi) < 0.0; ++grow) hi *= 2.0;
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      (g(mid) < 0.0 ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  };
  const std::function<double(double)> services[] = {
      [](double) { return 20.0; },
      [](double l) { return 10.0 + 100.0 * l; },
      [](double l) { return l < 0.04 ? 10.0 / (1.0 - l / 0.04) : util::kInf; },
      [](double l) { return l < 0.00123 ? 16.0 + 2000.0 * l : util::kInf; },
  };
  for (const auto& service : services) {
    std::vector<double> probes;
    const double rate = find_saturation_rate(
        [&](double l) {
          probes.push_back(l);
          return service(l);
        },
        1.0 / 16.0);
    EXPECT_EQ(rate, reference(service, 1.0 / 16.0));
    std::vector<double> sorted = probes;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "a rate was probed twice";
    EXPECT_LT(probes.size(), 61u);
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
