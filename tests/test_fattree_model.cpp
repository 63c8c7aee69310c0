// Tests for the closed-form butterfly fat-tree model (the paper's §3).
#include "core/fattree_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "topo/butterfly_fattree.hpp"
#include "util/math.hpp"

namespace wormnet::core {
namespace {

TEST(FatTreeModel, UpProbabilityEq12) {
  FatTreeModel m({.levels = 5, .worm_flits = 16.0});
  // P↑_l = (4^n - 4^l) / (4^n - 1).
  EXPECT_NEAR(m.up_probability(0), 1023.0 / 1023.0, 1e-15);
  EXPECT_NEAR(m.up_probability(1), (1024.0 - 4.0) / 1023.0, 1e-15);
  EXPECT_NEAR(m.up_probability(4), (1024.0 - 256.0) / 1023.0, 1e-15);
  EXPECT_NEAR(m.up_probability(5), 0.0, 1e-15);  // nothing above the root
}

TEST(FatTreeModel, RatesEq14) {
  FatTreeModel m({.levels = 3, .worm_flits = 16.0});
  const double lambda0 = 0.001;
  // λ⟨l,l+1⟩ = λ₀ P↑_l 2^l.
  for (int l = 0; l < 3; ++l) {
    EXPECT_NEAR(m.rate_up(l, lambda0),
                lambda0 * m.up_probability(l) * (1 << l), 1e-15);
  }
  // The injection channel rate degenerates to λ₀.
  EXPECT_NEAR(m.rate_up(0, lambda0), lambda0, 1e-15);
}

TEST(FatTreeModel, MeanDistanceMatchesTopology) {
  for (int n = 1; n <= 5; ++n) {
    FatTreeModel m({.levels = n, .worm_flits = 16.0});
    topo::ButterflyFatTree ft(n);
    EXPECT_NEAR(m.mean_distance(), ft.mean_distance(), 1e-12) << "n=" << n;
  }
}

TEST(FatTreeModel, ZeroLoadLatencyIsDistancePlusWormLength) {
  for (int n : {1, 2, 3, 5}) {
    for (double sf : {16.0, 32.0, 64.0}) {
      FatTreeModel m({.levels = n, .worm_flits = sf});
      const FatTreeEvaluation ev = m.evaluate_detail(0.0);
      EXPECT_TRUE(ev.stable);
      EXPECT_NEAR(ev.latency, sf + m.mean_distance() - 1.0, 1e-9)
          << "n=" << n << " sf=" << sf;
      EXPECT_NEAR(ev.inj_wait, 0.0, 1e-12);
      EXPECT_NEAR(ev.inj_service, sf, 1e-9);
    }
  }
}

TEST(FatTreeModel, EjectionServiceIsWormLength) {
  FatTreeModel m({.levels = 3, .worm_flits = 32.0});
  const FatTreeEvaluation ev = m.evaluate_detail(0.0005);
  EXPECT_DOUBLE_EQ(ev.x_down[0], 32.0);  // Eq. 16
}

TEST(FatTreeModel, LatencyIsMonotoneInLoad) {
  FatTreeModel m({.levels = 4, .worm_flits = 16.0});
  double prev = 0.0;
  for (double load = 0.002; load < 0.035; load += 0.004) {
    const FatTreeEvaluation ev = m.evaluate_load_detail(load);
    ASSERT_TRUE(ev.stable) << "load=" << load;
    EXPECT_GT(ev.latency, prev);
    prev = ev.latency;
  }
}

TEST(FatTreeModel, ServiceTimesGrowTowardTheSource) {
  // Under load, x̄⟨0,1⟩ accumulates every downstream wait, so it must exceed
  // the worm length and exceed every down-channel service time.
  FatTreeModel m({.levels = 4, .worm_flits = 16.0});
  const FatTreeEvaluation ev = m.evaluate_load_detail(0.025);
  ASSERT_TRUE(ev.stable);
  EXPECT_GT(ev.inj_service, 16.0);
  for (int l = 0; l < 4; ++l) {
    EXPECT_GE(ev.x_up[static_cast<std::size_t>(l)],
              ev.x_down[static_cast<std::size_t>(l)] - 1e-9);
  }
  // Down-chain service times are non-decreasing with level (Eq. 18 adds a
  // non-negative wait at every step).
  for (int l = 1; l < 4; ++l) {
    EXPECT_GE(ev.x_down[static_cast<std::size_t>(l)],
              ev.x_down[static_cast<std::size_t>(l - 1)]);
  }
}

TEST(FatTreeModel, UnstableAboveSaturation) {
  FatTreeModel m({.levels = 5, .worm_flits = 32.0});
  const double sat = m.saturation_load();
  EXPECT_FALSE(m.evaluate_load_detail(sat * 1.05).stable);
  EXPECT_TRUE(m.evaluate_load_detail(sat * 0.95).stable);
}

TEST(FatTreeModel, SaturationIsTheStabilityBoundary) {
  // In the fat-tree, an interior channel reaches utilization 1 before the
  // source criterion λ₀·x̄⟨0,1⟩ = 1, so x̄⟨0,1⟩ jumps through 1/λ₀ at the
  // stability boundary; the solver must pin that boundary tightly.
  FatTreeModel m({.levels = 4, .worm_flits = 16.0});
  const double rate = m.saturation_rate();
  const FatTreeEvaluation below = m.evaluate_detail(rate * 0.999);
  ASSERT_TRUE(below.stable);
  // Below saturation the source still keeps up: λ₀·x̄⟨0,1⟩ < 1.
  EXPECT_LT(below.inj_service * below.lambda0, 1.0);
  // The boundary is tight: 0.1% above is already unstable.
  EXPECT_FALSE(m.evaluate_detail(rate * 1.001).stable);
  // Utilizations compound through the service-time chain, so ρ_max climbs
  // through the final stretch toward 1 extremely steeply; 0.1% below the
  // boundary it is already high but not yet pinned at 1.
  double max_rho = 0.0;
  for (double rho : below.rho_up) max_rho = std::max(max_rho, rho);
  for (double rho : below.rho_down) max_rho = std::max(max_rho, rho);
  EXPECT_GT(max_rho, 0.8);
  EXPECT_LT(max_rho, 1.0);
}

TEST(FatTreeModel, SaturationLoadIsScaleInvariantInWormLength) {
  // The model is exactly invariant under (λ₀, s_f) -> (λ₀/k, k·s_f): all
  // waits scale by k, so the saturation FLIT load is identical for 16, 32
  // and 64-flit worms.  (A nontrivial structural property of Eq. 4-26.)
  FatTreeModel m16({.levels = 5, .worm_flits = 16.0});
  FatTreeModel m32({.levels = 5, .worm_flits = 32.0});
  FatTreeModel m64({.levels = 5, .worm_flits = 64.0});
  EXPECT_NEAR(m16.saturation_load(), m32.saturation_load(), 1e-6);
  EXPECT_NEAR(m32.saturation_load(), m64.saturation_load(), 1e-6);
}

TEST(FatTreeModel, LatencyScalesLinearlyInWormLengthAtFixedFlitLoad) {
  // Same invariance at the latency level: L(k·s_f) - (D̄-1) = k·(L(s_f) - (D̄-1)).
  FatTreeModel m16({.levels = 4, .worm_flits = 16.0});
  FatTreeModel m48({.levels = 4, .worm_flits = 48.0});
  const double load = 0.02;
  const double core16 = m16.evaluate_load_detail(load).latency - (m16.mean_distance() - 1.0);
  const double core48 = m48.evaluate_load_detail(load).latency - (m48.mean_distance() - 1.0);
  EXPECT_NEAR(core48, 3.0 * core16, 1e-6);
}

TEST(FatTreeModel, ErratumMattersAtModerateLoad) {
  // Evaluating the M/G/2 at the per-link rate (the uncorrected published
  // formula) must under-predict waiting versus the corrected 2λ form.
  FatTreeModelOptions good{.levels = 5, .worm_flits = 16.0};
  FatTreeModelOptions typo = good;
  typo.ablation.erratum_2lambda = false;
  FatTreeModel m_good(good), m_typo(typo);
  const double load = 0.03;
  EXPECT_GT(m_good.evaluate_load_detail(load).latency, m_typo.evaluate_load_detail(load).latency);
}

TEST(FatTreeModel, MultiServerAblationChangesPrediction) {
  FatTreeModelOptions mg2{.levels = 5, .worm_flits = 16.0};
  FatTreeModelOptions mg1 = mg2;
  mg1.ablation.multi_server = false;
  const double load = 0.03;
  const double latency_mg2 = FatTreeModel(mg2).evaluate_load_detail(load).latency;
  const double latency_mg1 = FatTreeModel(mg1).evaluate_load_detail(load).latency;
  // Treating each up-link as an isolated M/G/1 ignores the pooling benefit
  // of the redundant pair, over-predicting latency.
  EXPECT_GT(latency_mg1, latency_mg2);
}

TEST(FatTreeModel, BlockingAblationChangesPrediction) {
  FatTreeModelOptions with{.levels = 5, .worm_flits = 16.0};
  FatTreeModelOptions without = with;
  without.ablation.blocking_correction = false;
  const double load = 0.03;
  const double latency_with = FatTreeModel(with).evaluate_load_detail(load).latency;
  const double latency_without = FatTreeModel(without).evaluate_load_detail(load).latency;
  // P(i|j) <= 1 discounts waits; dropping it must increase latency.
  EXPECT_GT(latency_without, latency_with);
}

TEST(FatTreeModel, SmallestNetworkIsWellFormed) {
  // n = 1: four processors under one switch level; everything resolves via
  // the top-level rule (Eq. 20 with n = 1).
  FatTreeModel m({.levels = 1, .worm_flits = 16.0});
  const FatTreeEvaluation ev = m.evaluate_detail(0.01);
  EXPECT_TRUE(ev.stable);
  EXPECT_NEAR(ev.mean_distance, 2.0, 1e-12);  // every pair shares the switch
  EXPECT_GT(ev.latency, 16.0 + 2.0 - 1.0);
  EXPECT_GT(m.saturation_load(), 0.0);
}

TEST(FatTreeModel, EvaluateLoadConvertsUnits) {
  FatTreeModel m({.levels = 3, .worm_flits = 32.0});
  const FatTreeEvaluation a = m.evaluate_detail(0.001);
  const FatTreeEvaluation b = m.evaluate_load_detail(0.032);
  EXPECT_NEAR(a.latency, b.latency, 1e-12);
  EXPECT_NEAR(b.lambda0, 0.001, 1e-15);
  EXPECT_NEAR(a.load_flits, 0.032, 1e-15);
}

// Property sweep: stability flag is consistent with latency finiteness over
// (levels, worm length, load fraction of saturation).
class FatTreeModelSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(FatTreeModelSweep, StableIffFinite) {
  const auto [levels, sf, frac] = GetParam();
  FatTreeModel m({.levels = levels, .worm_flits = sf});
  const double load = m.saturation_load() * frac;
  const FatTreeEvaluation ev = m.evaluate_load_detail(load);
  EXPECT_EQ(ev.stable, std::isfinite(ev.latency));
  if (frac < 1.0) {
    EXPECT_TRUE(ev.stable) << "levels=" << levels << " sf=" << sf
                           << " frac=" << frac;
    EXPECT_GE(ev.latency, sf + m.mean_distance() - 1.0 - 1e-9);
  } else {
    EXPECT_FALSE(ev.stable);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FatTreeModelSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(16.0, 32.0, 64.0),
                       ::testing::Values(0.25, 0.5, 0.75, 0.95, 1.1)));

}  // namespace
}  // namespace wormnet::core
