// Kernel-level property sweeps for the queueing functions: identities that
// hold across the whole parameter space, checked densely.  These pin the
// algebraic structure that the model-level scale-invariance and ablation
// results depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "queueing/channel_solver.hpp"
#include "queueing/queueing.hpp"

namespace wormnet::queueing {
namespace {

// Scale invariance: W(λ/k, k·x̄) = k·W(λ, x̄) for every kernel, at matched
// C_b² (utilization is invariant, waits scale like service times).
class KernelScaling
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(KernelScaling, WaitsScaleLinearly) {
  const auto [servers, rho, k] = GetParam();
  const double xbar = 16.0;
  const double lambda = rho * servers / xbar;
  const double cb2 = 0.37;
  const double base = mgm_wait(servers, lambda, xbar, cb2);
  const double scaled = mgm_wait(servers, lambda / k, k * xbar, cb2);
  ASSERT_TRUE(std::isfinite(base));
  EXPECT_NEAR(scaled, k * base, 1e-9 * std::max(1.0, k * base));
  // Hokstad M/G/2 obeys the same scaling.
  if (servers == 2) {
    EXPECT_NEAR(mg2_wait_hokstad(lambda / k, k * xbar, cb2),
                k * mg2_wait_hokstad(lambda, xbar, cb2),
                1e-9 * std::max(1.0, k * base));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelScaling,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(2.0, 4.0, 7.5)));

// The wormhole C_b² is itself scale-invariant, closing the loop for the
// model-level invariance: cb2(k·x̄, k·s_f) == cb2(x̄, s_f).
TEST(WormholeCb2, ScaleInvariant) {
  for (double xbar : {16.0, 24.0, 100.0}) {
    for (double k : {2.0, 3.5, 8.0}) {
      EXPECT_NEAR(wormhole_cb2(k * xbar, k * 16.0), wormhole_cb2(xbar, 16.0), 1e-12);
    }
  }
}

// Waits increase in every argument (λ, x̄, C_b²) and decrease in m.
class KernelMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(KernelMonotonicity, InLambda) {
  const int m = GetParam();
  const double xbar = 20.0;
  double prev = -1.0;
  for (double rho = 0.05; rho < 0.95; rho += 0.1) {
    const double w = mgm_wait(m, rho * m / xbar, xbar, 0.5);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST_P(KernelMonotonicity, InServiceTime) {
  const int m = GetParam();
  const double lambda = 0.4 * m / 20.0;
  double prev = -1.0;
  for (double xbar = 10.0; xbar < 40.0; xbar += 5.0) {
    if (!stable(lambda, xbar, m)) break;
    const double w = mgm_wait(m, lambda, xbar, 0.5);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST_P(KernelMonotonicity, InVariance) {
  const int m = GetParam();
  const double xbar = 20.0;
  const double lambda = 0.6 * m / xbar;
  double prev = -1.0;
  for (double cb2 = 0.0; cb2 <= 2.0; cb2 += 0.25) {
    const double w = mgm_wait(m, lambda, xbar, cb2);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelMonotonicity, ::testing::Values(1, 2, 3, 4));

TEST(KernelOrdering, PoolingAlwaysHelps) {
  // At the same per-server utilization, more servers => less waiting
  // (classic pooling), across the whole stable range.
  const double xbar = 16.0;
  for (double rho = 0.1; rho < 0.95; rho += 0.1) {
    double prev = std::numeric_limits<double>::infinity();
    for (int m = 1; m <= 4; ++m) {
      const double w = mgm_wait(m, rho * m / xbar, xbar, 0.4);
      EXPECT_LT(w, prev) << "m=" << m << " rho=" << rho;
      prev = w;
    }
  }
}

TEST(KernelOrdering, ErlangCIncreasesWithLoad) {
  for (int m : {1, 2, 4, 8}) {
    double prev = -1.0;
    for (double a = 0.1 * m; a < m; a += 0.1 * m) {
      const double c = erlang_c(m, a);
      EXPECT_GT(c, prev) << "m=" << m;
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
  }
}

TEST(KernelLimits, WaitVanishesAtZeroLoadForAllKernels) {
  for (int m = 1; m <= 4; ++m) {
    EXPECT_DOUBLE_EQ(mgm_wait(m, 0.0, 16.0, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(wormhole_wait(m, 0.0, 16.0, 16.0), 0.0);
  }
}

TEST(KernelLimits, WaitDivergesApproachingSaturation) {
  // W must exceed any bound as rho -> 1 (continuity of the blow-up).
  for (int m : {1, 2, 3}) {
    const double xbar = 16.0;
    const double w_far = mgm_wait(m, 0.90 * m / xbar, xbar, 0.5);
    const double w_near = mgm_wait(m, 0.999 * m / xbar, xbar, 0.5);
    EXPECT_GT(w_near, 50.0 * w_far / 10.0);
    EXPECT_TRUE(std::isfinite(w_near));
  }
}

TEST(BlockingProperties, MonotoneInRateRatioAndRouteProb) {
  // More of the output's traffic coming from this input => less waiting for
  // others (smaller P).
  // Eq. 10 is ChannelSolver::blocking_factor at per-link rates.
  const ChannelSolver solver(16.0);
  double prev = 2.0;
  for (double ratio = 0.1; ratio <= 1.0; ratio += 0.1) {
    const double p = solver.blocking_factor({}, ratio, 1.0, 0.8);
    EXPECT_LT(p, prev);
    prev = p;
  }
  prev = 2.0;
  for (double r = 0.1; r <= 1.0; r += 0.1) {
    const double p = solver.blocking_factor({}, 0.7, 1.0, r);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(BlockingProperties, BoundedInUnitInterval) {
  const ChannelSolver solver(16.0);
  for (int m : {1, 2, 3, 4}) {
    for (double lin : {0.0, 0.3, 1.0, 3.0}) {
      for (double lout : {0.1, 1.0, 5.0}) {
        for (double r : {0.0, 0.25, 1.0}) {
          // lout is the bundle's total rate; the kernel takes it per link.
          const double p = solver.blocking_factor({.servers = m}, lin, lout / m, r);
          EXPECT_GE(p, 0.0);
          EXPECT_LE(p, 1.0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace wormnet::queueing
