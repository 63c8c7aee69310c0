// Tests for the queueing kernels (the paper's Eq. 4-10).
//
// Oracle relationships used here:
//  * Pollaczek-Khinchine: M/G/1 with C_b²=1 is exactly M/M/1, with C_b²=0
//    exactly M/D/1 (half the M/M/1 wait).
//  * Hokstad's M/G/2 approximation is EXACT for exponential service, where
//    the M/M/2 Erlang-C closed form W = a²x̄ / ((2+a)(2-a)) applies.
//  * The generalized M/G/m kernel must coincide with M/G/1 at m=1 and with
//    Hokstad at m=2.
#include "queueing/channel_solver.hpp"
#include "queueing/queueing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace wormnet::queueing {
namespace {

TEST(Utilization, Definition) {
  EXPECT_DOUBLE_EQ(utilization(0.1, 5.0, 1), 0.5);
  EXPECT_DOUBLE_EQ(utilization(0.1, 5.0, 2), 0.25);
}

TEST(Stable, Boundary) {
  EXPECT_TRUE(stable(0.1, 5.0, 1));
  EXPECT_FALSE(stable(0.2, 5.0, 1));   // rho = 1
  EXPECT_FALSE(stable(0.3, 5.0, 1));
  EXPECT_TRUE(stable(0.3, 5.0, 2));    // rho = 0.75
  EXPECT_FALSE(stable(0.4, 5.0, 2));   // rho = 1
}

TEST(WormholeCb2, DeterministicServiceHasZeroVariance) {
  EXPECT_DOUBLE_EQ(wormhole_cb2(16.0, 16.0), 0.0);
}

TEST(WormholeCb2, GrowsWithBlocking) {
  // x̄ = 2 s_f: sigma = s_f, C² = 1/4.
  EXPECT_DOUBLE_EQ(wormhole_cb2(32.0, 16.0), 0.25);
  // Limit as x̄ -> inf is 1.
  EXPECT_LT(wormhole_cb2(1e6, 16.0), 1.0);
  EXPECT_NEAR(wormhole_cb2(1e6, 16.0), 1.0, 1e-4);
  EXPECT_DOUBLE_EQ(wormhole_cb2(std::numeric_limits<double>::infinity(), 16.0), 1.0);
}

TEST(Mg1, ZeroLoadZeroWait) {
  EXPECT_DOUBLE_EQ(mg1_wait(0.0, 16.0, 0.5), 0.0);
}

TEST(Mg1, MatchesMm1ForExponentialService) {
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double xbar = 8.0;
    const double lambda = rho / xbar;
    EXPECT_NEAR(mg1_wait(lambda, xbar, 1.0), mm1_wait(lambda, xbar), 1e-12)
        << "rho=" << rho;
  }
}

TEST(Mg1, DeterministicServiceIsHalfOfExponential) {
  const double lambda = 0.05, xbar = 10.0;
  EXPECT_NEAR(mg1_wait(lambda, xbar, 0.0), 0.5 * mm1_wait(lambda, xbar), 1e-12);
}

TEST(Mg1, KnownPollaczekKhinchineValue) {
  // rho = 0.5, x̄ = 10, C² = 0: W = rho x̄ / (2 (1-rho)) = 5.
  EXPECT_NEAR(mg1_wait(0.05, 10.0, 0.0), 5.0, 1e-12);
}

TEST(Mg1, UnstableIsInfinite) {
  EXPECT_TRUE(std::isinf(mg1_wait(0.1, 10.0, 0.5)));
  EXPECT_TRUE(std::isinf(mg1_wait(0.2, 10.0, 0.5)));
}

TEST(Mg1, MonotoneInLambdaAndService) {
  double prev = 0.0;
  for (double lambda : {0.01, 0.02, 0.04, 0.06, 0.08}) {
    const double w = mg1_wait(lambda, 10.0, 0.3);
    EXPECT_GT(w, prev);
    prev = w;
  }
  EXPECT_GT(mg1_wait(0.05, 12.0, 0.3), mg1_wait(0.05, 10.0, 0.3));
  EXPECT_GT(mg1_wait(0.05, 10.0, 0.9), mg1_wait(0.05, 10.0, 0.3));
}

TEST(Mg1Wormhole, FoldsVarianceApproximation) {
  const double lambda = 0.03, xbar = 20.0, sf = 16.0;
  EXPECT_NEAR(mg1_wait_wormhole(lambda, xbar, sf),
              mg1_wait(lambda, xbar, wormhole_cb2(xbar, sf)), 1e-12);
}

TEST(ErlangC, SingleServerEqualsRho) {
  for (double a : {0.1, 0.5, 0.9}) EXPECT_NEAR(erlang_c(1, a), a, 1e-12);
}

TEST(ErlangC, TwoServersKnownValue) {
  // C(2, 1) = 1/3 (classic).
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ErlangC, SaturatedAndEmpty) {
  EXPECT_DOUBLE_EQ(erlang_c(2, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(erlang_c(2, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(erlang_c(4, 17.0), 1.0);
}

TEST(ErlangC, DecreasesWithMoreServersAtFixedLoad) {
  const double a = 1.5;
  EXPECT_GT(erlang_c(2, a), erlang_c(3, a));
  EXPECT_GT(erlang_c(3, a), erlang_c(4, a));
}

TEST(Mmm, KnownTwoServerClosedForm) {
  // W_MM2 = a² x̄ / ((2+a)(2-a)).
  const double xbar = 10.0;
  for (double a : {0.2, 0.8, 1.0, 1.6}) {
    const double lambda = a / xbar;
    EXPECT_NEAR(mmm_wait(2, lambda, xbar), a * a * xbar / ((2.0 + a) * (2.0 - a)),
                1e-10)
        << "a=" << a;
  }
}

TEST(Mmm, OneServerMatchesMm1) {
  EXPECT_NEAR(mmm_wait(1, 0.05, 10.0), mm1_wait(0.05, 10.0), 1e-12);
}

TEST(Mg2Hokstad, ExactForExponentialService) {
  const double xbar = 16.0;
  for (double a : {0.3, 0.9, 1.5, 1.9}) {
    const double lambda = a / xbar;
    EXPECT_NEAR(mg2_wait_hokstad(lambda, xbar, 1.0), mmm_wait(2, lambda, xbar), 1e-10)
        << "a=" << a;
  }
}

TEST(Mg2Hokstad, UnstableAtTwoServersWorth) {
  EXPECT_TRUE(std::isinf(mg2_wait_hokstad(0.2, 10.0, 0.5)));  // a = 2
  EXPECT_FALSE(std::isinf(mg2_wait_hokstad(0.19, 10.0, 0.5)));
}

TEST(Mg2Hokstad, TwoServersBeatOneAtSameTotalLoad) {
  // Pooling two servers must reduce waiting versus one server at half the
  // per-server load... the classic pooling advantage: compare M/G/2 at rate
  // lambda against M/G/1 at rate lambda/2 (same per-server utilization).
  const double xbar = 16.0, cb2 = 0.4;
  for (double lambda : {0.02, 0.05, 0.08, 0.11}) {
    EXPECT_LT(mg2_wait_hokstad(lambda, xbar, cb2), mg1_wait(lambda / 2.0, xbar, cb2))
        << "lambda=" << lambda;
  }
}

TEST(Mgm, ReducesToMg1AtOneServer) {
  EXPECT_NEAR(mgm_wait(1, 0.04, 12.0, 0.6), mg1_wait(0.04, 12.0, 0.6), 1e-12);
}

TEST(Mgm, MatchesHokstadAtTwoServers) {
  for (double lambda : {0.02, 0.06, 0.1}) {
    EXPECT_NEAR(mgm_wait(2, lambda, 16.0, 0.3), mg2_wait_hokstad(lambda, 16.0, 0.3),
                1e-10);
  }
}

TEST(Mgm, MoreServersLessWaitAtFixedTotalRate) {
  const double lambda = 0.1, xbar = 16.0, cb2 = 0.5;
  EXPECT_GT(mgm_wait(2, lambda, xbar, cb2), mgm_wait(3, lambda, xbar, cb2));
  EXPECT_GT(mgm_wait(3, lambda, xbar, cb2), mgm_wait(4, lambda, xbar, cb2));
}

// Eq. 10, P(i|j) = 1 - m (λ_in / λ_out,total) R(i|j), is
// ChannelSolver::blocking_factor at per-link rates, where the m cancels.

TEST(BlockingProbability, ExactSingleInputCase) {
  // One input feeding one output exclusively: a worm never waits for itself.
  const ChannelSolver solver(16.0);
  EXPECT_DOUBLE_EQ(solver.blocking_factor({}, 0.1, 0.1, 1.0), 0.0);
}

TEST(BlockingProbability, PaperDownChannelForm) {
  // Eq. 18's factor: 1 - (1/4) lambda_in/lambda_out with m = 1.
  const ChannelSolver solver(16.0);
  const double p = solver.blocking_factor({}, 0.08, 0.04, 0.25);
  EXPECT_NEAR(p, 1.0 - 0.25 * 2.0, 1e-12);
}

TEST(BlockingProbability, MultiServerUsesTotalRate) {
  // m = 2, lambda_out_total = 0.12, so 0.06 per link: the per-link form
  // 1 - (lambda_in/per-link)*R equals Eq. 10's 1 - m (lambda_in/total)*R.
  const ChannelSolver solver(16.0);
  const double p = solver.blocking_factor({.servers = 2}, 0.03, 0.06, 0.5);
  EXPECT_NEAR(p, 1.0 - 2.0 * (0.03 / 0.12) * 0.5, 1e-12);
}

TEST(BlockingProbability, ClampsToZero) {
  const ChannelSolver solver(16.0);
  EXPECT_DOUBLE_EQ(solver.blocking_factor({.servers = 2}, 1.0, 0.25, 1.0), 0.0);
}

TEST(BlockingProbability, VacuousWhenOutputIdle) {
  const ChannelSolver solver(16.0);
  EXPECT_DOUBLE_EQ(solver.blocking_factor({}, 0.1, 0.0, 0.5), 1.0);
}

TEST(WormholeWait, DispatchesOnServerCount) {
  const double lambda = 0.02, xbar = 20.0, sf = 16.0;  // rho = 0.4 at m = 1
  EXPECT_NEAR(wormhole_wait(1, lambda, xbar, sf), mg1_wait_wormhole(lambda, xbar, sf),
              1e-12);
  EXPECT_NEAR(wormhole_wait(2, lambda, xbar, sf), mg2_wait_wormhole(lambda, xbar, sf),
              1e-12);
  EXPECT_NEAR(wormhole_wait(3, lambda, xbar, sf),
              mgm_wait_wormhole(3, lambda, xbar, sf), 1e-12);
}

// Property sweep: every kernel is non-negative, finite below saturation and
// infinite past it.
class KernelStability : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(KernelStability, FiniteBelowSaturationInfiniteAbove) {
  const auto [servers, rho] = GetParam();
  const double xbar = 24.0;
  const double lambda = rho * servers / xbar;
  const double w = wormhole_wait(servers, lambda, xbar, 16.0);
  if (rho < 1.0) {
    EXPECT_TRUE(std::isfinite(w)) << "m=" << servers << " rho=" << rho;
    EXPECT_GE(w, 0.0);
  } else {
    EXPECT_TRUE(std::isinf(w)) << "m=" << servers << " rho=" << rho;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelStability,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.05, 0.35, 0.65, 0.95, 1.0, 1.2)));

}  // namespace
}  // namespace wormnet::queueing
