// Tests for the shared ChannelSolver kernel — the single home of the
// paper's wait/blocking recurrence — including the machine-precision parity
// between the two model implementations that consume it.
#include "queueing/channel_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "queueing/queueing.hpp"
#include "util/math.hpp"

namespace wormnet {
namespace {

using core::FatTreeEvaluation;
using core::FatTreeModel;
using core::FatTreeModelOptions;
using core::GeneralModel;
using core::SolveResult;
using queueing::AblationOptions;
using queueing::ChannelAttributes;
using queueing::ChannelSolver;

/// The paper's channel with an m-link output bundle.
ChannelAttributes bundle(int servers) { return {.servers = servers}; }

TEST(ChannelSolver, BundleWaitDispatchesOnServerCount) {
  const ChannelSolver solver(16.0);
  const double lam = 0.01, x = 24.0;
  // m = 1 → M/G/1 (Eq. 6).
  EXPECT_DOUBLE_EQ(solver.bundle_wait(bundle(1), lam, x),
                   queueing::mg1_wait_wormhole(lam, x, 16.0));
  // m = 2 → Hokstad M/G/2 at the TOTAL rate 2λ (Eq. 8 + erratum).
  EXPECT_DOUBLE_EQ(solver.bundle_wait(bundle(2), lam, x),
                   queueing::mg2_wait_wormhole(2.0 * lam, x, 16.0));
  // m = 3 → generalized M/G/m at the total rate.
  EXPECT_DOUBLE_EQ(solver.bundle_wait(bundle(3), lam, x),
                   queueing::mgm_wait_wormhole(3, 3.0 * lam, x, 16.0));
}

TEST(ChannelSolver, ErratumSwitchSelectsPerLinkRate) {
  AblationOptions abl;
  abl.erratum_2lambda = false;
  const ChannelSolver typo(16.0, abl);
  const double lam = 0.01, x = 24.0;
  // As typeset: the M/G/2 sees only the per-link rate.
  EXPECT_DOUBLE_EQ(typo.bundle_wait(bundle(2), lam, x),
                   queueing::mg2_wait_wormhole(lam, x, 16.0));
}

TEST(ChannelSolver, MultiServerSwitchFallsBackToMg1) {
  AblationOptions abl;
  abl.multi_server = false;
  const ChannelSolver split(16.0, abl);
  const double lam = 0.01, x = 24.0;
  // Every bundle treated as independent M/G/1 links at the per-link rate.
  EXPECT_DOUBLE_EQ(split.bundle_wait(bundle(2), lam, x),
                   queueing::mg1_wait_wormhole(lam, x, 16.0));
  EXPECT_DOUBLE_EQ(split.bundle_wait(bundle(4), lam, x),
                   queueing::mg1_wait_wormhole(lam, x, 16.0));
}

TEST(ChannelSolver, BlockingFactorMatchesEq10) {
  const ChannelSolver solver(16.0);
  // P = 1 - (λ_in/λ_out)·R, clamped into [0, 1].
  EXPECT_DOUBLE_EQ(solver.blocking_factor(bundle(1), 0.01, 0.02, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(solver.blocking_factor(bundle(2), 0.01, 0.01, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(solver.blocking_factor(bundle(1), 0.05, 0.01, 1.0), 0.0);  // clamped
  // No load on the target: vacuous correction.
  EXPECT_DOUBLE_EQ(solver.blocking_factor(bundle(1), 0.01, 0.0, 0.5), 1.0);
}

TEST(ChannelSolver, BlockingFactorAblations) {
  AblationOptions off;
  off.blocking_correction = false;
  EXPECT_DOUBLE_EQ(ChannelSolver(16.0, off).blocking_factor(bundle(1), 0.05, 0.01, 1.0),
                   1.0);

  // With independent single-server links the worm commits to one specific
  // link of m uniformly: R divides by m for multi-server targets only.
  AblationOptions split;
  split.multi_server = false;
  const ChannelSolver s(16.0, split);
  EXPECT_DOUBLE_EQ(s.blocking_factor(bundle(2), 0.01, 0.02, 0.5),
                   1.0 - (0.01 / 0.02) * 0.25);
  EXPECT_DOUBLE_EQ(s.blocking_factor(bundle(1), 0.01, 0.02, 0.5),
                   1.0 - (0.01 / 0.02) * 0.5);
}

TEST(ChannelSolver, WaitTermShortCircuitsZeroTimesInfinity) {
  EXPECT_DOUBLE_EQ(ChannelSolver::wait_term(0.0, util::kInf), 0.0);
  EXPECT_DOUBLE_EQ(ChannelSolver::wait_term(0.5, 10.0), 5.0);
  EXPECT_TRUE(std::isinf(ChannelSolver::wait_term(0.5, util::kInf)));
}

TEST(ChannelSolver, UtilizationUsesTrueTotalRate) {
  AblationOptions typo;
  typo.erratum_2lambda = false;  // must NOT affect utilization
  const ChannelSolver a(16.0), b(16.0, typo);
  EXPECT_DOUBLE_EQ(a.bundle_utilization(bundle(2), 0.01, 24.0),
                   queueing::utilization(0.02, 24.0, 2));
  EXPECT_DOUBLE_EQ(b.bundle_utilization(bundle(2), 0.01, 24.0),
                   a.bundle_utilization(bundle(2), 0.01, 24.0));
}

TEST(ChannelSolver, SlowLinkQueuesSingleLaneButKeepsLaneBlockingRelief) {
  // On a slow (b < 1) or credit-limited (B < ∞) link extra lanes add no
  // queueing capacity, so the wait and occupancy see one lane; the Eq. 9/10
  // discount still divides by the true lane count, and finite buffers
  // discount R(i|j) by θ = B/(B + b).
  const ChannelSolver solver(16.0);
  const double lam = 0.01, x = 40.0;
  for (const ChannelAttributes& slow :
       {ChannelAttributes{.lanes = 4, .bandwidth = 0.5},
        ChannelAttributes{.lanes = 4, .buffer_depth = 8}}) {
    ChannelAttributes one_lane = slow;
    one_lane.lanes = 1;
    EXPECT_EQ(solver.bundle_wait(slow, lam, x), solver.bundle_wait(one_lane, lam, x));
    EXPECT_EQ(solver.bundle_utilization(slow, lam, x),
              queueing::utilization(lam, x, 1));
    EXPECT_EQ(solver.blocking_factor(slow, 0.01, 0.02, 0.5),
              solver.blocking_factor(one_lane, 0.01, 0.02, 0.5) / 4.0);
  }
  EXPECT_EQ(solver.blocking_factor({.buffer_depth = 4}, 0.01, 0.02, 0.5),
            util::clamp01(1.0 - (0.01 / 0.02) * (0.5 * (4.0 / (4.0 + 1.0)))));
  // A unit link keeps all its lanes in the queue: M/G/4 occupancy.
  EXPECT_EQ(solver.bundle_utilization({.lanes = 4}, lam, x),
            queueing::utilization(lam, x, 4));
}

TEST(ChannelSolver, RejectsNonPositiveWormLength) {
  EXPECT_DEATH(ChannelSolver(0.0), "precondition");
}

// ---------------------------------------------------------------------------
// The acceptance check of the refactor: with the recurrence living in ONE
// kernel, the closed-form fat-tree model and the general solver on the
// collapsed fat-tree graph must agree to machine precision — per level,
// per quantity, across every ablation combination.
class KernelParity : public ::testing::TestWithParam<int> {};

TEST_P(KernelParity, ClosedFormAndGraphSolverAgreeThroughKernel) {
  const int mask = GetParam();
  const int levels = 4;
  const double sf = 16.0;

  FatTreeModelOptions fo{.levels = levels, .worm_flits = sf};
  fo.ablation.multi_server = (mask & 1) != 0;
  fo.ablation.blocking_correction = (mask & 2) != 0;
  fo.ablation.erratum_2lambda = (mask & 4) != 0;
  const FatTreeModel closed(fo);

  GeneralModel net = core::build_fattree_collapsed(levels);
  net.opts.worm_flits = sf;
  net.opts.ablation = fo.ablation;

  // Machine precision: both implementations run the identical kernel, so
  // any disagreement beyond last-ulp rounding (the closed form scales rates
  // by λ₀ before taking ratios, the graph solver takes ratios of unit
  // rates) is a divergence bug.
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
  };
  for (double frac : {0.0, 0.3, 0.7, 0.95}) {
    const double lambda0 = closed.saturation_rate() * frac;
    const FatTreeEvaluation ev = closed.evaluate_detail(lambda0);
    const SolveResult res = net.solve(lambda0);
    if (!ev.stable) continue;
    for (int l = 0; l < levels; ++l) {
      const int up = net.class_id("up" + std::to_string(l));
      const int down = net.class_id("down" + std::to_string(l));
      EXPECT_TRUE(near(res.service_time(up), ev.x_up[static_cast<std::size_t>(l)]))
          << "mask=" << mask << " frac=" << frac << " l=" << l;
      EXPECT_TRUE(near(res.service_time(down), ev.x_down[static_cast<std::size_t>(l)]))
          << "mask=" << mask << " frac=" << frac << " l=" << l;
      EXPECT_TRUE(near(res.wait(up), ev.w_up[static_cast<std::size_t>(l)]))
          << "mask=" << mask << " frac=" << frac << " l=" << l;
      EXPECT_TRUE(near(res.wait(down), ev.w_down[static_cast<std::size_t>(l)]))
          << "mask=" << mask << " frac=" << frac << " l=" << l;
      EXPECT_TRUE(near(res.utilization(up), ev.rho_up[static_cast<std::size_t>(l)]))
          << "mask=" << mask << " frac=" << frac << " l=" << l;
    }
    // And the network-level summary via the polymorphic interface.
    const core::LatencyEstimate a = closed.evaluate(lambda0);
    const core::LatencyEstimate b = net.evaluate(lambda0);
    EXPECT_TRUE(near(a.latency, b.latency)) << "mask=" << mask << " frac=" << frac;
    EXPECT_TRUE(near(a.inj_wait, b.inj_wait)) << "mask=" << mask << " frac=" << frac;
    EXPECT_TRUE(near(a.inj_service, b.inj_service))
        << "mask=" << mask << " frac=" << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(AblationMasks, KernelParity, ::testing::Range(0, 8));

// The generalized m-parent fat-tree goes through the M/G/m branch of the
// kernel; parity must hold there too.
TEST(KernelParityMultiServer, ParentsThreeAndFourAgree) {
  for (int m : {1, 3, 4}) {
    const FatTreeModel closed(
        {.levels = 3, .worm_flits = 16.0, .parents = m});
    GeneralModel net = core::build_fattree_collapsed(3, m);
    net.opts.worm_flits = 16.0;
    const double lambda0 = closed.saturation_rate() * 0.6;
    const core::LatencyEstimate a = closed.evaluate(lambda0);
    const core::LatencyEstimate b = net.evaluate(lambda0);
    ASSERT_TRUE(a.stable) << "m=" << m;
    EXPECT_NEAR(a.latency, b.latency, 1e-9 * a.latency) << "m=" << m;
    EXPECT_NEAR(a.inj_service, b.inj_service, 1e-9 * a.inj_service) << "m=" << m;
  }
}

}  // namespace
}  // namespace wormnet
