#include "queueing/channel_solver.hpp"

#include <limits>

#include "queueing/queueing.hpp"
#include "util/assert.hpp"

namespace wormnet::queueing {

namespace {

/// True for the paper's unit-bandwidth, unbounded-buffer link — the one
/// whose drain never floors a worm's holding time.
bool unit_link(const ChannelAttributes& ch) {
  return ch.bandwidth == 1.0 && ch.buffer_depth == util::kInfiniteBufferDepth;
}

/// Lane multiplicity as the queue sees it: a slow or credit-limited link
/// queues as single-lane (see ChannelSolver::bundle_wait).
int queue_lanes(const ChannelAttributes& ch) {
  WORMNET_EXPECTS(ch.servers >= 1);
  WORMNET_EXPECTS(ch.lanes >= 1);
  return unit_link(ch) ? ch.lanes : 1;
}

/// b_eff = b·B/(B + b): after B flits at the native rate, credit return
/// costs one stall cycle.  Exactly b at B = ∞ (no arithmetic applied).
double effective_bandwidth(const ChannelAttributes& ch) {
  WORMNET_EXPECTS(ch.bandwidth > 0.0);
  WORMNET_EXPECTS(ch.buffer_depth >= 1);
  if (ch.buffer_depth == util::kInfiniteBufferDepth) return ch.bandwidth;
  const double depth = static_cast<double>(ch.buffer_depth);
  return ch.bandwidth * depth / (depth + ch.bandwidth);
}

}  // namespace

ChannelSolver::ChannelSolver(double worm_flits, AblationOptions ablation)
    : worm_flits_(worm_flits), ablation_(ablation) {
  WORMNET_EXPECTS(worm_flits_ > 0.0);
}

double ChannelSolver::cb2(double xbar) const {
  return wormhole_cb2(xbar, worm_flits_);
}

double ChannelSolver::bundle_wait(const ChannelAttributes& ch,
                                  double lambda_link, double xbar) const {
  const int lanes = queue_lanes(ch);
  double wait;
  if (!ablation_.multi_server) {
    // Each physical link an independent queue whose L lane latches are its
    // servers — plain M/G/1 at L = 1.
    wait = wormhole_wait(lanes, lambda_link, xbar, worm_flits_);
  } else {
    // Corrected form (the erratum at Eq. 21/23): the m-server queue sees
    // the bundle's total rate.  The uncorrected published formula used the
    // per-link rate.
    const double lambda_arg =
        ablation_.erratum_2lambda ? lambda_link * ch.servers : lambda_link;
    wait = wormhole_wait(ch.servers * lanes, lambda_arg, xbar, worm_flits_);
  }
  // Poisson channels (the closed form's only case) skip the C_b² work;
  // scaled_wait_gg owns the remaining guard rules (0/inf passthrough).
  if (ch.ca2 == 1.0) return wait;
  return scaled_wait_gg(wait, ch.ca2, cb2(xbar));
}

double ChannelSolver::bundle_utilization(const ChannelAttributes& ch,
                                         double lambda_link, double xbar) const {
  return utilization(lambda_link * ch.servers, xbar, ch.servers * queue_lanes(ch));
}

double ChannelSolver::blocking_factor(const ChannelAttributes& to,
                                      double lambda_in_link,
                                      double lambda_out_link,
                                      double route_prob) const {
  WORMNET_EXPECTS(to.servers >= 1);
  WORMNET_EXPECTS(to.lanes >= 1);
  double p = 1.0;  // ablated, or vacuous: no load on the target
  if (ablation_.blocking_correction && lambda_out_link > 0.0) {
    double r = route_prob;
    if (to.buffer_depth != util::kInfiniteBufferDepth) {
      WORMNET_EXPECTS(to.buffer_depth >= 1);
      WORMNET_EXPECTS(to.bandwidth > 0.0);
      const double depth = static_cast<double>(to.buffer_depth);
      r *= depth / (depth + to.bandwidth);  // θ = b_eff / b
    }
    if (!ablation_.multi_server && to.servers > 1) r /= to.servers;
    p = util::clamp01(1.0 - (lambda_in_link / lambda_out_link) * r);
  }
  return to.lanes == 1 ? p : p / static_cast<double>(to.lanes);
}

double ChannelSolver::lane_excess(int lanes, double lambda_link) const {
  WORMNET_EXPECTS(lanes >= 1);
  WORMNET_EXPECTS(lambda_link >= 0.0);
  if (lanes == 1) return 0.0;
  const double u = lambda_link * worm_flits_;
  if (u >= 1.0) return std::numeric_limits<double>::infinity();
  const double share = u * (1.0 - 1.0 / static_cast<double>(lanes));
  return (1.0 / (1.0 - share) - 1.0) * worm_flits_;
}

double ChannelSolver::drain_floor(const ChannelAttributes& ch) const {
  if (unit_link(ch)) return 0.0;  // the paper's channel has no floor
  return worm_flits_ / effective_bandwidth(ch);
}

double ChannelSolver::lane_share_factor(const ChannelAttributes& ch,
                                        double lambda_link) const {
  WORMNET_EXPECTS(ch.lanes >= 1);
  WORMNET_EXPECTS(lambda_link >= 0.0);
  // Occupancy against the EFFECTIVE capacity: a tapered or credit-limited
  // link saturates at λ·s_f = b_eff regardless of lane count — this guard,
  // not the wait divergence, is what moves the model's saturation point.
  const double u = lambda_link * worm_flits_ / effective_bandwidth(ch);
  if (u >= 1.0) return std::numeric_limits<double>::infinity();
  if (ch.lanes == 1) return 1.0;
  const double share = u * (1.0 - 1.0 / static_cast<double>(ch.lanes));
  return 1.0 / (1.0 - share);
}

double ChannelSolver::wait_term(double blocking, double wait) {
  // p ≤ 1e-12 is summation-order noise around the exact-zero blocking case
  // (λ_in·R == λ_out) — see the header: past saturation it must read as
  // "never waits here", not as an infinite wait term.
  return blocking > 1e-12 ? blocking * wait : 0.0;
}

}  // namespace wormnet::queueing
