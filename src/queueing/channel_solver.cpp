#include "queueing/channel_solver.hpp"

namespace wormnet::queueing {

ChannelSolver::ChannelSolver(double worm_flits, AblationOptions ablation)
    : worm_flits_(worm_flits), ablation_(ablation) {
  WORMNET_EXPECTS(worm_flits_ > 0.0);
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

double ChannelSolver::drain_floor(const ChannelAttributes& ch) const {
  if (detail::unit_link(ch)) return 0.0;  // the paper's channel has no floor
  return worm_flits_ / detail::effective_bandwidth(ch);
}

}  // namespace wormnet::queueing
