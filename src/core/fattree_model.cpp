#include "core/fattree_model.hpp"

#include <cmath>
#include <limits>

#include "queueing/channel_solver.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::core {

using queueing::ChannelSolver;
using util::ipow;

FatTreeModel::FatTreeModel(FatTreeModelOptions opts) : opts_(opts) {
  WORMNET_EXPECTS(opts_.levels >= 1 && opts_.levels <= 8);
  WORMNET_EXPECTS(opts_.worm_flits > 0.0);
  WORMNET_EXPECTS(opts_.parents >= 1 && opts_.parents <= 4);
  WORMNET_EXPECTS(opts_.lanes >= 1);
}

std::string FatTreeModel::name() const {
  std::string n = "butterfly-fattree(n=" + std::to_string(opts_.levels) +
                  ",m=" + std::to_string(opts_.parents);
  if (opts_.lanes > 1) n += ",L=" + std::to_string(opts_.lanes);
  return n + ")";
}

long FatTreeModel::num_processors() const { return ipow(4, opts_.levels); }

double FatTreeModel::mean_distance() const {
  const double denom = static_cast<double>(num_processors()) - 1.0;
  double sum = 0.0;
  for (int l = 1; l <= opts_.levels; ++l)
    sum += 2.0 * l * 3.0 * static_cast<double>(ipow(4, l - 1)) / denom;
  return sum;
}

double FatTreeModel::up_probability(int level) const {
  WORMNET_EXPECTS(level >= 0 && level <= opts_.levels);
  // Eq. 12: of the 4^n - 1 possible destinations, 4^l - 1 are reachable
  // without leaving the level-l subtree.
  const double n4 = static_cast<double>(num_processors());
  return (n4 - static_cast<double>(ipow(4, level))) / (n4 - 1.0);
}

double FatTreeModel::rate_up(int level, double lambda0) const {
  WORMNET_EXPECTS(level >= 0 && level < opts_.levels);
  // Eq. 14 generalized: level l offers 4^n·λ₀·P↑_l messages over
  // 4^(n-l)·m^l links, i.e. λ₀·P↑_l·(4/m)^l per link; m = 2 reproduces the
  // paper's λ₀·P↑_l·2^l.  At level 0 this degenerates to λ₀, so the
  // injection channel is handled uniformly.
  const double fan = 4.0 / static_cast<double>(opts_.parents);
  return lambda0 * up_probability(level) * std::pow(fan, level);
}

LatencyEstimate FatTreeEvaluation::summary() const {
  LatencyEstimate est;
  est.stable = stable;
  est.status = stable ? SolveStatus::Ok : SolveStatus::Saturated;
  est.latency = latency;
  est.inj_wait = inj_wait;
  est.inj_service = inj_service;
  est.mean_distance = mean_distance;
  // The closed form never produces NaN past saturation, only +inf waits —
  // but keep the interface contract airtight regardless.
  if (std::isnan(est.latency))
    est.latency = std::numeric_limits<double>::infinity();
  return est;
}

FatTreeEvaluation FatTreeModel::evaluate_detail(double lambda0) const {
  WORMNET_EXPECTS(lambda0 >= 0.0);
  const int n = opts_.levels;
  const double sf = opts_.worm_flits;
  const ChannelSolver solver(sf, opts_.ablation);

  FatTreeEvaluation ev;
  ev.lambda0 = lambda0;
  ev.load_flits = lambda0 * sf;
  ev.mean_distance = mean_distance();
  ev.lambda_up.resize(static_cast<std::size_t>(n));
  ev.x_up.assign(static_cast<std::size_t>(n), 0.0);
  ev.w_up.assign(static_cast<std::size_t>(n), 0.0);
  ev.rho_up.assign(static_cast<std::size_t>(n), 0.0);
  ev.x_down.assign(static_cast<std::size_t>(n), 0.0);
  ev.w_down.assign(static_cast<std::size_t>(n), 0.0);
  ev.rho_down.assign(static_cast<std::size_t>(n), 0.0);

  for (int l = 0; l < n; ++l)
    ev.lambda_up[static_cast<std::size_t>(l)] = rate_up(l, lambda0);
  auto lam = [&](int l) { return ev.lambda_up[static_cast<std::size_t>(l)]; };

  const int lanes = opts_.lanes;
  // Down channels and the injection channel are single links; up bundles at
  // level >= 1 pool the m parent links.  Every link carries `lanes` lanes.
  const queueing::ChannelAttributes single{.lanes = lanes};
  const queueing::ChannelAttributes bundle{.servers = opts_.parents, .lanes = lanes};
  // Lane-multiplexing excess of the level-l channel (zero at lanes == 1).
  auto ex = [&](int l) { return solver.lane_excess(lanes, lam(l)); };

  // --- Down chain, Eq. 16–19, resolved from the ejection channel upward.
  // Down channels are single-server; their waits come from the kernel's
  // M/G/1 path (Eq. 17/19), lane-extended to M/G/L when lanes > 1.
  ev.x_down[0] = solver.terminal_service() + ex(0);  // Eq. 16
  ev.w_down[0] = solver.bundle_wait(single, lam(0), ev.x_down[0]);  // Eq. 17
  for (int l = 1; l < n; ++l) {
    // Eq. 18: continue down one of 4 children, R = 1/4.
    const double p = solver.blocking_factor(single, lam(l), lam(l - 1), 0.25);
    ev.x_down[static_cast<std::size_t>(l)] =
        ev.x_down[static_cast<std::size_t>(l - 1)] +
        ChannelSolver::wait_term(p, ev.w_down[static_cast<std::size_t>(l - 1)]) +
        ex(l);
    ev.w_down[static_cast<std::size_t>(l)] = solver.bundle_wait(
        single, lam(l), ev.x_down[static_cast<std::size_t>(l)]);  // Eq. 19
  }

  // --- Up chain, Eq. 20–24, resolved from the top downward.  Up bundles at
  // level >= 1 are m-server channels; the kernel applies the erratum's
  // total-rate correction (Eq. 21/23) and the ablation switches.
  {
    // Eq. 20: after the top-most up channel ⟨n-1, n⟩ a message descends to
    // one of 3 siblings; λ⟨n-1,n⟩ = λ⟨n,n-1⟩ makes the factor exactly 2/3.
    const int l = n - 1;
    const double p = solver.blocking_factor(single, lam(l), lam(l), 1.0 / 3.0);
    ev.x_up[static_cast<std::size_t>(l)] =
        ev.x_down[static_cast<std::size_t>(l)] +
        ChannelSolver::wait_term(p, ev.w_down[static_cast<std::size_t>(l)]) + ex(l);
  }
  if (n >= 2) {
    const int top = n - 1;
    ev.w_up[static_cast<std::size_t>(top)] = solver.bundle_wait(
        bundle, lam(top), ev.x_up[static_cast<std::size_t>(top)]);  // Eq. 21
  }
  for (int l = n - 1; l >= 1; --l) {
    // Eq. 22 for channel ⟨l-1, l⟩.
    const double pu = up_probability(l);
    const double pd = 1.0 - pu;  // Eq. 13
    const double block_up = solver.blocking_factor(bundle, lam(l - 1), lam(l), pu);
    const double up_term =
        ev.x_up[static_cast<std::size_t>(l)] +
        ChannelSolver::wait_term(block_up, ev.w_up[static_cast<std::size_t>(l)]);
    const double block_down =
        solver.blocking_factor(single, lam(l - 1), lam(l - 1), pd / 3.0);
    const double down_term =
        ev.x_down[static_cast<std::size_t>(l - 1)] +
        ChannelSolver::wait_term(block_down, ev.w_down[static_cast<std::size_t>(l - 1)]);
    ev.x_up[static_cast<std::size_t>(l - 1)] =
        pu * up_term + pd * down_term + ex(l - 1);
    if (l - 1 >= 1) {
      ev.w_up[static_cast<std::size_t>(l - 1)] = solver.bundle_wait(
          bundle, lam(l - 1), ev.x_up[static_cast<std::size_t>(l - 1)]);  // Eq. 23
    }
  }
  // Eq. 24: the injection channel has no redundant twin — M/G/1 (M/G/L with
  // lane latches).
  ev.w_up[0] = solver.bundle_wait(single, lam(0), ev.x_up[0]);

  // Utilizations (diagnostics; also the stability verdict): lane occupancy
  // of the m·L latches when lanes > 1.
  for (int l = 0; l < n; ++l) {
    ev.rho_up[static_cast<std::size_t>(l)] = solver.bundle_utilization(
        l >= 1 ? bundle : single, lam(l), ev.x_up[static_cast<std::size_t>(l)]);
    ev.rho_down[static_cast<std::size_t>(l)] = solver.bundle_utilization(
        single, lam(l), ev.x_down[static_cast<std::size_t>(l)]);
  }

  ev.inj_wait = ev.w_up[0];
  ev.inj_service = ev.x_up[0];
  ev.latency = ev.inj_wait + ev.inj_service + ev.mean_distance - 1.0;  // Eq. 25
  ev.stable = std::isfinite(ev.latency);
  for (double rho : ev.rho_up)
    if (rho >= 1.0) ev.stable = false;
  for (double rho : ev.rho_down)
    if (rho >= 1.0) ev.stable = false;
  return ev;
}

FatTreeEvaluation FatTreeModel::evaluate_load_detail(double load_flits) const {
  return evaluate_detail(load_flits / opts_.worm_flits);
}

LatencyEstimate FatTreeModel::evaluate(double lambda0) const {
  return evaluate_detail(lambda0).summary();
}

}  // namespace wormnet::core
