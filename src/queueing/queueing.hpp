// wormnet/queueing/queueing.hpp
//
// Queueing-theory kernels used by the analytical wormhole model of
// Greenberg & Guan (ICPP 1997).  Equation numbers refer to that paper.
//
// Conventions
// -----------
//  * `lambda` is the TOTAL message arrival rate offered to the queue
//    (messages per cycle).  For an m-server channel bundle this is the sum
//    over the m physical links — the paper's erratum at its Eq. 21/23 makes
//    this explicit for the fat-tree up-link pair (2·λ_{l,l+1}).
//  * `xbar` is the mean service time per message in cycles.
//  * `cb2` is the squared coefficient of variation of service time,
//    Var[x]/x̄².
//  * Every wait function returns the *mean waiting time in queue* (time from
//    arrival until service begins), not the sojourn time.
//  * Unstable inputs (utilization >= 1) return +infinity rather than a
//    negative value from the raw formula; the saturation solver relies on
//    this monotone blow-up.
//
// The wormhole wait chain (utilization, stable, wormhole_cb2, the M/G/1,
// M/G/2 and M/G/m waits and wormhole_wait) is defined inline here: the
// channel solver calls it once per channel class per solve, see
// channel_solver.hpp.
#pragma once

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::queueing {

namespace detail {
/// Utilizations within kStabilityMargin of 1 are treated as saturated: the
/// 1/(1-rho) terms would otherwise produce astronomically large but finite
/// waits that destabilize the saturation bisection's bracketing.
inline constexpr double kStabilityMargin = 1e-9;
}  // namespace detail

/// Server utilization rho = lambda * xbar / m.
inline double utilization(double lambda, double xbar, int servers = 1) {
  WORMNET_EXPECTS(servers >= 1);
  WORMNET_EXPECTS(lambda >= 0.0);
  WORMNET_EXPECTS(xbar >= 0.0);
  return lambda * xbar / servers;
}

/// True when the queue is stable (rho < 1, with a tiny safety margin so the
/// downstream 1/(1-rho) terms stay finite in double arithmetic).
inline bool stable(double lambda, double xbar, int servers = 1) {
  return utilization(lambda, xbar, servers) < 1.0 - detail::kStabilityMargin;
}

/// Squared coefficient of variation of wormhole channel service time, Eq. 5:
///     C_b^2 = (x̄ - s_f)^2 / x̄^2
/// where s_f is the worm length in flits.  Rationale (Draper & Ghosh): the
/// deterministic part of a channel's service time is the s_f cycles of flit
/// transmission; all variance comes from the blocking term (x̄ - s_f), and
/// approximating the blocking time's standard deviation by its mean gives
/// sigma_b = x̄ - s_f.
inline double wormhole_cb2(double xbar, double worm_flits) {
  WORMNET_EXPECTS(worm_flits > 0.0);
  if (xbar <= 0.0) return 0.0;
  // Past saturation x̄ diverges; (x̄ - s_f)²/x̄² → 1 in the limit, and the
  // wait kernels return +inf regardless, so report the limit instead of the
  // NaN that inf/inf arithmetic would produce.
  if (!std::isfinite(xbar)) return 1.0;
  const double blocked = xbar - worm_flits;
  return (blocked * blocked) / (xbar * xbar);
}

/// M/G/1 mean wait, Eq. 4:  W = rho * x̄ * (1 + C_b²) / (2 (1 - rho)).
/// Returns +inf when unstable, 0 when lambda == 0.
inline double mg1_wait(double lambda, double xbar, double cb2) {
  WORMNET_EXPECTS(lambda >= 0.0);
  WORMNET_EXPECTS(cb2 >= 0.0);
  if (lambda == 0.0 || xbar == 0.0) return 0.0;
  if (!stable(lambda, xbar, 1)) return util::kInf;
  const double rho = lambda * xbar;
  return rho * xbar * (1.0 + cb2) / (2.0 * (1.0 - rho));
}

/// M/G/1 mean wait with the wormhole variance approximation folded in
/// (the paper's Eq. 6).
inline double mg1_wait_wormhole(double lambda, double xbar, double worm_flits) {
  return mg1_wait(lambda, xbar, wormhole_cb2(xbar, worm_flits));
}

/// Hokstad's M/G/2 mean-wait approximation as used by the paper, Eq. 7:
///     W = lambda² x̄³ (1 + C_b²) / (2 (4 - lambda² x̄²))
/// `lambda` is the TOTAL rate offered to the two-server channel.
/// Returns +inf when unstable (lambda * x̄ >= 2), 0 when lambda == 0.
inline double mg2_wait_hokstad(double lambda, double xbar, double cb2) {
  WORMNET_EXPECTS(lambda >= 0.0);
  WORMNET_EXPECTS(cb2 >= 0.0);
  if (lambda == 0.0 || xbar == 0.0) return 0.0;
  if (!stable(lambda, xbar, 2)) return util::kInf;
  const double lx = lambda * xbar;
  // Eq. 7: the denominator 4 - lambda^2 x̄^2 vanishes exactly at rho = 1.
  return lambda * lambda * xbar * xbar * xbar * (1.0 + cb2) / (2.0 * (4.0 - lx * lx));
}

/// Hokstad M/G/2 with the wormhole variance approximation (Eq. 8).
inline double mg2_wait_wormhole(double lambda, double xbar, double worm_flits) {
  return mg2_wait_hokstad(lambda, xbar, wormhole_cb2(xbar, worm_flits));
}

/// Erlang-C: probability an arrival to an M/M/m queue with offered load
/// a = lambda * x̄ (in Erlangs) must wait.  Exact; used both by the
/// generalized M/G/m kernel and as a test oracle.
double erlang_c(int servers, double offered_load);

/// Exact M/M/1 mean wait  W = rho x̄ / (1 - rho); test oracle.
double mm1_wait(double lambda, double xbar);

/// Exact M/M/m mean wait  W = C(m, a) * x̄ / (m - a); test oracle and the
/// base of the M/G/m approximation below.
double mmm_wait(int servers, double lambda, double xbar);

/// Generalized M/G/m mean-wait approximation (Lee–Longton form, the standard
/// generalization consistent with Hokstad's study):
///     W_{M/G/m} ≈ (1 + C_b²)/2 · W_{M/M/m}.
/// For m == 1 this is exact (it reduces to Pollaczek–Khinchine).  The paper's
/// conclusion names >2-server channels as the natural extension of its
/// framework; this kernel backs the m-parent fat-tree models in wormnet::core.
inline double mgm_wait(int servers, double lambda, double xbar, double cb2) {
  WORMNET_EXPECTS(servers >= 1);
  WORMNET_EXPECTS(cb2 >= 0.0);
  if (lambda == 0.0 || xbar == 0.0) return 0.0;
  if (!stable(lambda, xbar, servers)) return util::kInf;
  return 0.5 * (1.0 + cb2) * mmm_wait(servers, lambda, xbar);
}

/// Generalized M/G/m with the wormhole variance approximation.
inline double mgm_wait_wormhole(int servers, double lambda, double xbar,
                                double worm_flits) {
  return mgm_wait(servers, lambda, xbar, wormhole_cb2(xbar, worm_flits));
}

/// Allen–Cunneen G/G/m correction relative to the M/G/m kernels above:
///     W_{G/G/m} ≈ (C_a² + C_s²)/2 · W_{M/M/m}
///               = W_{M/G/m} · (C_a² + C_s²)/(1 + C_s²),
/// so a non-Poisson arrival stream with SCV C_a² scales the Poisson wait by
/// this factor.  Exactly 1 at C_a² = 1 (the Poisson paths stay bit-identical
/// through it, though callers short-circuit anyway).
double allen_cunneen_scale(double ca2, double cs2);

/// The one home of the guard-and-scale rule for retrofitting a Poisson wait
/// to arrival SCV `ca2` — the G/G/m wait of Allen–Cunneen:
///     W_{G/G/m} ≈ W_{M/G/m} · (C_a² + C_s²)/(1 + C_s²),
/// so over mg1_wait it is the Kingman G/G/1 form and over mgm_wait the
/// G/G/m one.  ca2 == 1 returns `poisson_wait` untouched (bit identity,
/// never a multiply-by-computed-1), a zero or diverged wait stays as is
/// (saturation dominates variability; 0·inf must not make NaN), and
/// everything else scales by allen_cunneen_scale(ca2, cs2).
/// ChannelSolver::bundle_wait routes through this.
double scaled_wait_gg(double poisson_wait, double ca2, double cs2);

/// Mean waiting time of an m-server wormhole channel evaluated with the
/// kernels above: dispatches to Eq. 6 (m=1), Eq. 8 (m=2) or the generalized
/// M/G/m (m>2).  `lambda_total` is the whole bundle's rate.
inline double wormhole_wait(int servers, double lambda_total, double xbar,
                            double worm_flits) {
  switch (servers) {
    case 1:
      return mg1_wait_wormhole(lambda_total, xbar, worm_flits);
    case 2:
      return mg2_wait_wormhole(lambda_total, xbar, worm_flits);
    default:
      return mgm_wait_wormhole(servers, lambda_total, xbar, worm_flits);
  }
}

}  // namespace wormnet::queueing
