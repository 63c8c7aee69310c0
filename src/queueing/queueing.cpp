#include "queueing/queueing.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::queueing {

using util::kInf;

double erlang_c(int servers, double offered_load) {
  WORMNET_EXPECTS(servers >= 1);
  WORMNET_EXPECTS(offered_load >= 0.0);
  const double a = offered_load;
  const auto m = servers;
  if (a == 0.0) return 0.0;
  if (a >= m) return 1.0;  // saturated: every arrival waits
  // Evaluate iteratively to avoid factorial overflow:
  //   inv_b(0) = 1;  inv_b(k) = 1 + (k / a) * inv_b(k-1)   [Erlang-B recursion
  //   on the reciprocal], then C = m*B / (m - a(1-B)) via the B->C identity.
  double inv_b = 1.0;
  for (int k = 1; k <= m; ++k) inv_b = 1.0 + inv_b * static_cast<double>(k) / a;
  const double b = 1.0 / inv_b;
  return b / (1.0 - (a / m) * (1.0 - b));
}

double mm1_wait(double lambda, double xbar) {
  if (lambda == 0.0 || xbar == 0.0) return 0.0;
  if (!stable(lambda, xbar, 1)) return kInf;
  const double rho = lambda * xbar;
  return rho * xbar / (1.0 - rho);
}

double mmm_wait(int servers, double lambda, double xbar) {
  WORMNET_EXPECTS(servers >= 1);
  if (lambda == 0.0 || xbar == 0.0) return 0.0;
  if (!stable(lambda, xbar, servers)) return kInf;
  const double a = lambda * xbar;
  const double c = erlang_c(servers, a);
  return c * xbar / (servers - a);
}

double allen_cunneen_scale(double ca2, double cs2) {
  WORMNET_EXPECTS(ca2 >= 0.0);
  WORMNET_EXPECTS(cs2 >= 0.0);
  return (ca2 + cs2) / (1.0 + cs2);
}

double scaled_wait_gg(double poisson_wait, double ca2, double cs2) {
  // Explicit short-circuit: the Poisson path must reproduce the paper's
  // published numbers bit for bit, never through a multiply-by-one.
  if (ca2 == 1.0) return poisson_wait;
  WORMNET_EXPECTS(ca2 >= 0.0);
  // A saturated queue stays saturated regardless of arrival variability (a
  // C_a² = 0 scale of an infinite wait would otherwise produce 0·inf = NaN).
  if (poisson_wait == 0.0 || !std::isfinite(poisson_wait)) return poisson_wait;
  return poisson_wait * allen_cunneen_scale(ca2, cs2);
}

}  // namespace wormnet::queueing
