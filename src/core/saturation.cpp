#include "core/saturation.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace wormnet::core {

double find_saturation_rate(const std::function<double(double)>& service_of,
                            double upper_bound, int iterations) {
  WORMNET_EXPECTS(upper_bound > 0.0);
  WORMNET_EXPECTS(iterations > 0);
  // g(λ) = λ · x̄(λ) - 1 is negative below saturation, positive (or +inf)
  // at/above it.
  auto g = [&](double lambda) {
    const double x = service_of(lambda);
    if (!std::isfinite(x)) return 1.0;  // unstable: definitely past saturation
    return lambda * x - 1.0;
  };
  double lo = 0.0;
  double hi = upper_bound;
  // Ensure the bracket: grow hi if g(hi) is somehow still negative (cannot
  // happen for wormhole x̄ >= s_f with hi = 1/s_f, but keep the solver
  // generic for custom service functions).
  double g_hi = g(hi);
  bool hi_known = true;
  for (int grow = 0; grow < 64 && g_hi < 0.0; ++grow) {
    hi *= 2.0;
    hi_known = grow + 1 < 64;
    if (hi_known) g_hi = g(hi);
  }
  // Once the bracket is one ulp wide the midpoint lands on an endpoint
  // (the last 4-6 of the 60 halvings for a λ₀* of 1e-3..1e-2).  g is a
  // pure function of λ, so an endpoint's known value stands in for
  // re-probing it: the same steps, bit for bit, without the repeated
  // solves.
  double g_lo = 0.0;
  bool lo_known = false;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double g_mid = mid == hi && hi_known   ? g_hi
                         : mid == lo && lo_known ? g_lo
                                                 : g(mid);
    if (g_mid < 0.0) {
      lo = mid;
      g_lo = g_mid;
      lo_known = true;
    } else {
      hi = mid;
      g_hi = g_mid;
      hi_known = true;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace wormnet::core
