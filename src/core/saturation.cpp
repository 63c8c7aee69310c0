#include "core/saturation.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace wormnet::core {

namespace {

/// A rate and the g value the bracket step interpolates with there.
struct BracketEnd {
  double at;
  double g;
  bool probed;  // g's sign at `at` came from a probe
};

// Illinois steps the bracket may take before every remaining probe is a
// bisection midpoint.  A smooth root (the solver's pole, or a linear g)
// needs 10-20; the budget only caps the waste where the interpolation
// cannot help.
constexpr int kBracketSteps = 24;

}  // namespace

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
  // g < 0 on [0, neg.at] and g >= 0 on [pos.at, ∞) once each end is
  // probed (g does not decrease).  (0, −1) only seeds the interpolation:
  // g(0) = −1 for any finite x̄(0), but it is never probed.
  BracketEnd neg{0.0, -1.0, false};
  double hi = upper_bound;
  BracketEnd pos{hi, g(hi), true};
  // Ensure the bracket: grow hi if g(hi) is somehow still negative (cannot
  // happen for wormhole x̄ >= s_f with hi = 1/s_f, but keep the solver
  // generic for custom service functions).  The 64th doubling is not
  // probed.
  for (int grow = 0; grow < 64 && pos.g < 0.0; ++grow) {
    neg = pos;
    hi *= 2.0;
    pos = {hi, 1.0, grow + 1 < 64};
    if (pos.probed) pos.g = g(hi);
  }
  // Replay the plain bisection of [0, hi] midpoint by midpoint.  A midpoint
  // outside the open bracket (neg.at, pos.at) takes the sign of the end it
  // lies beyond; one inside it is settled by probing, at the Illinois point
  // while the budget lasts, else at the midpoint itself.  The interpolation
  // only picks where to probe: the side of every probed rate is g's sign
  // alone.  No rate is probed twice.
  int steps_left = kBracketSteps;
  int last_moved = 0;  // −1: neg moved last, +1: pos moved last
  double lo = 0.0;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    for (;;) {
      if (neg.probed && mid <= neg.at) {
        lo = mid;
        break;
      }
      if (pos.probed && mid >= pos.at) {
        hi = mid;
        break;
      }
      double at = mid;
      if (pos.probed && mid > neg.at && steps_left > 0) {
        --steps_left;
        // The regula falsi point, kept strictly inside the bracket: when
        // it rounds onto an end (g = 0 there, say), the probe goes one
        // ulp inside that end instead.
        const double p = neg.at - neg.g * (pos.at - neg.at) / (pos.g - neg.g);
        const double first = std::nextafter(neg.at, pos.at);
        at = p > first ? std::min(p, std::nextafter(pos.at, neg.at)) : first;
      }
      const double g_at = g(at);
      // Illinois: when one end moves twice in a row, the other end's g is
      // halved, so the interpolation cannot stall against it.
      if (g_at < 0.0) {
        if (last_moved < 0) pos.g *= 0.5;
        neg = {at, g_at, true};
        last_moved = -1;
      } else {
        if (last_moved > 0) neg.g *= 0.5;
        pos = {at, g_at, true};
        last_moved = 1;
      }
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace wormnet::core
