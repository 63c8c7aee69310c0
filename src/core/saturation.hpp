// wormnet/core/saturation.hpp
//
// The paper's throughput criterion (Eq. 26): the network saturates at the
// injection rate λ₀ where the source service time equals the inter-arrival
// time, x̄_inj(λ₀) = 1/λ₀.  Since x̄_inj is non-decreasing in λ₀ (more load
// can only slow channels down) and 1/λ₀ strictly decreases, the crossing is
// unique: g(λ) = λ·x̄_inj(λ) − 1 does not decrease, and an unstable
// evaluation (infinite x̄) counts as g = +1, "past saturation".
//
// The search is a bisection of [0, upper_bound] with a bracket step in
// front.  Every probe tells g's sign at one rate, and monotone g spreads it:
// g < 0 at and below the largest rate probed negative, g >= 0 at and above
// the smallest rate probed non-negative.  The bracket step probes the
// Illinois (regula falsi) point between those two rates, which closes in on
// a smooth root, or on the pole just below a jump, in about 20 probes.
// The bisection then replays the plain 60-halving path midpoint by
// midpoint: a midpoint outside the bracket takes the sign of the end it
// lies beyond, and only one inside it is probed.  The path is the plain
// bisection's, so the answer is its bits; about a third of its probes are
// made.
//
// Only g's sign decides which side of the bracket a rate is on.  A smooth
// stand-in (a utilization margin, say) may pick where to probe, never the
// side: at the root an interior bundle usually reaches u = 1 first (see
// below), so the crossing is a jump that such a margin misplaces.  The
// exactness rests on g's monotonicity in floating point; a cyclic graph's
// damped fixed point is monotone only to its tolerance, which the tests
// check on the ring of test_solve_plan.cpp along with every saturation pin.
//
// Note on which limit binds: in the butterfly fat-tree an interior channel
// (the top-level up bundle) reaches utilization 1 — driving x̄_inj to
// infinity — slightly BEFORE the source criterion λ₀·x̄_inj = 1 is met, so
// the solver returns the stability boundary: the largest λ₀ the model can
// sustain.  That is exactly the load where the paper's "let the source
// arrival rate increase until the equation is satisfied" procedure stops,
// because x̄_inj jumps through 1/λ₀ at that point.
#pragma once

#include <functional>

namespace wormnet::core {

/// Find λ₀* with service_of(λ₀*) == 1/λ₀*.
///  * `service_of`  — λ₀ → x̄_inj (may return +inf past stability); must
///                    be a pure function of λ₀ that does not decrease;
///  * `upper_bound` — any rate known to be at/above saturation, e.g. 1/s_f
///                    (the injection channel can never serve faster than one
///                    worm per s_f cycles);
///  * `iterations`  — halvings of the bisection path the answer lies on
///                    (each halves the bracket until it is one ulp wide).
///                    They count steps of that path, not probes: a step
///                    whose midpoint lies outside the bracket step's known
///                    signs probes nothing, and no rate is probed twice.
double find_saturation_rate(const std::function<double(double)>& service_of,
                            double upper_bound, int iterations = 60);

}  // namespace wormnet::core
