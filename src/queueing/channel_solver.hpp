// wormnet/queueing/channel_solver.hpp
//
// The per-channel solver kernel of the Greenberg & Guan model — the ONE
// place the repository evaluates the paper's wait/blocking recurrence.
// Both instantiations of the model (the closed-form butterfly fat-tree of
// §3 and the general channel-graph solver of §2) are thin drivers around
// this kernel: they decide WHICH channels feed which, while the kernel owns
// HOW a channel's wait, utilization and blocking discount are computed.
//
// One call per quantity, each over the channel's ChannelAttributes:
//  * bundle_wait        — W̄ of an m-link output bundle: M/G/1 (Eq. 6) for
//                         m = 1, Hokstad's M/G/2 (Eq. 8) for m = 2 with the
//                         published erratum's 2λ correction at Eq. 21/23,
//                         and the generalized M/G/m kernel for m > 2;
//  * bundle_utilization — ρ of that bundle (the stability verdict);
//  * blocking_factor    — the wormhole blocking-probability correction
//                         P(i|j) of Eq. 9/10 in per-link-rate form;
// plus the guarded p·W̄ product (wait_term) and the per-hop stretch terms
// the drivers add while composing service times.
//
// The paper's two novelties and its erratum are the only switches
// (AblationOptions).  The extensions — virtual-channel lanes, bursty
// arrival SCVs, link bandwidth, link latency and finite buffers — are
// channel INPUTS, and each degrades to the paper's model through its input:
// at L = 1, C_a² = 1, b = 1, latency 0 and B = ∞ every extension term
// returns early, so the published numbers are reproduced bit for bit.
//
// All rates passed to the kernel are PER PHYSICAL LINK; the kernel applies
// the m-server total-rate correction internally so callers cannot disagree
// about the erratum.
//
// The calls a solve makes once per channel class (bundle_wait, cb2,
// bundle_utilization, lane_excess, lane_share_factor and wait_term, with the
// queueing.hpp chain they reach) are defined inline below.  A solve is a
// loop of them and little else, so a call across translation units costs a
// real share of it; inline definitions let the compiler fold them into the
// loop in every build of the sources, with or without link-time
// optimization.  The set-up calls (blocking_factor, drain_floor) stay in
// channel_solver.cpp.  Inlining keeps every expression and its order, so the
// bits do not move.
#pragma once

#include <limits>

#include "queueing/queueing.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::queueing {

/// The paper's two novelties and its published erratum as switches, so the
/// contribution of each ingredient can be isolated (the ablation benches)
/// and so every model implementation exposes the same knobs.
struct AblationOptions {
  /// Novelty (1): model an m-link bundle as one M/G/m pool.  Off: m
  /// independent M/G/1 servers, each at the per-link rate.
  bool multi_server = true;
  /// Novelty (2): apply the Eq. 9/10 blocking-probability discount.  Off:
  /// P(i|j) ≡ 1 (plain store-and-forward reuse of Poisson results).
  bool blocking_correction = true;
  /// The erratum at Eq. 21/23: evaluate the M/G/m wait at the bundle's
  /// TOTAL rate m·λ.  Off: the per-link rate as originally typeset.
  bool erratum_2lambda = true;
};

/// The queueing-relevant attributes of one channel (or channel class).
/// The defaults are the paper's channel: one server, one lane, unit
/// bandwidth, no extra latency, unbounded buffering, Poisson arrivals.
struct ChannelAttributes {
  /// m, the number of physical links arbitrated as one multi-server output
  /// bundle (the fat-tree's redundant parent pair has m = 2).
  int servers = 1;
  /// L, virtual channels (lanes) multiplexed per physical link.  An L-lane
  /// channel blocks an incoming worm only when all L lanes are held.
  int lanes = 1;
  /// Link bandwidth b in flits/cycle (a service-time scale: s_f flits drain
  /// in s_f/b cycles).
  double bandwidth = 1.0;
  /// Per-lane flit-buffer depth B (util::kInfiniteBufferDepth = unbounded).
  /// Finite B discounts the Eq. 9/10 blocking credit by B/(B+b) and caps
  /// the effective drain rate at b·B/(B+b).
  int buffer_depth = util::kInfiniteBufferDepth;
  /// Extra per-hop pipeline latency in cycles on top of the one-cycle hop.
  double link_latency = 0.0;
  /// C_a², the squared coefficient of variation of the channel's arrival
  /// stream, entering the wait through the Allen–Cunneen G/G/m correction.
  double ca2 = 1.0;
};

/// Stateless-per-evaluation solver for one channel class; holds the worm
/// length and ablation switches shared by every channel of one solve.
class ChannelSolver {
 public:
  explicit ChannelSolver(double worm_flits, AblationOptions ablation = {});

  /// s_f, the worm length in flits (== the deterministic part of service).
  double worm_flits() const { return worm_flits_; }
  /// The switches in force.
  const AblationOptions& ablation() const { return ablation_; }

  /// Service time of a terminal (ejection) channel: exactly s_f (Eq. 16).
  double terminal_service() const { return worm_flits_; }

  /// Squared coefficient of variation of channel service time, Eq. 5.
  double cb2(double xbar) const;

  /// Mean wait W̄ of the bundle serving channel `ch`, whose PER-LINK
  /// message rate is `lambda_link` and whose per-message service time is
  /// `xbar`.  The lane-acquisition queue of an m-link bundle with L lanes
  /// per link is M/G/(m·L) (the wait diverges at lane occupancy λ·x̄ = m·L):
  ///   multi_server on,  erratum on  → M/G/(m·L) at the total rate m·λ
  ///                                   (Eq. 6/8/21/23 at L = 1);
  ///   multi_server on,  erratum off → M/G/(m·L) at the per-link rate
  ///                                   (as typeset);
  ///   multi_server off              → each link an independent M/G/L at
  ///                                   its own rate (M/G/1, Eq. 6, at L = 1).
  /// A slow or credit-limited link (drain_floor > 0) queues as single-lane:
  /// extra lanes neither add capacity nor shorten the head-of-line wait
  /// there — equal-length worms time-sharing a bandwidth-limited link
  /// finish no sooner on average than in FIFO order — so its sharing
  /// stretch lives in lane_share_factor instead.  Finally the Allen–Cunneen
  /// correction W_{G/G/m} ≈ W_{M/G/m}·(C_a² + C_b²)/(1 + C_b²) applies the
  /// channel's arrival SCV; C_a² = 1 returns the Poisson wait bit for bit.
  double bundle_wait(const ChannelAttributes& ch, double lambda_link,
                     double xbar) const;

  /// Utilization ρ of the bundle serving `ch`: the fraction of its m·L lane
  /// latches held, λ·m·x̄ / (m·L), always at the true total rate m·λ (the
  /// ablations change the wait formula, not the physics of utilization).
  /// An L-lane link legitimately holds several stretched worms at once; a
  /// slow link counts as single-lane, as in bundle_wait.
  double bundle_utilization(const ChannelAttributes& ch, double lambda_link,
                            double xbar) const;

  /// Blocking-probability correction P(i|j) of Eq. 9/10 in per-link form,
  /// for a worm entering the TARGET channel `to`:
  ///     P = (1 − (λ_in / λ_out) · R(i|j) · θ) / L,   clamped into [0, 1]
  /// before the lane division.  With per-link rates the m of Eq. 10
  /// cancels; when the multi-server treatment is ablated the worm commits
  /// to one specific link out of m uniformly, so R divides by m.  The
  /// correction is 1 (before /L) when ablated or when the target carries no
  /// load.  Two extension discounts, each exactly inert at its default:
  ///  * lanes — a worm waits only when every one of the target's L lanes is
  ///    held, modeled as the single-lane probability divided by L (the
  ///    lanes are statistically identical, so each additional lane is an
  ///    independent escape from the head-of-line wait).  The TRUE lane
  ///    count applies even on slow links: head-of-line relief is about lane
  ///    availability, not link capacity;
  ///  * buffers — the target's finite per-lane depth B keeps only B flits
  ///    of an arriving worm moving before credit backpressure couples it to
  ///    the downstream drain, so the "the worm ahead is my own traffic"
  ///    credit R(i|j) is discounted by θ = B/(B + b) — exactly the
  ///    effective-bandwidth ratio b_eff/b (θ ≡ 1 at B = ∞).
  double blocking_factor(const ChannelAttributes& to, double lambda_in_link,
                         double lambda_out_link, double route_prob) const;

  /// Multiplexing stretch of an L-lane channel: lanes share the link's one
  /// flit/cycle, so a worm's s_f flits cross it in V·s_f cycles with
  ///     V = 1 / (1 − U·(1 − 1/L)),   U = λ_link·s_f
  /// (round-robin sharing against the other lanes' bandwidth demand;
  /// V ≤ L, the physical L-way interleave bound).  Returns the EXCESS
  /// holding time (V − 1)·s_f to add to the channel's composed service
  /// time; 0 when L == 1; +inf when U ≥ 1 (the link's physical bandwidth is
  /// exceeded — infeasible regardless of lanes).
  double lane_excess(int lanes, double lambda_link) const;

  /// Deterministic drain FLOOR of a heterogeneous channel: a worm holds the
  /// channel at least s_f / b_eff cycles, where
  ///     b_eff = b·B / (B + b)
  /// is the effective drain rate (B native-rate flits, then one
  /// credit-stall cycle: B flits per B/b + 1 cycles; b_eff = b at B = ∞).
  /// A wormhole worm advances rigidly, so crossing several slow links it
  /// pipelines through all of them at the BOTTLENECK rate: the stretch of a
  /// path is max over its channels, not the sum (an additive per-hop
  /// stretch overcounts every slow hop after the first — badly, for a
  /// tapered tree whose up and down tiers are both slow).  Composition is
  /// therefore x̄_i = max(downstream composition, drain_floor(i)): the
  /// downstream term already carries the slower-than-me bottlenecks, and
  /// the floor re-asserts channel i's own drain when i IS the bottleneck.
  /// Returns 0 (max-identity, bit-inert) at b = 1, B = ∞.
  double drain_floor(const ChannelAttributes& ch) const;

  /// Heterogeneous lane-sharing factor V ≥ 1 of a slow channel: L lanes
  /// round-robin the link's b_eff, so a worm's drain slows by
  ///     V = 1 / (1 − share),   share = u·(1 − 1/L),   u = λ·s_f / b_eff.
  /// Unlike the fast-link lane_excess, this stretch scales the BOTTLENECK
  /// drain itself, so callers multiply it into drain_floor (and it then
  /// max-composes along the path like the plain floor) instead of adding
  /// it per hop — time-sharing a slow link between equal-length worms
  /// roughly doubles both their drain times, which is why lanes do not
  /// help latency on a tapered tier the way they do on unit links.
  /// Returns +inf when u ≥ 1 (the slow link's physical capacity is
  /// exceeded — this is how the model saturates on a tapered tier, even at
  /// L = 1), and exactly 1 at L = 1 below capacity.
  double lane_share_factor(const ChannelAttributes& ch, double lambda_link) const;

  /// The guarded product p·W̄ used when composing service times (Eq. 11/18/
  /// 20/22): p == 0 means the correction proves this input never waits
  /// there, which must hold even when W̄ has diverged past saturation
  /// (0 · ∞ would otherwise poison the whole chain with NaN).  The guard
  /// extends to p ≤ 1e-12: the exact-zero case λ_in·R == λ_out lands an
  /// ulp either side of 0 depending on flow summation order, and past
  /// saturation that ulp times an infinite W̄ would make physically
  /// identical channels (orbit mates of a symmetric topology) disagree
  /// between finite and infinite service — breaking the collapsed-vs-dense
  /// parity contract.  Below the threshold the product is ≤ 1e-12 · W̄
  /// anyway, far under the solver tolerance whenever W̄ is finite.
  static double wait_term(double blocking, double wait);

 private:
  double worm_flits_;
  AblationOptions ablation_;
};

namespace detail {

/// True for the paper's unit-bandwidth, unbounded-buffer link — the one
/// whose drain never floors a worm's holding time.
inline bool unit_link(const ChannelAttributes& ch) {
  return ch.bandwidth == 1.0 && ch.buffer_depth == util::kInfiniteBufferDepth;
}

/// Lane multiplicity as the queue sees it: a slow or credit-limited link
/// queues as single-lane (see ChannelSolver::bundle_wait).
inline int queue_lanes(const ChannelAttributes& ch) {
  WORMNET_EXPECTS(ch.servers >= 1);
  WORMNET_EXPECTS(ch.lanes >= 1);
  return unit_link(ch) ? ch.lanes : 1;
}

/// b_eff = b·B/(B + b): after B flits at the native rate, credit return
/// costs one stall cycle.  Exactly b at B = ∞ (no arithmetic applied).
inline double effective_bandwidth(const ChannelAttributes& ch) {
  WORMNET_EXPECTS(ch.bandwidth > 0.0);
  WORMNET_EXPECTS(ch.buffer_depth >= 1);
  if (ch.buffer_depth == util::kInfiniteBufferDepth) return ch.bandwidth;
  const double depth = static_cast<double>(ch.buffer_depth);
  return ch.bandwidth * depth / (depth + ch.bandwidth);
}

}  // namespace detail

inline double ChannelSolver::cb2(double xbar) const {
  return wormhole_cb2(xbar, worm_flits_);
}

inline double ChannelSolver::bundle_wait(const ChannelAttributes& ch,
                                         double lambda_link, double xbar) const {
  const int lanes = detail::queue_lanes(ch);
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

inline double ChannelSolver::bundle_utilization(const ChannelAttributes& ch,
                                                double lambda_link,
                                                double xbar) const {
  return utilization(lambda_link * ch.servers, xbar,
                     ch.servers * detail::queue_lanes(ch));
}

inline double ChannelSolver::lane_excess(int lanes, double lambda_link) const {
  WORMNET_EXPECTS(lanes >= 1);
  WORMNET_EXPECTS(lambda_link >= 0.0);
  if (lanes == 1) return 0.0;
  const double u = lambda_link * worm_flits_;
  if (u >= 1.0) return std::numeric_limits<double>::infinity();
  const double share = u * (1.0 - 1.0 / static_cast<double>(lanes));
  return (1.0 / (1.0 - share) - 1.0) * worm_flits_;
}

inline double ChannelSolver::lane_share_factor(const ChannelAttributes& ch,
                                               double lambda_link) const {
  WORMNET_EXPECTS(ch.lanes >= 1);
  WORMNET_EXPECTS(lambda_link >= 0.0);
  // Occupancy against the EFFECTIVE capacity: a tapered or credit-limited
  // link saturates at λ·s_f = b_eff regardless of lane count — this guard,
  // not the wait divergence, is what moves the model's saturation point.
  const double u = lambda_link * worm_flits_ / detail::effective_bandwidth(ch);
  if (u >= 1.0) return std::numeric_limits<double>::infinity();
  if (ch.lanes == 1) return 1.0;
  const double share = u * (1.0 - 1.0 / static_cast<double>(ch.lanes));
  return 1.0 / (1.0 - share);
}

inline double ChannelSolver::wait_term(double blocking, double wait) {
  // p ≤ 1e-12 is summation-order noise around the exact-zero blocking case
  // (λ_in·R == λ_out) — see above: past saturation it must read as "never
  // waits here", not as an infinite wait term.
  return blocking > 1e-12 ? blocking * wait : 0.0;
}

}  // namespace wormnet::queueing
