#include "core/general_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/saturation.hpp"
#include "obs/trace.hpp"
#include "queueing/channel_solver.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"

namespace wormnet::core {

namespace {

using queueing::ChannelSolver;

/// Fixed-point convergence threshold and damping factor in (0, 1] for
/// cyclic graphs.
constexpr double kTolerance = 1e-12;
constexpr double kDamping = 0.5;

/// One evaluation of Eq. 11 for class `i` given current service times, plus
/// the heterogeneous-link terms of channel i itself: the lane-multiplexing
/// stretch and pipeline latency add to the composed time, while the
/// slow/credit-limited drain enters as a FLOOR — a rigid worm pipelines
/// through consecutive slow links at the bottleneck rate, so the drain
/// stretch of a path is the max over its channels, never the sum (see
/// ChannelSolver::drain_floor).  All terms vanish in the paper's uniform
/// single-lane network — the exact recurrence.  Blocking factors take rates
/// at unit injection scale: the λ_in/λ_out ratio is scale-invariant.
double compose_service_time(const ChannelSolver& solver, const ChannelGraph& graph,
                            int i, const std::vector<double>& x,
                            const std::vector<double>& waits,
                            double lambda0) {
  const ChannelClass& cls = graph.at(i);
  double excess = cls.link_latency;  // 0 on the paper's hop
  double xi;
  if (cls.terminal) {
    xi = solver.terminal_service();
  } else {
    xi = 0.0;
    for (const Transition& t : cls.next) {
      const ChannelClass& target = graph.at(t.target);
      const double p = solver.blocking_factor(target, cls.rate_per_link,
                                              target.rate_per_link, t.route_prob);
      const double wait_term =
          ChannelSolver::wait_term(p, waits[static_cast<std::size_t>(t.target)]);
      xi += t.weight * (x[static_cast<std::size_t>(t.target)] + wait_term);
    }
  }
  const double floor = solver.drain_floor(cls);
  if (floor > 0.0) {
    // Non-default link: lane sharing stretches the bottleneck drain itself,
    // and the stretched floor max-composes like the plain one.  The u ≥ 1
    // guard inside the factor (+inf) is what saturates a tapered tier.
    const double shared =
        floor * solver.lane_share_factor(cls, cls.rate_per_link * lambda0);
    if (shared > xi) xi = shared;  // channel i itself is the path bottleneck
  } else {
    excess += solver.lane_excess(cls.lanes, cls.rate_per_link * lambda0);
  }
  return xi + excess;
}

}  // namespace

SolveResult solve_general_model(const ChannelGraph& graph, const SolveOptions& opts,
                                double lambda0) {
  WORMNET_SPAN("solve_general_model", "solve");
  WORMNET_EXPECTS(opts.worm_flits > 0.0);
  WORMNET_EXPECTS(lambda0 >= 0.0);
  WORMNET_EXPECTS(graph.validate().empty());

  const ChannelSolver solver(opts.worm_flits, opts.ablation);

  const int n = graph.size();
  SolveResult result;
  result.channels.assign(static_cast<std::size_t>(n), {});
  std::vector<double> x(static_cast<std::size_t>(n), opts.worm_flits);
  std::vector<double> waits(static_cast<std::size_t>(n), 0.0);
  // W̄ of class id's bundle at its current x̄ and the solve's λ₀.
  const auto wait_at = [&](int id) {
    const ChannelClass& cls = graph.at(id);
    return solver.bundle_wait(cls, cls.rate_per_link * lambda0,
                              x[static_cast<std::size_t>(id)]);
  };

  const std::vector<int> order = graph.reverse_topological_order();
  if (!order.empty()) {
    // Acyclic: one exact backward sweep, terminals first (the paper's §2.1
    // "service times are resolved in the reverse order of the channels
    // traversed").
    for (int id : order) {
      // Successors are already final; compose this class's x̄ from them,
      // then evaluate the wait of this class's bundle at that final x̄.
      x[static_cast<std::size_t>(id)] =
          compose_service_time(solver, graph, id, x, waits, lambda0);
      waits[static_cast<std::size_t>(id)] = wait_at(id);
    }
    result.iterations = 1;
    result.converged = true;
  } else {
    // Cyclic dependency graph: damped fixed-point iteration.
    result.converged = false;
    double last_delta = 0.0;
    for (int it = 0; it < opts.max_iterations; ++it) {
      double max_delta = 0.0;
      for (int id = 0; id < n; ++id) {
        waits[static_cast<std::size_t>(id)] = wait_at(id);
      }
      for (int id = 0; id < n; ++id) {
        const double next = compose_service_time(solver, graph, id, x, waits, lambda0);
        const double cur = x[static_cast<std::size_t>(id)];
        double blended = cur + kDamping * (next - cur);
        if (std::isinf(next)) blended = next;  // saturation dominates damping
        max_delta = std::max(max_delta, std::abs(blended - cur));
        x[static_cast<std::size_t>(id)] = blended;
      }
      result.iterations = it + 1;
      last_delta = max_delta;
      if (max_delta < kTolerance || std::isinf(max_delta) || std::isnan(max_delta)) {
        result.converged = max_delta < kTolerance;
        break;
      }
    }
    result.telemetry.max_residual = last_delta;
    for (int id = 0; id < n; ++id) {
      waits[static_cast<std::size_t>(id)] = wait_at(id);
    }
  }

  for (int id = 0; id < n; ++id) {
    const ChannelClass& cls = graph.at(id);
    ChannelSolution& sol = result.channels[static_cast<std::size_t>(id)];
    sol.service_time = x[static_cast<std::size_t>(id)];
    sol.wait = waits[static_cast<std::size_t>(id)];
    sol.utilization =
        solver.bundle_utilization(cls, cls.rate_per_link * lambda0, sol.service_time);
    sol.cb2 = solver.cb2(sol.service_time);
    sol.ca2 = cls.ca2;
    // Blocking decomposition (diagnostic): the transition-weighted Eq. 9/10
    // factor — rates are scale-invariant, so this needs no re-solve.
    if (!cls.terminal) {
      double pblock = 0.0;
      for (const Transition& t : cls.next) {
        const ChannelClass& target = graph.at(t.target);
        pblock += t.weight * solver.blocking_factor(target, cls.rate_per_link,
                                                    target.rate_per_link, t.route_prob);
      }
      sol.blocking = pblock;
    }
    if (std::isfinite(sol.utilization) &&
        (result.telemetry.max_utilization_class < 0 ||
         sol.utilization > result.telemetry.max_utilization)) {
      result.telemetry.max_utilization = sol.utilization;
      result.telemetry.max_utilization_class = id;
    }
    if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait) ||
        sol.utilization >= 1.0) {
      result.stable = false;
    }
  }
  if (!result.stable) {
    // Root-cause the saturation.  The originating class is the one whose own
    // bundle is at/over capacity while its composed service time is still
    // finite — upstream classes merely inherit its infinite wait (their
    // service times diverge, their utilizations follow).  Prefer the most
    // loaded such class; when none exists the waits diverged without a
    // finite root (a slow-link drain floor or composition blow-up).
    SolveTelemetry& tel = result.telemetry;
    double worst = 0.0;
    for (int id = 0; id < n; ++id) {
      const ChannelSolution& sol = result.channels[static_cast<std::size_t>(id)];
      if (std::isfinite(sol.service_time) && std::isfinite(sol.utilization) &&
          sol.utilization >= 1.0 && sol.utilization >= worst) {
        worst = sol.utilization;
        tel.first_saturated_class = id;
        tel.saturation_cause = "occupancy";
      }
    }
    if (tel.first_saturated_class < 0) {
      for (int id = 0; id < n; ++id) {
        const ChannelSolution& sol =
            result.channels[static_cast<std::size_t>(id)];
        if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait)) {
          tel.first_saturated_class = id;
          const ChannelClass& cls = graph.at(id);
          tel.saturation_cause =
              solver.drain_floor(cls) > 0.0 ? "drain-capacity" : "divergent-wait";
          break;
        }
      }
    }
  }
  return result;
}

LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 double mean_distance) {
  return estimate_latency(solution, injection_classes, {}, mean_distance);
}

LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 const std::vector<double>& weights,
                                 double mean_distance) {
  WORMNET_EXPECTS(!injection_classes.empty());
  WORMNET_EXPECTS(weights.empty() || weights.size() == injection_classes.size());
  LatencyEstimate est;
  est.mean_distance = mean_distance;
  est.stable = solution.stable;
  double wait_sum = 0.0;
  double service_sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < injection_classes.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const int id = injection_classes[i];
    wait_sum += w * solution.wait(id);
    service_sum += w * solution.service_time(id);
    weight_sum += w;
  }
  WORMNET_EXPECTS(weight_sum > 0.0);
  est.inj_wait = wait_sum / weight_sum;
  est.inj_service = service_sum / weight_sum;
  est.latency = est.inj_wait + est.inj_service + mean_distance - 1.0;
  if (!std::isfinite(est.latency)) est.stable = false;
  // Structured status: a fixed point that failed to converge dominates
  // saturation; Disconnected is layered on by callers that know their
  // model's unroutable fraction (estimate_latency itself cannot).
  if (!solution.converged)
    est.status = SolveStatus::Infeasible;
  else if (!est.stable)
    est.status = SolveStatus::Saturated;
  // NaN never escapes the solver surface: divergence reads as +infinity.
  const double inf = std::numeric_limits<double>::infinity();
  if (std::isnan(est.inj_wait)) est.inj_wait = inf;
  if (std::isnan(est.inj_service)) est.inj_service = inf;
  if (std::isnan(est.latency)) est.latency = inf;
  return est;
}

int GeneralModel::class_id(const std::string& label) const {
  int id = 0;
  while (id < graph.size() && graph.at(id).label != label) ++id;
  WORMNET_EXPECTS(id < graph.size());
  return id;
}

void GeneralModel::set_injection_ca2(double ca2) {
  WORMNET_EXPECTS(ca2 >= 0.0);
  injection_ca2 = ca2;
  // An SCV-only tune describes a batchless process: a residual left over
  // from an earlier set_injection_process(batch) must not keep inflating
  // evaluate() after the caller retunes to (say) plain Poisson.
  injection_batch_residual = 0.0;
  for (int id = 0; id < graph.size(); ++id) {
    ChannelClass& c = graph.mutable_at(id);
    // The QNA affine form: a channel retaining fraction self_frac of its
    // sources' original processes interpolates between full
    // Poissonification (1) and the injection SCV itself.
    c.ca2 = 1.0 + (ca2 - 1.0) * c.self_frac;
  }
}

void GeneralModel::set_uniform_lanes(int lanes) {
  WORMNET_EXPECTS(lanes >= 1);
  for (int id = 0; id < graph.size(); ++id) graph.mutable_at(id).lanes = lanes;
}

void GeneralModel::scale_injection_rates(double factor) {
  WORMNET_EXPECTS(factor > 0.0 && std::isfinite(factor));
  for (int id = 0; id < graph.size(); ++id) {
    graph.mutable_at(id).rate_per_link *= factor;
  }
}

void GeneralModel::set_uniform_buffers(int flits) {
  if (flits < 1)
    throw std::invalid_argument("model: buffer depth must be >= 1 flit");
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).buffer_depth = flits;
}

void GeneralModel::set_uniform_bandwidth(double bw) {
  if (!(bw > 0.0) || !std::isfinite(bw))
    throw std::invalid_argument("model: bandwidth must be > 0 flits/cycle");
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).bandwidth = bw;
}

void GeneralModel::set_channel_bandwidths(const std::vector<double>& bw) {
  if (static_cast<int>(bw.size()) != graph.size())
    throw std::invalid_argument(
        "model: bandwidth vector size must equal the channel-class count");
  for (double b : bw) {
    if (!(b > 0.0) || !std::isfinite(b))
      throw std::invalid_argument("model: bandwidth must be > 0 flits/cycle");
  }
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).bandwidth = bw[static_cast<std::size_t>(id)];
}

void GeneralModel::set_injection_process(const arrivals::ArrivalSpec& spec,
                                         double lambda0) {
  WORMNET_EXPECTS(spec.check().empty());
  // Bernoulli is the one catalog entry whose SCV depends on λ₀ (1 − λ₀);
  // tuning it at the rate-invariant default would silently collapse to the
  // Poisson ca2(0) fallback — demand the operating rate instead.
  WORMNET_EXPECTS(spec.kind() != arrivals::Kind::Bernoulli || lambda0 > 0.0);
  // The model consumes the effective (asymptotic) variability parameter,
  // which folds MMPP autocorrelation in; for renewal processes it is the
  // plain interval SCV.
  set_injection_ca2(spec.effective_ca2(lambda0));
  injection_batch_residual = spec.batch_residual();
}

namespace {

/// Fold the load-independent intra-batch serialization wait into a finished
/// estimate (the exact M^[X]/G/1 decomposition; see
/// GeneralModel::injection_batch_residual); 0 for batchless processes.
LatencyEstimate apply_batch_residual(LatencyEstimate est, double residual) {
  if (residual <= 0.0 || !std::isfinite(est.inj_service)) return est;
  const double extra = residual * est.inj_service;
  est.inj_wait += extra;
  est.latency += extra;
  return est;
}

/// Layer the model's unroutable fraction onto a finished estimate:
/// Disconnected only when nothing worse already applies (the carried demand
/// still solved), per the SolveStatus precedence.
LatencyEstimate apply_unroutable(LatencyEstimate est, double unroutable) {
  est.unroutable_fraction = unroutable;
  if (unroutable > 0.0 && est.status == SolveStatus::Ok)
    est.status = SolveStatus::Disconnected;
  return est;
}

}  // namespace

std::uint64_t GeneralModel::content_digest() const {
  // Base digest covers name, worm length, ablation switches and the arrival
  // tuning; fold in everything else evaluate() reads.  ChannelClass::label
  // and channel_class_of are reporting metadata only, so both are
  // deliberately excluded.
  std::uint64_t h = NetworkModel::content_digest();
  h = util::hash_mix(h, static_cast<std::uint64_t>(graph.size()));
  for (int id = 0; id < graph.size(); ++id) {
    const ChannelClass& c = graph.at(id);
    h = util::hash_mix(h, (static_cast<std::uint64_t>(c.servers) << 32) |
                              (static_cast<std::uint64_t>(c.lanes) << 1) |
                              static_cast<std::uint64_t>(c.terminal));
    h = util::hash_mix_double(h, c.rate_per_link);
    h = util::hash_mix_double(h, c.ca2);
    h = util::hash_mix_double(h, c.self_frac);
    h = util::hash_mix_double(h, c.bandwidth);
    h = util::hash_mix_double(h, c.link_latency);
    h = util::hash_mix(h, static_cast<std::uint64_t>(c.buffer_depth));
    for (const Transition& t : c.next) {
      h = util::hash_mix(h, static_cast<std::uint64_t>(t.target));
      h = util::hash_mix_double(h, t.weight);
      h = util::hash_mix_double(h, t.route_prob);
    }
  }
  for (int id : injection_classes) {
    h = util::hash_mix(h, static_cast<std::uint64_t>(id));
  }
  for (double w : injection_class_weights) h = util::hash_mix_double(h, w);
  h = util::hash_mix_double(h, mean_distance);
  h = util::hash_mix_double(h, unroutable_fraction);
  h = util::hash_mix(h, static_cast<std::uint64_t>(opts.max_iterations));
  return h;
}

SolveResult GeneralModel::solve(double lambda0) const {
  return model_solve(*this, lambda0, opts);
}

LatencyEstimate GeneralModel::evaluate(double lambda0) const {
  return model_latency(*this, lambda0, opts);
}

SolveResult model_solve(const GeneralModel& net, double lambda0, SolveOptions base) {
  return solve_general_model(net.graph, base, lambda0);
}

LatencyEstimate model_latency(const GeneralModel& net, double lambda0,
                              SolveOptions base) {
  const SolveResult res = model_solve(net, lambda0, base);
  return apply_unroutable(
      apply_batch_residual(
          estimate_latency(res, net.injection_classes,
                           net.injection_class_weights, net.mean_distance),
          net.injection_batch_residual),
      net.unroutable_fraction);
}

double model_saturation_rate(const GeneralModel& net, SolveOptions base) {
  return find_saturation_rate(
      [&](double lambda0) {
        return model_latency(net, lambda0, base).inj_service;
      },
      1.0 / base.worm_flits);
}

}  // namespace wormnet::core
