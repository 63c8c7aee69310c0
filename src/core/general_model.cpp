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

using queueing::ChannelSolver;

namespace {

/// One digest word per value: the IEEE bits of a double, an id as is.
std::uint64_t digest_word(double v) { return util::double_bits(v); }
std::uint64_t digest_word(int v) { return static_cast<std::uint64_t>(v); }

}  // namespace

/// The wiring half of a SolvePlan: everything the plan reads that no lane,
/// buffer, bandwidth, load or arrival tune can change.  Built once, then
/// shared read-only (plans of tuned variants hold the same instance).
class SolveStructure {
 public:
  /// Validates `net.graph` (the only full validate() of a plan) and copies
  /// its transitions and evaluate() inputs.
  explicit SolveStructure(const GeneralModel& net)
      : injection_classes(net.injection_classes),
        injection_weights(net.injection_class_weights),
        mean_distance(net.mean_distance),
        unroutable_fraction(net.unroutable_fraction) {
    const ChannelGraph& graph = net.graph;
    WORMNET_EXPECTS(graph.validate().empty());
    size = graph.size();
    const auto rows = static_cast<std::size_t>(size);
    offsets.resize(rows + 1);
    terminal.resize(rows);
    self_frac.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const ChannelClass& c = graph.at(static_cast<int>(i));
      terminal[i] = c.terminal ? 1 : 0;
      self_frac[i] = c.self_frac;
      offsets[i + 1] = offsets[i] +
                       static_cast<int>(graph.transitions(static_cast<int>(i)).size());
    }
    const std::span<const Transition> all = graph.transitions();
    transitions.assign(all.begin(), all.end());
    order = graph.reverse_topological_order();
    for (int id : injection_classes) WORMNET_EXPECTS(id >= 0 && id < size);
  }

  /// The wiring's part of the content digest, computed on first use.
  std::uint64_t digest() const {
    std::uint64_t h = digest_.load();
    if (h != 0) return h;
    const auto rows = static_cast<std::size_t>(size);
    h = util::hash_words(0x706c616e77697265ULL, rows, [&](std::size_t i) {
      return (static_cast<std::uint64_t>(offsets[i + 1] - offsets[i]) << 1) | terminal[i];
    });
    const auto column = [&h](const auto& values) {
      h = util::hash_words(h, values.size(),
                           [&](std::size_t k) { return digest_word(values[k]); });
    };
    column(self_frac);
    const auto transition_column = [&](auto word_of) {
      h = util::hash_words(h, transitions.size(), [&](std::size_t k) {
        return digest_word(word_of(transitions[k]));
      });
    };
    transition_column([](const Transition& t) { return t.target; });
    transition_column([](const Transition& t) { return t.weight; });
    transition_column([](const Transition& t) { return t.route_prob; });
    column(injection_classes);
    column(injection_weights);
    h = util::hash_mix_double(h, mean_distance);
    h = util::hash_mix_double(h, unroutable_fraction);
    digest_.store(h);
    return h;
  }

  std::vector<int> injection_classes;
  std::vector<double> injection_weights;
  double mean_distance = 0.0;
  double unroutable_fraction = 0.0;
  int size = 0;
  /// Reverse-topological order; empty when the graph is cyclic.
  std::vector<int> order;
  /// ChannelGraph::transitions(): class i's run is k in
  /// [offsets[i], offsets[i+1]).
  std::vector<int> offsets;
  std::vector<Transition> transitions;
  std::vector<unsigned char> terminal;
  /// ChannelClass::self_frac (for the digest; tunes derive ca2 from it).
  std::vector<double> self_frac;

 private:
  mutable std::atomic<std::uint64_t> digest_{0};  ///< 0: not yet computed
};

namespace {

/// Fixed-point convergence threshold and damping factor in (0, 1] for
/// cyclic graphs.
constexpr double kTolerance = 1e-12;
constexpr double kDamping = 0.5;

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

SolvePlan::SolvePlan(const GeneralModel& net, const SolveOptions& opts)
    : SolvePlan(net, opts, nullptr) {}

SolvePlan::SolvePlan(const GeneralModel& net) : SolvePlan(net, net.opts) {}

SolvePlan::SolvePlan(const GeneralModel& net,
                     std::shared_ptr<const SolveStructure> structure)
    : SolvePlan(net, net.opts, std::move(structure)) {}

SolvePlan::SolvePlan(const GeneralModel& net, const SolveOptions& opts,
                     std::shared_ptr<const SolveStructure> structure)
    : structure_(structure ? std::move(structure)
                           : std::make_shared<const SolveStructure>(net)),
      solver_(opts.worm_flits, opts.ablation),
      max_iterations_(opts.max_iterations),
      batch_residual_(net.injection_batch_residual),
      identity_(identity_digest(net.name(), opts.worm_flits, opts.ablation,
                                net.injection_ca2,
                                net.injection_batch_residual)) {
  const SolveStructure& s = *structure_;
  WORMNET_EXPECTS(s.size == net.graph.size());
  classes_.resize(static_cast<std::size_t>(s.size));
  for (int id = 0; id < s.size; ++id) {
    const ChannelClass& c = net.graph.at(id);
    // The attribute half of ChannelGraph::validate, re-checked for plans on
    // a shared structure (whose validate() ran on another model).
    WORMNET_EXPECTS(c.bandwidth > 0.0);
    WORMNET_EXPECTS(c.link_latency >= 0.0);
    WORMNET_EXPECTS(c.buffer_depth >= 1);
    ClassInputs& in = classes_[static_cast<std::size_t>(id)];
    static_cast<queueing::ChannelAttributes&>(in) = c;
    in.rate = c.rate_per_link;
    in.floor = solver_.drain_floor(in);
  }
  // Eq. 9/10 at unit injection: the λ_in/λ_out ratio is scale-invariant,
  // so each transition's factor holds at every λ₀.
  factor_.resize(s.transitions.size());
  for (int id = 0; id < s.size; ++id) {
    const auto row = static_cast<std::size_t>(id);
    if (s.terminal[row]) continue;
    ClassInputs& from = classes_[row];
    double pblock = 0.0;
    for (int k = s.offsets[row]; k < s.offsets[row + 1]; ++k) {
      const auto e = static_cast<std::size_t>(k);
      const Transition& t = s.transitions[e];
      const ClassInputs& to = classes_[static_cast<std::size_t>(t.target)];
      factor_[e] = solver_.blocking_factor(to, from.rate, to.rate, t.route_prob);
      pblock += t.weight * factor_[e];
    }
    from.blocking = pblock;
  }
}

std::uint64_t SolvePlan::digest() const {
  std::uint64_t h = digest_.load();
  if (h != 0) return h;
  h = util::hash_mix(identity_, structure_->digest());
  h = util::hash_mix(h, static_cast<std::uint64_t>(max_iterations_));
  // One column per attribute.
  const std::size_t n = classes_.size();
  const auto column = [&](auto word_of) {
    h = util::hash_words(h, n, [&](std::size_t i) { return word_of(classes_[i]); });
  };
  column([](const ClassInputs& c) {
    return (static_cast<std::uint64_t>(c.servers) << 32) |
           static_cast<std::uint64_t>(c.lanes);
  });
  column([](const ClassInputs& c) { return util::double_bits(c.rate); });
  column([](const ClassInputs& c) { return util::double_bits(c.ca2); });
  column([](const ClassInputs& c) { return util::double_bits(c.bandwidth); });
  column([](const ClassInputs& c) { return util::double_bits(c.link_latency); });
  column([](const ClassInputs& c) {
    return static_cast<std::uint64_t>(c.buffer_depth);
  });
  digest_.store(h);
  return h;
}

SolvePlan::Sweep SolvePlan::sweep(double lambda0) const {
  WORMNET_SPAN("solve_general_model", "solve");
  WORMNET_EXPECTS(lambda0 >= 0.0);
  const SolveStructure& s = *structure_;
  const int n = s.size;
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  // The calling thread's rows keep their capacity from sweep to sweep, so
  // a thread that has swept a model this large allocates nothing here.
  // Every caller reads them before its thread sweeps again.
  thread_local std::vector<SweepRow> rows;
  rows.assign(at(n), {solver_.worm_flits(), 0.0});
  Sweep out{{}, true, 1, 0.0};

  // Eq. 11 for class i given the current service times, plus the
  // heterogeneous-link terms of channel i itself: the lane-multiplexing
  // stretch and pipeline latency add to the composed time, while the
  // slow/credit-limited drain enters as a FLOOR — a rigid worm pipelines
  // through consecutive slow links at the bottleneck rate, so the drain
  // stretch of a path is the max over its channels, never the sum (see
  // ChannelSolver::drain_floor).  All terms vanish in the paper's uniform
  // single-lane network — the exact recurrence.
  const auto compose = [&](int i) {
    const ClassInputs& c = classes_[at(i)];
    double excess = c.link_latency;  // 0 on the paper's hop
    double xi;
    if (s.terminal[at(i)]) {
      xi = solver_.terminal_service();
    } else {
      xi = 0.0;
      for (int k = s.offsets[at(i)]; k < s.offsets[at(i) + 1]; ++k) {
        const Transition& t = s.transitions[at(k)];
        const SweepRow& next = rows[at(t.target)];
        xi += t.weight *
              (next.service_time + ChannelSolver::wait_term(factor_[at(k)], next.wait));
      }
    }
    if (c.floor > 0.0) {
      // Non-default link: lane sharing stretches the bottleneck drain
      // itself, and the stretched floor max-composes like the plain one.
      // The u ≥ 1 guard inside the factor (+inf) is what saturates a
      // tapered tier.
      const double shared = c.floor * solver_.lane_share_factor(c, c.rate * lambda0);
      if (shared > xi) xi = shared;  // channel i itself is the path bottleneck
    } else {
      excess += solver_.lane_excess(c.lanes, c.rate * lambda0);
    }
    return xi + excess;
  };
  // W̄ of class id's bundle at its current x̄ and the sweep's λ₀.
  const auto wait_at = [&](int id) {
    const ClassInputs& c = classes_[at(id)];
    return solver_.bundle_wait(c, c.rate * lambda0, rows[at(id)].service_time);
  };

  if (!s.order.empty()) {
    // Acyclic: one exact backward sweep, terminals first (the paper's §2.1
    // "service times are resolved in the reverse order of the channels
    // traversed").  Successors are already final; compose this class's x̄
    // from them, then evaluate the wait of its bundle at that final x̄.
    for (int id : s.order) {
      rows[at(id)].service_time = compose(id);
      rows[at(id)].wait = wait_at(id);
    }
  } else {
    // Cyclic dependency graph: damped fixed-point iteration.
    out.converged = false;
    out.iterations = 0;
    for (int it = 0; it < max_iterations_; ++it) {
      double max_delta = 0.0;
      for (int id = 0; id < n; ++id) rows[at(id)].wait = wait_at(id);
      for (int id = 0; id < n; ++id) {
        const double next = compose(id);
        const double cur = rows[at(id)].service_time;
        double blended = cur + kDamping * (next - cur);
        if (std::isinf(next)) blended = next;  // saturation dominates damping
        max_delta = std::max(max_delta, std::abs(blended - cur));
        rows[at(id)].service_time = blended;
      }
      out.iterations = it + 1;
      out.residual = max_delta;
      if (max_delta < kTolerance || std::isinf(max_delta) || std::isnan(max_delta)) {
        out.converged = max_delta < kTolerance;
        break;
      }
    }
    for (int id = 0; id < n; ++id) rows[at(id)].wait = wait_at(id);
  }
  out.rows = rows;
  return out;
}

LatencyEstimate SolvePlan::estimate_latency(const Sweep& swept, bool stable) const {
  // Each injection class weighs as the processors it stands for
  // (injection_weights, not necessarily normalized; empty means uniform),
  // so a collapsed model's average equals the dense per-processor one.
  const SolveStructure& s = *structure_;
  const std::vector<double>& weights = s.injection_weights;
  WORMNET_EXPECTS(!s.injection_classes.empty());
  WORMNET_EXPECTS(weights.empty() || weights.size() == s.injection_classes.size());
  LatencyEstimate est;
  est.mean_distance = s.mean_distance;
  est.stable = stable;
  double wait_sum = 0.0;
  double service_sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < s.injection_classes.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const SweepRow& row = swept.rows[static_cast<std::size_t>(s.injection_classes[i])];
    wait_sum += w * row.wait;
    service_sum += w * row.service_time;
    weight_sum += w;
  }
  WORMNET_EXPECTS(weight_sum > 0.0);
  est.inj_wait = wait_sum / weight_sum;
  est.inj_service = service_sum / weight_sum;
  est.latency = est.inj_wait + est.inj_service + s.mean_distance - 1.0;
  if (!std::isfinite(est.latency)) est.stable = false;
  // Structured status: a fixed point that failed to converge dominates
  // saturation; apply_unroutable layers Disconnected on top.
  if (!swept.converged)
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

SolveResult SolvePlan::solve(double lambda0) const {
  const Sweep swept = sweep(lambda0);
  const int n = structure_->size;
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  SolveResult result;
  result.converged = swept.converged;
  result.iterations = swept.iterations;
  result.telemetry.max_residual = swept.residual;
  std::vector<ChannelSolution>& ch = result.channels;
  ch.resize(at(n));
  for (int id = 0; id < n; ++id) {
    const ClassInputs& c = classes_[at(id)];
    ChannelSolution& sol = ch[at(id)];
    sol.service_time = swept.rows[at(id)].service_time;
    sol.wait = swept.rows[at(id)].wait;
    sol.utilization = solver_.bundle_utilization(c, c.rate * lambda0, sol.service_time);
    sol.cb2 = solver_.cb2(sol.service_time);
    sol.ca2 = c.ca2;
    sol.blocking = c.blocking;
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
      const ChannelSolution& sol = ch[at(id)];
      if (std::isfinite(sol.service_time) && std::isfinite(sol.utilization) &&
          sol.utilization >= 1.0 && sol.utilization >= worst) {
        worst = sol.utilization;
        tel.first_saturated_class = id;
        tel.saturation_cause = "occupancy";
      }
    }
    if (tel.first_saturated_class < 0) {
      for (int id = 0; id < n; ++id) {
        const ChannelSolution& sol = ch[at(id)];
        if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait)) {
          tel.first_saturated_class = id;
          tel.saturation_cause =
              classes_[at(id)].floor > 0.0 ? "drain-capacity" : "divergent-wait";
          break;
        }
      }
    }
  }
  return result;
}

LatencyEstimate SolvePlan::evaluate(double lambda0) const {
  const Sweep swept = sweep(lambda0);
  // solve()'s stability verdict on the same rows: every x̄ and W̄ finite
  // and every bundle below saturation.
  bool stable = true;
  for (std::size_t id = 0; id < classes_.size() && stable; ++id) {
    const ClassInputs& c = classes_[id];
    const SweepRow& row = swept.rows[id];
    stable = std::isfinite(row.service_time) && std::isfinite(row.wait) &&
             !(solver_.bundle_utilization(c, c.rate * lambda0, row.service_time) >= 1.0);
  }
  return apply_unroutable(
      apply_batch_residual(estimate_latency(swept, stable), batch_residual_),
      structure_->unroutable_fraction);
}

double SolvePlan::saturation_rate() const {
  // A probe needs only evaluate's x̄_inj, which no stability verdict,
  // batch residual or unroutable fraction changes.
  return find_saturation_rate(
      [this](double lambda0) {
        return estimate_latency(sweep(lambda0), true).inj_service;
      },
      1.0 / worm_flits());
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

void GeneralModel::scale_bandwidths(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("model: bandwidth scale must be > 0");
  std::vector<double> bw(static_cast<std::size_t>(graph.size()));
  for (int id = 0; id < graph.size(); ++id)
    bw[static_cast<std::size_t>(id)] = graph.at(id).bandwidth * factor;
  set_channel_bandwidths(bw);
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

std::uint64_t GeneralModel::content_digest() const {
  // ChannelClass::label and channel_class_of are reporting metadata only, so
  // the plan's digest deliberately leaves both out.
  return SolvePlan(*this).digest();
}

SolveResult GeneralModel::solve(double lambda0) const {
  return SolvePlan(*this).solve(lambda0);
}

LatencyEstimate GeneralModel::evaluate(double lambda0) const {
  return SolvePlan(*this).evaluate(lambda0);
}

double GeneralModel::saturation_rate() const {
  return SolvePlan(*this).saturation_rate();
}

LatencyEstimate model_latency(const GeneralModel& net, double lambda0,
                              SolveOptions base) {
  return SolvePlan(net, base).evaluate(lambda0);
}

double model_saturation_rate(const GeneralModel& net, SolveOptions base) {
  return SolvePlan(net, base).saturation_rate();
}

}  // namespace wormnet::core
