// wormnet/core/general_model.hpp
//
// The paper's general wormhole-routing performance model (§2), solved over a
// ChannelGraph.
//
// For each channel class i the solver computes (Eq. 11):
//
//     x̄_i = Σ_j  weight(i→j) · [ x̄_j + P(i|j) · W̄_j ]
//
// where W̄_j is the M/G/m mean wait of the output bundle serving class j and
// P(i|j) is the wormhole blocking-probability correction of Eq. 9/10 — both
// evaluated by the shared queueing::ChannelSolver kernel, the single home of
// that recurrence.  Terminal (ejection) classes have x̄ = s_f, the worm
// length in flits.
//
// The service times resolve in reverse-topological order — "from the last
// channel backwards to the injecting channel" — in a single exact sweep when
// the dependency graph is acyclic (true for the fat-tree, e-cube hypercube
// and DOR mesh).  For cyclic graphs the solver falls back to damped
// fixed-point iteration.
//
// Solve plans.  Only the waits and the lane terms depend on λ₀.  The
// validation, the reverse-topological order, the transitions, the
// Eq. 9/10 blocking factors P(i|j) (a ratio of per-link rates, so
// scale-invariant in λ₀), the drain floors and the content digest do not.
// A SolvePlan computes that set-up once per model content, and each of its
// three answers runs the one Eq. 11 sweep over it; a saturation search, a
// λ-sweep or a what-if variant's several questions all reuse one plan.
// Only solve(λ₀) builds per-class rows (ChannelSolution: utilization, C_b²,
// blocking, telemetry), for the readers that want that detail.
// evaluate(λ₀) and each probe of saturation_rate() read the sweep's x̄ and
// W̄ from rows the calling thread keeps between calls (16 bytes a class),
// so once a thread has solved a model that large they allocate nothing.
// A plan is always of a GeneralModel; the only other entry points
// (GeneralModel::solve / evaluate / saturation_rate, model_latency and
// model_saturation_rate) are one-shot wrappers that build a plan and ask it
// once.  A plan has two halves:
//  * the STRUCTURE — the wiring: order (or "cyclic"), a copy of the graph's
//    one transition array (targets, weights and route probabilities, class
//    by class) with each class's offset into it, terminal flags, self_frac,
//    injection classes and weights, mean distance and unroutable fraction.
//    Lane, buffer, bandwidth, load and arrival tunes leave it alone, so a
//    tuned copy of a model can share its parent's structure through a
//    shared_ptr;
//  * the ATTRIBUTES — per-class servers, lanes, bandwidth, buffers, latency,
//    C_a² and rates, and what the plan derives from them (blocking factors,
//    drain floors, the diagnostic blocking sums).  Every tune invalidates
//    this half; a traffic or fault retune invalidates both.
// A plan is a snapshot: it copies what it reads, so mutating the model
// afterwards does not change it (build a new one).
//
// The ablation switches (queueing::AblationOptions) reproduce the paper's
// two claimed novelties and the published erratum, so benches can quantify
// each ingredient's contribution.  The extensions (lanes, arrival SCVs,
// link attributes) are per-class inputs on the graph, not switches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/channel_graph.hpp"
#include "core/network_model.hpp"

namespace wormnet::core {

/// Knobs for one solve.
struct SolveOptions {
  double worm_flits = 16.0;        ///< s_f, worm length in flits
  queueing::AblationOptions ablation{};  ///< the paper's three ablation switches
  int max_iterations = 500;        ///< fixed-point cap for cyclic graphs
};

/// Per-class solution values.
struct ChannelSolution {
  double service_time = 0.0;  ///< x̄_i (cycles)
  double wait = 0.0;          ///< W̄ of the bundle serving this class (cycles)
  double utilization = 0.0;   ///< ρ of that bundle
  double cb2 = 0.0;           ///< squared service CV used for the wait
  double ca2 = 1.0;           ///< squared arrival CV the wait was evaluated at
  /// Transition-weighted mean Eq. 9/10 blocking factor over this class's
  /// outgoing transitions (0 for terminals): how much of the downstream
  /// wait a worm leaving this class actually eats.  Diagnostic only —
  /// nothing downstream consumes it.
  double blocking = 0.0;
};

/// Why (and where) a solve landed where it did — the per-solve diagnostics
/// the observability layer publishes.  Purely additive: every pre-existing
/// SolveResult field is computed exactly as before.
struct SolveTelemetry {
  /// Final fixed-point max |Δx̄| (0 on acyclic graphs — the sweep is exact).
  double max_residual = 0.0;
  /// Largest finite bundle utilization and the class it occurred at (-1
  /// when every utilization is non-finite).
  double max_utilization = 0.0;
  int max_utilization_class = -1;
  /// For unstable solves: the class where saturation originates — the
  /// finite-service class whose own bundle is at/over capacity (upstream
  /// classes merely inherit its infinite wait).  -1 when stable.
  int first_saturated_class = -1;
  /// "occupancy" (a bundle hit ρ >= 1), "drain-capacity" (a slow or
  /// credit-limited link's shared drain floor diverged), "divergent-wait"
  /// (no finite root — waits diverged in composition), or "" when stable.
  const char* saturation_cause = "";
};

/// Outcome of a solve.
struct SolveResult {
  bool stable = true;   ///< every bundle below saturation (all waits finite)
  bool converged = true;///< fixed-point converged (always true on DAGs)
  int iterations = 0;   ///< sweeps performed
  SolveTelemetry telemetry;
  std::vector<ChannelSolution> channels;

  /// x̄ of class id.
  double service_time(int id) const { return channels.at(static_cast<std::size_t>(id)).service_time; }
  /// W̄ of class id's bundle.
  double wait(int id) const { return channels.at(static_cast<std::size_t>(id)).wait; }
  /// ρ of class id's bundle.
  double utilization(int id) const { return channels.at(static_cast<std::size_t>(id)).utilization; }
};

/// The general model packaged for one concrete network: the channel graph
/// (with unit-injection rates), the injection channel classes, the mean
/// path length, and the solve options.  build_traffic_model and
/// build_traffic_model_collapsed (traffic_model.hpp) produce these for any
/// topology, build_fattree_collapsed (fattree_graph.hpp) the paper's Eq. 22
/// fat-tree form; as a NetworkModel it plugs straight into the sweep engine
/// and experiment harness.
class GeneralModel final : public NetworkModel {
 public:
  ChannelGraph graph;
  /// Class ids of the processors' injection channels (one per symmetry
  /// group; evaluate() averages Eq. 1 over them).  A model without any
  /// still solves, but evaluate() and saturation_rate() abort.
  std::vector<int> injection_classes;
  /// Orbit sizes parallel to injection_classes for collapsed models where
  /// one entry stands for many processors; empty means uniform weights.
  std::vector<double> injection_class_weights;
  /// For symmetry-collapsed models: per topo::ChannelTable channel id, the
  /// quotient class id it was folded into.  Empty for per-channel models
  /// (where class ids == channel ids).  Parity checks and reports use this
  /// to line dense channels up against collapsed classes.
  std::vector<int> channel_class_of;
  /// D̄ of the paper's Eq. 2, counted in channels.
  double mean_distance = 0.0;
  /// Fraction of offered pair-weight with no surviving path under the
  /// builder's (possibly faulted) topology — 0 on a healthy fabric.  Carried
  /// demand excludes it (unroutable pairs seed no flow); evaluate() reports
  /// it through LatencyEstimate::unroutable_fraction and downgrades status
  /// to Disconnected when positive.
  double unroutable_fraction = 0.0;
  /// Worm length, ablation switches and the fixed-point cap; λ₀ is each
  /// evaluation's own argument.
  SolveOptions opts;
  /// Builder-provided identity for reports.
  std::string model_name = "general";
  /// The injection-process SCV the per-channel ca2 values are tuned to
  /// (see set_injection_ca2); 1 is the paper's Poisson assumption.
  double injection_ca2 = 1.0;
  /// The injection process's intra-batch serialization term (mean
  /// batch-mates ahead of a random arrival, in injection services) — the
  /// load-independent half of the exact M^[X]/G/1 wait that the SCV cannot
  /// carry.  evaluate() adds injection_batch_residual · x̄_inj to the
  /// source wait; 0 for every batchless process.
  double injection_batch_residual = 0.0;

  /// The id of the first class whose ChannelClass::label is `label`
  /// (O(classes) scan); aborts if absent.
  int class_id(const std::string& label) const;

  /// Retune every channel's arrival SCV to an injection process with the
  /// given (effective) C_a² using the structural self_frac each class
  /// carries:
  ///     ca2(ch) = 1 + (ca2 − 1) · self_frac(ch),
  /// and reset the batch residual (an SCV-only tune describes a batchless
  /// process).  O(channels) — no re-routing — so burstiness sweeps reuse
  /// one built model.  For hand-built graphs (self_frac ≡ 0 off the
  /// builder path) this only records the value; channel SCVs stay Poisson.
  /// When tuning to a cataloged process prefer set_injection_process —
  /// hand-fed values must be arrivals::ArrivalSpec::effective_ca2(), NOT
  /// the interval ca2(): for the correlated MMPP-2 the interval SCV
  /// understates queueing (a measured 31% model optimism, EXPERIMENTS.md).
  void set_injection_ca2(double ca2);

  /// Tune the model to an arrival process end-to-end: per-channel SCVs from
  /// spec.ca2(lambda0) via set_injection_ca2, plus the process's intra-batch
  /// residual.  This is the one call benches and sweeps should use.
  void set_injection_process(const arrivals::ArrivalSpec& spec,
                             double lambda0 = 0.0);

  /// Retune every channel class to `lanes` virtual channels per physical
  /// link.  Lane counts enter the solve only through ChannelClass::lanes —
  /// rates, self_frac and transitions are lane-independent — so this is
  /// O(channels) and BITWISE-identical to rebuilding the model from a
  /// topology with Topology::set_uniform_lanes(lanes) (tested).  The
  /// what-if lane axis for resident models.
  void set_uniform_lanes(int lanes);

  /// Scale every channel's per-link rate by `factor` (> 0): the what-if
  /// load axis for resident models.  Because the solver only ever consumes
  /// rate_per_link · λ₀, a uniformly scaled model evaluated at
  /// λ₀ agrees with the unscaled model evaluated at λ₀·factor up to one
  /// ulp per product (the multiplication re-associates) — within the 1e-12
  /// delta-retune parity contract, not bitwise.  Scales compose; rescale by
  /// 1/factor to undo.
  void scale_injection_rates(double factor);

  /// Retune every channel class to a per-lane flit-buffer depth of `flits`
  /// (util::kInfiniteBufferDepth restores the paper's unbounded buffering).
  /// O(channels), like set_uniform_lanes — the what-if buffer axis for
  /// resident models.  Throws std::invalid_argument on depth < 1.
  void set_uniform_buffers(int flits);

  /// Multiply every channel class's bandwidth by `factor` (> 0, composes):
  /// the what-if bandwidth axis.  It scales whatever per-class bandwidths
  /// the model holds, so a tapered fat-tree keeps its taper shape.
  /// O(channels).  Throws std::invalid_argument on factor <= 0 or a
  /// product that set_channel_bandwidths rejects.
  void scale_bandwidths(double factor);

  /// Retune per-class bandwidths: `bw[id]` becomes class id's bandwidth
  /// (size must equal graph.size(); every entry > 0, else
  /// std::invalid_argument).
  void set_channel_bandwidths(const std::vector<double>& bw);

  /// Full solve at λ₀ (>= 0), which scales every class's unit
  /// rate_per_link: per-class detail.  One-shot: builds a SolvePlan.
  SolveResult solve(double lambda0) const;

  // NetworkModel interface.
  std::string name() const override { return model_name; }
  double worm_flits() const override { return opts.worm_flits; }
  queueing::AblationOptions ablation() const override { return opts.ablation; }
  double arrival_ca2() const override { return injection_ca2; }
  double arrival_batch_residual() const override {
    return injection_batch_residual;
  }
  /// Content digest over everything evaluate() consumes: the full channel
  /// graph (rates, lanes, SCVs, transitions), injection classes/weights,
  /// mean distance and the solver knobs.  Two GeneralModels with equal
  /// digests evaluate bitwise-identically at every λ₀, so memo caches can
  /// share entries across rebuilt or cloned models.  It is
  /// SolvePlan(*this).digest(): O(channels + transitions) plus the plan's
  /// set-up, so the engines take it from the plan they evaluate through
  /// instead.  Precondition: graph.validate() is empty.
  std::uint64_t content_digest() const override;
  /// One-shot: SolvePlan(*this).evaluate(lambda0).
  LatencyEstimate evaluate(double lambda0) const override;
  /// Eq. 26 by bisection through one SolvePlan (the same probes as the
  /// NetworkModel default, without re-planning each one).
  double saturation_rate() const override;
};

class SolveStructure;  // the wiring half of a SolvePlan (general_model.cpp)

/// The λ₀-free set-up of solving one model, built once (see the header
/// comment): validation, order, transitions, blocking factors, drain
/// floors and the digest.  solve / evaluate / saturation_rate are const
/// and thread-safe, so parallel sweeps share one plan.  Neither copyable
/// nor movable (its digest cache is atomic): hold it in place, or behind a
/// pointer.
class SolvePlan {
 public:
  /// Plan `net` solved under `opts`.  Aborts unless net.graph.validate()
  /// is empty and opts.worm_flits > 0.
  SolvePlan(const GeneralModel& net, const SolveOptions& opts);
  /// Plan `net` under its own options.
  explicit SolvePlan(const GeneralModel& net);
  /// Plan `net` under its own options on a structure another plan built.
  /// Only the attribute half is derived (and its attribute checks run).
  /// Precondition: `net` has the wiring `structure` was built from — it is
  /// that model, or a copy changed only by lane, buffer, bandwidth, load
  /// or arrival tunes.  Checked only by class count.
  SolvePlan(const GeneralModel& net,
            std::shared_ptr<const SolveStructure> structure);

  /// The Eq. 11 solve at λ₀ (>= 0): one reverse-topological sweep, or the
  /// damped fixed point on a cyclic graph, with every class's solution row
  /// and the telemetry.  The only answer that builds rows.
  SolveResult solve(double lambda0) const;
  /// Network latency at λ₀ (Eq. 2/25): Eq. 1 averaged over the injection
  /// classes (weighted by injection_class_weights when given), with the
  /// model's batch residual and unroutable fraction applied —
  /// GeneralModel::evaluate's answer.  Precondition: the model has
  /// injection classes.
  LatencyEstimate evaluate(double lambda0) const;
  /// Saturation rate λ₀* (Eq. 26), every bisection probe through this plan.
  /// A probe reads only evaluate's x̄_inj (its weighted injection x̄).
  double saturation_rate() const;
  /// The content digest of what this plan evaluates; equals
  /// GeneralModel::content_digest() for a plan of a model under its own
  /// options.  Computed on first use (O(classes + transitions), the
  /// structure's part once per structure), then kept.
  std::uint64_t digest() const;
  /// s_f of this plan.
  double worm_flits() const { return solver_.worm_flits(); }
  /// The structure half, for tuned variants of the same wiring to share.
  const std::shared_ptr<const SolveStructure>& structure() const {
    return structure_;
  }

 private:
  /// One class's solve inputs: its kernel attributes plus the plan's
  /// λ₀-free derivations.
  struct ClassInputs : queueing::ChannelAttributes {
    double rate = 0.0;      ///< rate_per_link at unit injection
    double floor = 0.0;     ///< ChannelSolver::drain_floor
    double blocking = 0.0;  ///< ChannelSolution::blocking
  };

  /// x̄ and W̄ of one class, as a sweep leaves them.
  struct SweepRow {
    double service_time;
    double wait;
  };
  /// One sweep's rows, which are the calling thread's until its next
  /// sweep, and how the sweep ended.
  struct Sweep {
    std::span<const SweepRow> rows;
    bool converged;
    int iterations;
    double residual;  ///< final fixed-point max |Δx̄| (0 on acyclic graphs)
  };

  /// The one constructor the three public ones forward to: `structure`
  /// null to build one from `net`.
  SolvePlan(const GeneralModel& net, const SolveOptions& opts,
            std::shared_ptr<const SolveStructure> structure);

  /// The Eq. 11 sweep at λ₀ into the calling thread's rows.
  Sweep sweep(double lambda0) const;
  /// Eq. 1 averaged over the injection classes of a sweep's rows, with
  /// the stability verdict `stable` (evaluate's answer before the batch
  /// residual and the unroutable fraction).
  LatencyEstimate estimate_latency(const Sweep& swept, bool stable) const;

  std::shared_ptr<const SolveStructure> structure_;
  queueing::ChannelSolver solver_;
  int max_iterations_;
  std::vector<ClassInputs> classes_;
  std::vector<double> factor_;  ///< P(i|j) per transition, in graph order
  double batch_residual_ = 0.0;
  std::uint64_t identity_ = 0;  ///< name, options and arrival tuning
  mutable std::atomic<std::uint64_t> digest_{0};  ///< 0: not yet computed
};

/// Solve the model at injection rate λ₀ (messages/cycle/PE) under `base`
/// (worm length, ablation switches and the fixed-point cap) and report
/// network latency.  This and the one below are one-shot: SolvePlan(net,
/// base) asked once.
LatencyEstimate model_latency(const GeneralModel& net, double lambda0,
                              SolveOptions base);

/// Saturation injection rate λ₀* (Eq. 26) for the network under `base`.
double model_saturation_rate(const GeneralModel& net, SolveOptions base);

}  // namespace wormnet::core
