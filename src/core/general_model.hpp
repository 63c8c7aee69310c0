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
// The ablation switches (queueing::AblationOptions) reproduce the paper's
// two claimed novelties and the published erratum, so benches can quantify
// each ingredient's contribution.  The extensions (lanes, arrival SCVs,
// link attributes) are per-class inputs on the graph, not switches.
#pragma once

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

/// Solve the general model over `graph` at injection rate `lambda0`
/// (messages/cycle/PE), which scales every class's unit rate_per_link.
/// Preconditions: graph.validate() is empty, lambda0 >= 0.
SolveResult solve_general_model(const ChannelGraph& graph, const SolveOptions& opts,
                                double lambda0);

/// Average Eq. 1 over the given injection classes with uniform weights.
/// `injection_classes` lists the class id of each PE's injection channel
/// (one entry per symmetric group is fine when all PEs are equivalent).
LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 double mean_distance);

/// Weighted variant for collapsed (quotient) models where each injection
/// class stands for a whole processor orbit: `weights` (parallel to
/// `injection_classes`, need not be normalized) carry the orbit sizes, so
/// the weighted average equals the dense per-processor uniform average.
LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 const std::vector<double>& weights,
                                 double mean_distance);

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
  /// group; estimate_latency averages them uniformly).
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

  /// Retune every channel class to bandwidth `bw` flits/cycle (1.0 restores
  /// the paper's uniform links).  O(channels).  Throws std::invalid_argument
  /// on bw <= 0.
  void set_uniform_bandwidth(double bw);

  /// Retune per-class bandwidths: `bw[id]` becomes class id's bandwidth
  /// (size must equal graph.size(); every entry > 0, else
  /// std::invalid_argument).  The what-if bandwidth axis — a QueryEngine
  /// bandwidth_scale reads the resident per-class bandwidths, scales them,
  /// and applies here.
  void set_channel_bandwidths(const std::vector<double>& bw);

  /// Full solve at λ₀ (per-channel detail).
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
  /// share entries across rebuilt or cloned models.  O(channels +
  /// transitions).
  std::uint64_t content_digest() const override;
  LatencyEstimate evaluate(double lambda0) const override;
};

/// Full solve at λ₀ (per-channel detail).  `base` supplies worm length,
/// ablation switches and the fixed-point cap.
SolveResult model_solve(const GeneralModel& net, double lambda0, SolveOptions base);

/// Solve the model at injection rate λ₀ (messages/cycle/PE) and report
/// network latency, same option handling.
LatencyEstimate model_latency(const GeneralModel& net, double lambda0,
                              SolveOptions base);

/// Saturation injection rate λ₀* (Eq. 26) for the network under `base`.
double model_saturation_rate(const GeneralModel& net, SolveOptions base);

}  // namespace wormnet::core
