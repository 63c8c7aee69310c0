// wormnet/core/network_model.hpp
//
// The polymorphic surface of the analytical model: every instantiation —
// the closed-form butterfly fat-tree (§3), the general channel-graph solver
// (§2) over collapsed fat-tree / hypercube / per-channel mesh graphs, and
// any user-built model — implements this one interface, so the sweep engine
// and experiment harness drive all of them uniformly.
//
// Implementations own their topology description and ablation switches; the
// interface deals only in the paper's observable quantities: the latency
// estimate at an injection rate (Eq. 2/25) and the saturation rate (Eq. 26).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "queueing/channel_solver.hpp"

namespace wormnet::core {

/// Structured outcome of an evaluation, so callers never have to parse NaN
/// or Inf out of the numbers.  Precedence when several apply:
/// Infeasible > Saturated > Disconnected > Ok.
enum class SolveStatus {
  Ok,            ///< converged, stable, all demand routable
  Saturated,     ///< some bundle at or past saturation (ρ ≥ 1); waits diverge
  Infeasible,    ///< solver failed to converge / produced non-finite values
  Disconnected,  ///< some offered demand had no surviving path (faults)
};

/// Short stable name for a SolveStatus ("ok", "saturated", ...).
const char* to_string(SolveStatus status);

/// Network-level latency summary (Eq. 2/25):
///     L = mean_j [ W̄_inj(j) + x̄_inj(j) ] + D̄ - 1.
///
/// Contract: latency and inj_wait are never NaN — a diverged or failed
/// solve reports +infinity — and non-finite values appear only with status
/// Saturated or Infeasible.  `stable` remains the quick boolean view
/// (true iff status is Ok or Disconnected: the carried demand is served).
struct LatencyEstimate {
  bool stable = true;
  SolveStatus status = SolveStatus::Ok;
  double latency = 0.0;       ///< L, cycles from generation to tail delivery
  double inj_wait = 0.0;      ///< mean source-queue wait
  double inj_service = 0.0;   ///< mean injection-channel service time
  double mean_distance = 0.0; ///< D̄ in channels
  /// Fraction of offered pair-weight with no surviving path (0 when the
  /// fabric is healthy); the latency above describes the carried demand.
  double unroutable_fraction = 0.0;
};

/// The identity digest NetworkModel::content_digest folds by default (and
/// core::SolvePlan starts from): model name, worm length, ablation switches
/// and arrival-process tuning.
std::uint64_t identity_digest(std::string_view name, double worm_flits,
                              const queueing::AblationOptions& ablation,
                              double arrival_ca2, double batch_residual);

/// An analytical wormhole-network model evaluated at an injection rate.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Human-readable model identity for reports and logs.
  virtual std::string name() const = 0;

  /// s_f, the worm length in flits this model was configured with.
  virtual double worm_flits() const = 0;

  /// The ablation switches in force (the paper's two novelties + erratum).
  virtual queueing::AblationOptions ablation() const = 0;

  /// The injection-process SCV (C_a²) this model is currently tuned to; 1 —
  /// the paper's Poisson assumption — unless the implementation supports the
  /// bursty-arrivals extension (GeneralModel via set_injection_ca2).  Part
  /// of the interface so sweep caches can key on it.
  virtual double arrival_ca2() const { return 1.0; }

  /// The injection process's intra-batch serialization residual (mean
  /// batch-mates ahead, in injection services; see
  /// arrivals::ArrivalSpec::batch_residual); 0 for batchless processes.
  /// Interface-visible for the same cache-keying reason as arrival_ca2.
  virtual double arrival_batch_residual() const { return 0.0; }

  /// Content digest: a hash over every configuration axis that can change
  /// evaluate()'s result, such that two models with equal digests produce
  /// bitwise-identical estimates at every λ₀.  Memo caches
  /// (harness::SweepEngine, harness::QueryEngine) key evaluations on this
  /// value instead of the model's address, so entries survive the model
  /// object itself — a rebuilt or cloned model with identical content hits
  /// the cache, and a recycled address can never serve stale data.
  ///
  /// The default folds the identity the base interface can see: name(),
  /// worm length, ablation switches and the arrival-process tuning.  That
  /// is sufficient ONLY when name() pins down everything else (true for
  /// FatTreeModel, whose name encodes levels/parents/lanes; GeneralModel
  /// overrides to hash its channel graph).
  /// Implementations whose evaluate() depends on state beyond these axes
  /// MUST override and mix that state in, or caches may serve a lookalike's
  /// estimate.  The engines call it once per call or prepared variant, never
  /// per probe (for a GeneralModel they take core::SolvePlan::digest()), so
  /// overrides should stay O(model size) or better.
  virtual std::uint64_t content_digest() const;

  /// Evaluate at λ₀ messages/cycle/processor.
  virtual LatencyEstimate evaluate(double lambda0) const = 0;

  /// Evaluate at a load expressed in flits/cycle/processor (Fig. 3's x-axis).
  LatencyEstimate evaluate_load(double load_flits) const;

  /// Saturation injection rate λ₀* solving Eq. 26 (λ₀ · x̄_inj(λ₀) = 1) by
  /// bisection.  The default implementation brackets from 1/s_f (the
  /// injection channel can never serve faster than one worm per s_f cycles);
  /// implementations may override with a cheaper closed form.
  virtual double saturation_rate() const;

  /// Saturation throughput in flits/cycle/processor (λ₀* · s_f).
  double saturation_load() const;
};

}  // namespace wormnet::core
