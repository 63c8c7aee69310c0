// wormnet/harness/sweep_engine.hpp
//
// Batched evaluation engine for analytical models: λ-sweeps, load-sweeps
// and saturation bisections over any core::NetworkModel, executed as
// parallel jobs on a util::ThreadPool with per-(model, λ₀) memoization.
//
// Why an engine instead of a for-loop:
//  * every bench used to hand-roll its own sweep loop; the engine is the
//    one place that owns batching, threading and caching;
//  * model evaluations are pure functions of (model, λ₀), so parallel and
//    serial execution produce BITWISE-identical results (tested) — the
//    engine just reorders work, never arithmetic;
//  * saturation searches and fraction-of-saturation sweeps re-evaluate the
//    same points repeatedly across benches; the memo cache collapses those
//    into one solve each.
//
// Cache contract: entries key on the model's CONTENT, not its address.
// The key is core::NetworkModel::content_digest() — a hash over every
// configuration axis that can change evaluate()'s result (for GeneralModel
// the full channel graph, injection classes, solver knobs and arrival
// tuning; see the digest's own contract) — combined with the λ₀ bit
// pattern.  Each call computes the digest once: a GeneralModel is bound to
// one core::SolvePlan per call (its set-up and digest built once, every
// probe of a bisection or sweep solved through it), any other model to its
// content_digest() and evaluate().  Consequences:
//  * two model OBJECTS with identical content share entries: a rebuilt,
//    cloned or delta-retuned-back model hits the warm cache, which is what
//    the QueryEngine's resident/evicted model lifecycle needs;
//  * a model may be destroyed while the engine lives on — a later model at
//    a recycled address can never read stale data (the footgun the old
//    address-based key documented is gone);
//  * ordinary mutators (set_injection_*, set_uniform_lanes,
//    scale_injection_rates, ablation flips, edited rates) change the digest
//    and miss rather than serve the pre-mutation estimate.
// One caveat remains: state a model's digest cannot see — a custom
// NetworkModel subclass that relies on the default digest while carrying
// extra evaluate()-visible state and no override — would alias; override
// content_digest() there, or clear_cache() after mutating such state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/network_model.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::obs {
class Registry;
}

namespace wormnet::core {
class SolvePlan;
}

namespace wormnet::harness {

/// One evaluated point of a sweep.
struct SweepPoint {
  double lambda0 = 0.0;     ///< injection rate, messages/cycle/PE
  double load_flits = 0.0;  ///< λ₀ · s_f, flits/cycle/PE
  core::LatencyEstimate est;
};

/// One member of a model-family sweep (sweep_family): the model built at one
/// parameter value, its saturation, and its latency curve.  The member owns
/// the model for the caller's convenience; the engine's cache keys on model
/// CONTENT, so dropping members early is safe.
struct FamilyMember {
  double parameter = 0.0;  ///< the family axis value (e.g. hotspot fraction)
  std::unique_ptr<core::NetworkModel> model;
  double saturation_rate = 0.0;  ///< λ₀* of this member (Eq. 26)
  std::vector<SweepPoint> points;
};

/// Builds the family member model at one parameter value — e.g.
/// `[&](double f) { return build_traffic_model(ft, TrafficSpec::hotspot(f)); }`
/// wrapped in a unique_ptr.
using ModelFactory =
    std::function<std::unique_ptr<core::NetworkModel>(double parameter)>;

/// Builds the family member model tuned to one arrival process — e.g.
/// `[&](const arrivals::ArrivalSpec& p) {
///    auto m = std::make_unique<core::GeneralModel>(base);
///    m->set_injection_process(p);
///    return m; }`.
using ArrivalModelFactory = std::function<std::unique_ptr<core::NetworkModel>(
    const arrivals::ArrivalSpec& process)>;

/// Parallel, memoizing sweep executor.
class SweepEngine {
 public:
  struct Options {
    unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
    bool parallel = true;  ///< false: evaluate on the calling thread, in order
    bool memoize = true;   ///< false: always re-evaluate (for benchmarking)
  };

  SweepEngine() : SweepEngine(Options{}) {}
  explicit SweepEngine(Options opts);

  /// Evaluate one point (through the cache).
  core::LatencyEstimate evaluate(const core::NetworkModel& model, double lambda0);
  /// Evaluate one point given a flit load.
  core::LatencyEstimate evaluate_load(const core::NetworkModel& model,
                                      double load_flits);

  /// Evaluate every λ₀ in `lambdas`; one SweepPoint per input, same order.
  std::vector<SweepPoint> sweep_lambda(const core::NetworkModel& model,
                                       const std::vector<double>& lambdas);
  /// Evaluate every flit load in `loads`; one SweepPoint per input, same order.
  std::vector<SweepPoint> sweep_load(const core::NetworkModel& model,
                                     const std::vector<double>& loads);
  /// Evaluate at the given fractions of the model's saturation load.
  std::vector<SweepPoint> sweep_saturation_fractions(
      const core::NetworkModel& model, const std::vector<double>& fractions);

  /// Saturation rate λ₀* (Eq. 26), with every bisection probe memoized so
  /// repeated searches over the same model are free.
  double saturation_rate(const core::NetworkModel& model);
  /// Saturation throughput λ₀* · s_f in flits/cycle/PE.
  double saturation_load(const core::NetworkModel& model);

  /// The same evaluate through a plan the caller already holds (QueryEngine
  /// variants): cached under plan.digest(), which is the planned model's
  /// content_digest(), so model- and plan-keyed entries are shared.
  core::LatencyEstimate evaluate(const core::SolvePlan& plan, double lambda0);

  /// Pattern/parameter sweep over a FAMILY of models: build one model per
  /// parameter value (e.g. a hotspot-fraction axis of traffic-aware models),
  /// find each member's saturation rate, and evaluate it at the given
  /// fractions of ITS OWN saturation.  Members are returned in parameter
  /// order and own their models; each member's sweep runs through the same
  /// memoizing parallel machinery as the single-model entry points.  The
  /// factory is called once per parameter, in order, on the calling thread
  /// (sweep_burstiness relies on this).
  /// Lifetime: none to worry about — the cache keys on model content, so
  /// members may be dropped (or rebuilt identically later, hitting the warm
  /// cache) without clear_cache().
  std::vector<FamilyMember> sweep_family(const ModelFactory& make,
                                         const std::vector<double>& parameters,
                                         const std::vector<double>& saturation_fractions);

  /// Burstiness axis: sweep_family over arrival processes (the bursty-
  /// arrivals extension's capacity-planning axis).  Each member's model is
  /// built by the factory tuned to that process (typically one
  /// build_traffic_model + per-member set_injection_process retunes, which
  /// are O(channels)); each member's `parameter` is its process's effective
  /// C_a² (the variability parameter the model consumes).  The cache
  /// disambiguates members through the content digest, which folds
  /// arrival_ca2() and arrival_batch_residual() in.  Bernoulli is
  /// rejected: its SCV is 1 − λ₀, which varies across a member's own sweep
  /// points, so it has no single position on this axis.
  std::vector<FamilyMember> sweep_burstiness(
      const ArrivalModelFactory& make,
      const std::vector<arrivals::ArrivalSpec>& processes,
      const std::vector<double>& saturation_fractions);

  /// Number of worker threads backing parallel sweeps (1 when serial).
  unsigned threads() const;

  // Cache observability (tests; perf reports).
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::size_t cache_size() const;
  void clear_cache();

  /// Publish the cache counters and hit rate into `reg` as gauges under
  /// labels "engine=<label>" (one-shot snapshot export; idempotent).
  void publish_metrics(obs::Registry& reg, std::string_view label) const;

 private:
  struct Key {
    std::uint64_t digest;       ///< NetworkModel::content_digest()
    std::uint64_t lambda_bits;  ///< λ₀ IEEE-754 bit pattern
    bool operator==(const Key& o) const {
      return digest == o.digest && lambda_bits == o.lambda_bits;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// One model bound for a call: its digest and the λ₀ → estimate function
  /// (a SolvePlan, or the model's own evaluate()); sweep_engine.cpp.
  class Target;

  core::LatencyEstimate evaluate(const Target& target, double lambda0);
  std::vector<SweepPoint> sweep_lambda(const Target& target,
                                       const std::vector<double>& lambdas);
  double saturation_rate(const Target& target);

  /// Cache lookup; returns true and fills `out` on a hit.
  bool lookup(const Key& key, core::LatencyEstimate& out);
  void store(const Key& key, const core::LatencyEstimate& est);

  Options opts_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when serial
  mutable std::mutex mu_;
  std::unordered_map<Key, core::LatencyEstimate, KeyHash> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wormnet::harness
