// wormnet/harness/query_engine.hpp
//
// Resident what-if query engine: the product form of the paper's value
// proposition.  The analytical model answers in microseconds what simulation
// answers in minutes — so keep the models RESIDENT and let an operator (or a
// design-space search, PAPERS.md's Solnushkin use case) ask thousands of
// questions against them: "what if the hotspot moves?", "load +20%?",
// "lanes 2 → 4?", "arrivals turn bursty?".
//
// Each WhatIfQuery is a set of DELTAS against a resident baseline
// (topology, base TrafficSpec) plus the metric asked for.  The engine plans
// every query as cheapest-applicable-delta-else-rebuild:
//  * pattern delta  → core::RetunableTrafficModel::retune_traffic — each
//    destination column merges the old and new spec's sources into signed
//    seeds (O(N) in all for permutation steps), and only the columns that
//    changed re-propagate (or one pass per orbit when the new spec keeps
//    the topology's symmetry); falls back to a cold rebuild when the delta
//    touches most of the matrix, and says so;
//  * lane, buffer, bandwidth, load and arrival deltas → the GeneralModel
//    tunes set_uniform_lanes, set_uniform_buffers, scale_bandwidths,
//    scale_injection_rates and set_injection_process, O(channels) each,
//    applied in that order to the variant's own copy of the model;
//  * fault delta    → core::RetunableTrafficModel::retune_faults — the
//    FaultedTopology decorator keeps the channel structure stable, so only
//    the destination columns whose routing changed are touched, and in each
//    only the flow downstream of the nodes whose routing changed
//    re-propagates (dense residents never rebuild for a fault; collapsed
//    residents rebuild dense once on entering a degraded state and say so).
// A tune-only variant copies the resident's model; only a traffic or fault
// variant clones the resident, retunes the clone and keeps its model.  The
// resident itself is never tuned or retuned.
// Queries sharing the same delta set share ONE prepared model variant;
// repeated (variant, metric, λ₀) questions — within a batch or across
// batches — are served from a result cache and reported as Memoized.
//
// Solve plans.  Each variant builds its core::SolvePlan once, in the
// parallel prepare phase, and all of its questions (latency points,
// saturation bisections, class breakdowns) solve through it.  A variant
// without a traffic or fault delta shares the resident plan's structure
// half (order, transitions) and derives only its attributes; a traffic or
// fault delta rewires the model and builds a fresh plan.  Variant plans die
// with their batch; only the resident keeps its own.  A saturation
// bisection runs straight through the plan: the answer cache keeps its
// result, and its probes stay out of the latency memo pool.
//
// Link orbits.  A query that fails exactly one link, fails no switch and has
// no traffic delta is planned under the representative fault set of that
// link's ORBIT instead of its own.  Its other deltas (load, lanes, buffers,
// bandwidth, arrivals) are uniform, so they commute with the automorphisms.  The orbits come from the resident's
// declared symmetry (topo::topology_symmetry with the pins of its base
// spec): a link's orbit is the unordered pair of channel classes of its two
// directions, and the representative is the orbit's first link in
// availability_n_minus_1's enumeration order.  Orbit mates therefore share
// one prepared variant and one answer-cache entry, so an N−1 sweep on
// BFT(4) under uniform traffic does 3 fault retunes instead of 224.  The
// table is built lazily, on a resident's first single-link fault query.
// Only topologies whose symmetry survives fault routing opt in
// (Topology::has_fault_symmetry); every other resident keeps singleton
// orbits, i.e. one retune per distinct fault set.
//
// Batches fan out on a util::ThreadPool.  Every evaluation is a pure
// function of (model content, λ₀), so a parallel batch is BITWISE-identical
// to a serial one (tested in test_query_engine.cpp); the engine only
// reorders work, never arithmetic.  Latency points also pass through the
// engine's own content-keyed SweepEngine, private to the engine: behind the
// answer cache it only hits when two variants with different delta sets
// build models of equal content.
//
// Observability: every answer carries a QueryCost class and the
// core::RetuneReport of its variant's preparation, so a service can meter
// exactly how much work each question bought.  The classes, in order of
// precedence:
//  * Memoized   — a result-cache hit from an earlier batch, or an in-batch
//    duplicate of the identical question;
//  * Symmetric  — a single-link fault query answered by the retune of a
//    different link in its orbit (the result names that link);
//  * Reevaluate / Retune / Rebuild — what preparing the query's own variant
//    took.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/traffic_model.hpp"
#include "harness/sweep_engine.hpp"
#include "topo/fault.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic_spec.hpp"

namespace wormnet::obs {
class Registry;
}

namespace wormnet::harness {

/// The observable a WhatIfQuery asks for.
enum class QueryMetric {
  Latency,         ///< full LatencyEstimate at lambda0 (Eq. 2/25)
  Saturation,      ///< saturation injection rate λ₀* (Eq. 26)
  ClassBreakdown,  ///< per-channel-class load/wait detail at lambda0
};

/// How the engine served a query — the retune-vs-rebuild cost class.
enum class QueryCost {
  /// Answered from the result cache (a duplicate within the batch, or the
  /// same question asked in an earlier batch).  No model work at all.
  Memoized,
  /// A single-link fault query answered by the variant of another link in
  /// the same orbit (QueryResult::representative names it).  Symmetry fixes
  /// the answer, so no retune was done for this link.
  Symmetric,
  /// The resident model was reused as-is or copied and tuned in O(channels)
  /// (lanes / buffers / bandwidth / load / arrival); the cost is one solve.
  Reevaluate,
  /// The pattern delta was served by delta propagation — O(affected
  /// destinations) passes, or the collapsed orbit path (see the attached
  /// RetuneReport) — plus one solve.
  Retune,
  /// The pattern delta touched too much of the matrix and the variant was
  /// cold-rebuilt: the worst case, metered so callers see it.
  Rebuild,
};

/// One operator question: deltas relative to the resident baseline (leave an
/// axis defaulted to keep the baseline's value) plus the metric wanted.
struct WhatIfQuery {
  /// Replace the traffic pattern (absent = keep the baseline spec).
  std::optional<traffic::TrafficSpec> traffic;
  /// Scale offered load by this factor (1.0 = unchanged; must be > 0).
  double load_scale = 1.0;
  /// Set every channel to this many virtual channels (0 = keep baseline).
  int lanes = 0;
  /// Set every channel's per-lane flit-buffer depth (0 = keep baseline;
  /// util::kInfiniteBufferDepth = the paper's unbounded buffering).
  int buffer_depth = 0;
  /// Scale every channel's bandwidth by this factor (1.0 = unchanged; must
  /// be > 0).  Applied on top of the baseline topology's own per-channel
  /// bandwidths, so a tapered fat-tree keeps its taper shape.
  double bandwidth_scale = 1.0;
  /// Retune to this arrival process (absent = keep the baseline process).
  std::optional<arrivals::ArrivalSpec> arrival;
  /// Evaluate under this fault set (null or empty = healthy baseline).  The
  /// set must have been built against the resident's topology.  Keyed by its
  /// order-insensitive content digest, so two scenarios failing the same
  /// links share one prepared variant.
  std::shared_ptr<const topo::FaultSet> faults;

  QueryMetric metric = QueryMetric::Latency;
  /// Injection rate λ₀ for Latency / ClassBreakdown (ignored by Saturation,
  /// except that a Bernoulli arrival delta reads it for its rate-dependent
  /// SCV, mirroring set_injection_process).
  double lambda0 = 0.0;
};

/// One row of a ClassBreakdown answer (one per channel class).
struct ClassLoadRow {
  int class_id = 0;
  std::string label;           ///< builder label when one exists, else empty
  double rate = 0.0;           ///< offered per-link rate at λ₀, messages/cycle
  double utilization = 0.0;    ///< ρ of the class's output bundle
  double wait = 0.0;           ///< W̄ of that bundle, cycles
  double service_time = 0.0;   ///< x̄ of the class, cycles
  double ca2 = 1.0;            ///< arrival SCV the wait was evaluated at
};

/// The answer to one WhatIfQuery.  Only the field matching `metric` is
/// meaningful (ClassBreakdown also fills est.stable).
struct QueryResult {
  QueryMetric metric = QueryMetric::Latency;
  core::LatencyEstimate est;            ///< Latency
  double saturation_rate = 0.0;         ///< Saturation
  std::vector<ClassLoadRow> breakdown;  ///< ClassBreakdown
  QueryCost cost = QueryCost::Reevaluate;
  /// What preparing this query's model variant did (zeroed for Memoized
  /// answers and for queries with no pattern delta).
  core::RetuneReport retune;
  /// Symmetric answers only: the orbit representative's fault set, whose
  /// retune served this query (null for every other cost class).
  std::shared_ptr<const topo::FaultSet> representative;
};

/// One availability scenario's outcome, ranked into an AvailabilityReport.
struct AvailabilityRow {
  std::string label;  ///< caller-given, or derived from the failed links
  std::shared_ptr<const topo::FaultSet> faults;
  core::LatencyEstimate est;  ///< at the report's λ₀, under the failure
  QueryCost cost = QueryCost::Reevaluate;  ///< how the engine served it
  /// Symmetric rows: the fault set of the link whose retune answered this
  /// row (see QueryResult::representative); null otherwise.
  std::shared_ptr<const topo::FaultSet> representative;
};

/// An N−1 / N−k availability what-if: the healthy baseline plus every
/// scenario's degraded estimate, ranked worst-first — most unroutable demand
/// first, then highest latency (a saturated/infinite row outranks any finite
/// one; the SolveStatus contract keeps NaN out of the ordering).  Ties keep
/// scenario enumeration order, so the ranking is deterministic.
struct AvailabilityReport {
  double lambda0 = 0.0;
  core::LatencyEstimate baseline;     ///< the healthy resident at λ₀
  std::vector<AvailabilityRow> rows;  ///< worst failure first
  int scenarios_ok = 0;  ///< rows still status Ok (full service under failure)
};

/// Resident what-if query engine.  Not thread-safe for concurrent run calls
/// (the batch entry points themselves fan out internally).
class QueryEngine {
 public:
  struct Options {
    unsigned threads = 0;   ///< batch worker count; 0 = hardware concurrency
    bool parallel = true;   ///< false: plan and evaluate serially, in order
    /// false: no result cache and no in-batch dedup — every query pays its
    /// full cost (benchmarking the uncached path).
    bool memoize = true;
    core::SolveOptions solve;          ///< worm length, ablation, solver knobs
    core::TrafficBuildOptions build;   ///< residents' collapse/thread policy
  };

  QueryEngine() : QueryEngine(Options{}) {}
  explicit QueryEngine(Options opts);
  /// Convenience: construct and immediately add resident 0.
  QueryEngine(const topo::Topology& topo, const traffic::TrafficSpec& base_spec)
      : QueryEngine(topo, base_spec, Options{}) {}
  QueryEngine(const topo::Topology& topo, const traffic::TrafficSpec& base_spec,
              Options opts);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Get-or-create the resident model for (topology, base spec); returns its
  /// id.  Asking again with the same topology object and an equivalent spec
  /// returns the existing resident (models stay warm across sessions).  The
  /// topology must outlive the engine.
  int resident(const topo::Topology& topo, const traffic::TrafficSpec& base_spec);
  std::size_t num_residents() const;
  /// The resident baseline (for inspection; never mutated by queries).
  const core::RetunableTrafficModel& resident_model(int id) const;

  /// Answer a batch against resident `resident_id`; one result per query, in
  /// input order, bitwise-independent of threads/parallel.
  std::vector<QueryResult> run_batch(int resident_id,
                                     const std::vector<WhatIfQuery>& queries);
  /// Batch against resident 0.
  std::vector<QueryResult> run_batch(const std::vector<WhatIfQuery>& queries);
  /// Single query (resident 0 / explicit resident).
  QueryResult run(const WhatIfQuery& query);
  QueryResult run(int resident_id, const WhatIfQuery& query);

  /// N−1 availability sweep: one scenario per failable (switch-to-switch)
  /// undirected link of the resident's topology, enumerated by (node, port)
  /// from each link's lower endpoint, each answered as a Latency query at λ₀
  /// through the normal batch path.  Each link orbit retunes once (its first
  /// link) and the other rows are Symmetric; without a declared fault
  /// symmetry every link retunes.  The fault view's stable channel
  /// structure keeps every dense-resident scenario a Retune or cheaper (no
  /// per-scenario rebuild).  Orbit mates tie exactly, so they rank in
  /// enumeration order.
  AvailabilityReport availability_n_minus_1(int resident_id, double lambda0);
  /// General N−k form: the caller supplies the scenarios (each a FaultSet
  /// built against the resident's topology, failing any number of links or
  /// switches) and optional labels (empty = derived from the failed links).
  AvailabilityReport availability_scenarios(
      int resident_id, double lambda0,
      std::vector<std::shared_ptr<const topo::FaultSet>> scenarios,
      std::vector<std::string> labels = {});

  // Cost observability (tests; service metering).
  std::uint64_t queries_served() const;
  std::uint64_t served_memoized() const;
  std::uint64_t served_symmetric() const;
  std::uint64_t served_reevaluate() const;
  std::uint64_t served_retune() const;
  std::uint64_t served_rebuild() const;
  /// Distinct model variants prepared across all batches.
  std::uint64_t variants_prepared() const;
  /// The engine's private latency-point memo (a content-keyed SweepEngine).
  std::uint64_t sweep_cache_hits() const;
  std::uint64_t sweep_cache_misses() const;
  /// Wall-clock seconds spent inside run_batch across this engine's
  /// lifetime (one steady_clock pair per batch — negligible, and results
  /// are unaffected); queries_served() / batch_seconds() is the engine's
  /// measured queries/sec.
  double batch_seconds() const;
  /// Drop the result cache and the sweep cache (residents stay warm).
  void clear_cache();

  /// Publish the cost-class counters (as a labeled gauge family — the
  /// cost-class histogram), cache sizes/rates, resident count and measured
  /// queries/sec into `reg` under labels "engine=<label>" (one-shot;
  /// idempotent).
  void publish_metrics(obs::Registry& reg, std::string_view label) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wormnet::harness
