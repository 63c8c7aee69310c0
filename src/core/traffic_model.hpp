// wormnet/core/traffic_model.hpp
//
// The traffic-aware instantiation of the paper's §2 general model: route
// every (src, dst) pair weight of a traffic::TrafficSpec through a
// topo::Topology and accumulate exact per-physical-channel rates and
// continuation probabilities into a ChannelGraph.  This replaces the
// uniform-only hand-derived rate formulas as the way load enters the model —
// any topology x any destination distribution becomes solvable.
//
// Algorithm: one flow-propagation pass per DESTINATION.  For a fixed dst the
// routing function node -> candidate ports (with topo.route_split()
// probabilities — the fat-tree's randomized up-phase becomes an equal split)
// defines an acyclic "route DAG": candidates strictly decrease the distance
// to dst, so flows from all sources superpose on it and merge at nodes.
// Processing nodes in topological order costs O(channels) per destination —
// O(N² · hops) overall — where enumerating individual paths would blow up
// exponentially in the fat-tree's redundant up-phase (2^(l-1) minimal paths
// per pair at LCA level l).
//
// That per-destination "column pass" is written once, seeded by one rule
// (pair weight → reachability → injection split), and lets flow into a node
// by one rule: the node adds it to its flow totals and emits its
// continuation flows at once, unless the pass holds the node, which
// reports the flow instead of splitting it.  It has four consumers that
// differ only in their seeds and where the flows land:
//   * the dense build — one column per destination, seeds at weight w, flows
//     into per-channel sums (sharded, see TrafficBuildOptions);
//   * the symmetry-collapsed build — one column per destination orbit, seeds
//     scaled by the orbit size, flows folded onto channel classes;
//   * the pattern delta (RetunableTrafficModel::retune_traffic) — signed
//     seeds, per column, from merging the old and new spec's sources;
//   * the fault delta (RetunableTrafficModel::retune_faults) — per affected
//     column, only the flow downstream of its FRONTIER, the nodes whose
//     routing changed.  One bounded pass carries the sources feeding the
//     frontier up to their first hit on it (the same under both routings,
//     so nothing is accumulated) and holds the frontier nodes; the held
//     flows, in walk order, then seed the pass mid-DAG, retracted (× −1)
//     along the old routes and re-added along the new.  Flow that never
//     reaches the frontier is never walked.  The first-hit passes write
//     nothing shared, so they run sharded.
// Both deltas end in one tail: apply the changed columns serially in
// destination order, snap the residues, re-assemble.  Fixed-destination
// specs (bit-complement, transpose, permutations) list each destination's
// sources instead of scanning all N: the same seeds in the same order, so
// a cold build is bitwise-identical and a permutation step diffs O(N) pairs.
//
// Output bundles come from topo::ChannelTable, the one fabric index the
// simulator shares: a station's server count m is its channel's
// ChannelTable::bundle_size, and route_prob targets the whole bundle
// (ChannelTable::bundle) — so the model's M/G/m and the simulator's FCFS
// bundle arbitration agree on m by construction.
//
// The resulting GeneralModel matches the uniform builders under
// TrafficSpec::uniform() (tested to machine precision) and plugs into the
// sweep engine like any other NetworkModel.
//
// QNA-style SCV propagation (the bursty-arrivals extension)
// ---------------------------------------------------------
// Alongside rates, the same DP propagates each channel's structural
// burstiness retention `self_frac`: sub-streams split from a source's
// injection process with cumulative fraction p carry SCV p·C_inj² + (1 − p)
// (the Markovian split rule, composable across splits), and merges weight
// sub-stream SCVs by rate (the QNA asymptotic-merge rule).  Both operations
// are affine in C_inj², so only the structural coefficient
//     self_frac(ch) = Σ_substreams flow·frac / rate(ch)   ∈ [0, 1]
// is stored — GeneralModel::set_injection_ca2 then retunes every channel to
//     C_a²(ch) = 1 + (C_inj² − 1) · self_frac(ch)
// in O(channels) without re-routing.  Injection channels are pinned to
// self_frac = 1 (they carry the source's undivided process); deep channels
// merging many thin sub-streams approach 0, the superposition
// Poissonification limit.  The solver consumes C_a²(ch) through the
// Allen–Cunneen G/G/m wait in queueing::ChannelSolver.
// Symmetry-collapsed building (the 100k–1M-endpoint scaling path)
// ---------------------------------------------------------------
// The dense builder above is exact but O(N) per-channel state and O(N²·hops)
// work.  When the topology declares a routing-preserving symmetry
// (topo::topology_symmetry) and the traffic spec is invariant under it
// (TrafficSpec::symmetric), the whole computation collapses the way the
// paper's §3 fat-tree closed form does: run ONE flow-propagation pass per
// destination ORBIT (scaled by the orbit size) and accumulate per channel
// CLASS, producing a GeneralModel with O(classes) ChannelClass entries that
// core::SolvePlan solves like any other.  A levels-10 fat-tree (1,048,576
// processors, ~4.2M channels) folds to 20 classes and builds in well under a
// second; the dense path would need terabytes of pass work.
//
// Build path: every collapsed build indexes the fabric once, with
// topo::topology_symmetry — one O(channels) walk, in fixed chunks on the
// builder pool, that numbers the classes and destination orbits, picks
// their representatives and refuses class-nonuniform link attributes.  The
// topology, not an option, then picks where the passes run:
//   * on the orbit graph, when it answers Topology::route_orbits
//     (ButterflyFatTree at m = 2): each destination orbit's pass runs over
//     the O(levels²) node orbits of the route graph, propagating orbit flow
//     totals, and reads continuation flows off each candidate channel's far
//     end.  No ChannelTable, no per-node pass state: BFT(9) builds in a few
//     ms;
//   * node by node over a ChannelTable otherwise (Mesh, Hypercube, any
//     FaultedTopology): one full column pass per destination orbit.
// One index means one numbering, so the two paths' models agree in
// structure exactly and in value to rounding (tests/
// test_quotient_build.cpp).  The global counter
// wormnet_collapsed_builds_total{path="quotient"|"node"} says which ran.
//
// Exactness: with classes that are true orbits, every dense channel of a
// class carries the same rate/self_frac/ca2 and the quotient recurrence is
// the dense recurrence folded — the two models agree to machine precision
// (tested across topology × pattern × lanes × arrival process).
// check_collapsed_parity() rebuilds densely at small N and reports the first
// class whose members disagree, so a partition that is no routing symmetry
// cannot pass for one.
#pragma once

#include <memory>

#include "core/general_model.hpp"
#include "topo/fault.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic_spec.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::core {

/// How build_traffic_model turns (topology, spec) into channel classes.
enum class CollapseMode {
  /// One class per physical channel — the exact reference path (default;
  /// class ids coincide with topo::ChannelTable ids).
  Dense,
  /// Best available: symmetric quotient when topology and spec both declare
  /// the symmetry (and the quotient is genuinely smaller, with at most 2048
  /// classes), else Dense.
  /// Never changes the model semantics — only its size or build cost.
  Auto,
};

/// Concurrency and collapse knobs for build_traffic_model.
///
/// Determinism contract: the per-destination passes are partitioned into a
/// FIXED set of shards (a function of the topology's processor count only,
/// never of the worker count), every shard accumulates into private
/// buffers, and the reduction runs in shard order — so the built model is
/// BITWISE-identical for every thread count, including threads = 1
/// (tested in test_traffic_model.cpp / test_perf_guards.cpp).
struct TrafficBuildOptions {
  /// Worker threads for the destination shards (util::run_shards): 0 = the
  /// shared pool sized to the hardware (the default), 1 = run serially on
  /// the calling thread, n = a private pool of n workers (tests use this to
  /// pin a width).  At or below kSerialCutoffProcs processors, 0 runs
  /// serially: the fork/join overhead exceeds the whole build there
  /// (BENCH_perf.json, BM_TrafficModelBuildFatTree/3), and the shard
  /// contract makes the fallback bitwise-invisible.  A resident's fault
  /// retunes and the fault views they build follow the same rule.
  unsigned threads = 0;
  /// Channel-class strategy; Dense preserves the historical behavior.
  CollapseMode collapse = CollapseMode::Dense;
  /// Processor count at or below which threads = 0 builds serially.
  static constexpr int kSerialCutoffProcs = util::kSerialCutoffProcs;
};

/// Build the per-physical-channel general model of `topo` loaded with `spec`.
///
/// Channel class ids coincide with topo::ChannelTable ids.  Rates are per
/// unit injection rate: a processor with injection_weight w injects w · λ₀.
/// Processors with zero injection weight (silent rows of a custom matrix)
/// are excluded from the latency average; `mean_distance` is the
/// traffic-weighted D̄.  `opts` seeds the model's worm length, ablation
/// switches and solver knobs; `build` controls the builder's own
/// parallelism (the result does not depend on it — see TrafficBuildOptions).
/// Preconditions: topo.num_processors() >= 2, spec.check(P) passes, and at
/// least one pair weight is positive.
GeneralModel build_traffic_model(const topo::Topology& topo,
                                 const traffic::TrafficSpec& spec,
                                 const SolveOptions& opts = {},
                                 const TrafficBuildOptions& build = {});

/// Convenience: build_traffic_model with CollapseMode::Auto — the entry
/// point for large fabrics.  Collapsed models carry channel_class_of /
/// injection_class_weights and report as "traffic-sym(...)"; when no usable
/// symmetry exists the result is the ordinary dense model.
GeneralModel build_traffic_model_collapsed(const topo::Topology& topo,
                                           const traffic::TrafficSpec& spec,
                                           const SolveOptions& opts = {},
                                           TrafficBuildOptions build = {});

/// Validate a collapsed model against the dense reference: rebuild densely
/// and compare every physical channel's rate and self_frac against its
/// class's values (1e-9 relative / 1e-12 absolute).  Returns the empty
/// string on agreement, else a message naming the first disagreeing class —
/// the check that rejects a partition that is no routing symmetry.  Dense
/// rebuild cost: only call at small N.
/// Precondition: `collapsed` has channel_class_of (was built collapsed).
std::string check_collapsed_parity(const topo::Topology& topo,
                                   const traffic::TrafficSpec& spec,
                                   const GeneralModel& collapsed,
                                   const SolveOptions& opts = {});

/// Outcome of one RetunableTrafficModel::retune_traffic call — the
/// observability record harness::QueryEngine surfaces as per-query cost
/// classes.
struct RetuneReport {
  /// The full dense propagation re-ran (delta touched most of the matrix,
  /// or the resident switched from collapsed to dense with no flow state to
  /// delta against).
  bool rebuilt = false;
  /// Served by the symmetry-collapsed build (either path): one pass per
  /// destination ORBIT — O(classes) state — instead of per destination.
  bool collapsed = false;
  /// Destination (or destination-orbit) passes actually run; a fault delta
  /// counts two per affected column (its retract and its re-add).
  int passes = 0;
  /// (src, dst) pairs whose weight or injection split changed between the
  /// old and new spec (dense path only; 0 on the collapsed path).  A fault
  /// delta counts affected destination columns here.
  long changed_pairs = 0;
  /// Route-DAG nodes walked by the column passes behind this report — the
  /// observable work: every node a pass visited, summed over passes (a
  /// fault delta's upstream first-hit walk plus both downstream walks).
  long nodes_visited = 0;
};

/// A resident traffic-aware model retunable IN PLACE along the what-if axes
/// — the paper's "answers in microseconds" value proposition kept warm for
/// a query service instead of re-derived per question.
///
/// The key property is that the flow-propagation DP is LINEAR in its
/// (src, dst) pair-weight seeds: when a new TrafficSpec changes only some
/// pairs (a hotspot moves, a permutation is re-wired, a matrix row is
/// edited), retune_traffic re-propagates only SIGNED DELTA seeds
/// (Δflow = w' − w, Δself = w'²/i' − w²/i) for the destinations whose
/// column changed — O(affected destinations) passes, not N — then re-runs
/// the O(channels) assembly.  A permutation step finds its changed pairs in
/// O(N); other specs scan the N² pairs.  When the new spec still respects the
/// topology's symmetry (and the build options allow collapsing), the
/// retune is a collapsed build instead: one pass per destination orbit
/// against O(classes) state.  Whole-matrix changes
/// (uniform → hotspot, a fraction change touching every row) fall back to
/// a cold rebuild, reported via RetuneReport::rebuilt.
///
/// Correctness contract: after any retune sequence, model() agrees with a
/// cold build_traffic_model of the current spec to ≤ 1e-12 on every
/// channel rate / self_frac / ca2 (the delta path re-associates floating
/// sums; residues where the true value is 0 are snapped) and ≤ 1e-9 on
/// latency / saturation (tested in tests/test_query_engine.cpp).
///
/// The resident holds wiring only: retunes rebuild model() from the
/// spec, the fault view and the flow state.  Lane, buffer, bandwidth, load
/// and arrival tunes are GeneralModel edits on a copy of model().
///
/// Value semantics: copyable (the QueryEngine clones the resident for each
/// traffic or fault variant and retunes the clones in parallel).  The
/// Topology must outlive every copy.
class RetunableTrafficModel {
 public:
  RetunableTrafficModel(const topo::Topology& topo, traffic::TrafficSpec spec,
                        const SolveOptions& opts = {},
                        const TrafficBuildOptions& build = {});
  ~RetunableTrafficModel();
  RetunableTrafficModel(const RetunableTrafficModel& other);
  RetunableTrafficModel& operator=(const RetunableTrafficModel& other);
  RetunableTrafficModel(RetunableTrafficModel&&) noexcept;
  RetunableTrafficModel& operator=(RetunableTrafficModel&&) noexcept;

  /// The current model (retuned in place by the retune methods below).
  const GeneralModel& model() const;
  GeneralModel& model();
  /// The TrafficSpec the model currently reflects.
  const traffic::TrafficSpec& spec() const;
  /// True when the resident is a symmetry-collapsed quotient model.
  bool collapsed() const;

  /// Move the model to `new_spec` via the cheapest applicable path (see the
  /// class comment); returns what was done.
  RetuneReport retune_traffic(const traffic::TrafficSpec& new_spec);

  /// Fault delta: move the resident to the degraded routing state described
  /// by `faults` (null or empty = healthy).  The decorated topology keeps
  /// the base's channel structure, so a dense resident is served IN PLACE,
  /// one frontier delta per destination column whose routing differs
  /// between the outgoing and incoming fault views:
  ///  * the frontier is every node whose route()/route_split() or
  ///    reachability differs between the views — found among the views'
  ///    topo::FaultedTopology::frontier_candidates, outside which both
  ///    route as the base does;
  ///  * a backward walk over the unchanged routing finds the nodes feeding
  ///    the frontier, and their sources' flow is carried forward to its
  ///    first hit on it — identical under both views;
  ///  * those flows (plus sources whose reachability flipped) are
  ///    propagated from the frontier downstream, negated under the OLD
  ///    routing and re-added under the NEW; demand accounting moves only for
  ///    sources whose distance or reachability changed.
  /// Two phases.  The incoming view's per-destination frontiers, then each
  /// affected column's frontier set, accounting terms, upstream walk and
  /// first-hit pass, run as fixed shards under TrafficBuildOptions::threads
  /// (util::run_shards), each column writing only its own plan; the plans
  /// are then applied to the flow state serially, in destination order,
  /// exactly as a one-thread column loop applies them — so the model is
  /// bit-identical for every thread count.  Under threads = 0 the shards
  /// run on util::shared_pool(), whose parallel_for waits for the whole
  /// pool, so never call this from one of that pool's own workers; the
  /// query engine's pool and user threads are fine.
  /// Never a rebuild.  The report counts affected columns in changed_pairs,
  /// two passes per column, and the nodes the passes walked in
  /// nodes_visited — the work, a fraction of the full columns.  Collapsed
  /// residents rebuild dense on entering a degraded state (faults void the
  /// symmetry) and may re-collapse on returning to healthy.  Demand toward
  /// destinations unreachable under the faults is dropped at the source and
  /// surfaces as GeneralModel::unroutable_fraction.  The fault set must have
  /// been built against this resident's topology; it is retained (shared)
  /// until the next retune_faults call.
  RetuneReport retune_faults(std::shared_ptr<const topo::FaultSet> faults);

  /// The active fault set (nullptr = healthy).
  const topo::FaultSet* faults() const;
  /// The topology routing currently runs against: the fault view when one
  /// is active, else the base topology passed at construction.
  const topo::Topology& routing_topology() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wormnet::core
