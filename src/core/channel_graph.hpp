// wormnet/core/channel_graph.hpp
//
// The channel-dependency representation behind the paper's general model
// (§2).  A network is reduced to classes of directed channels; channels in
// one class are statistically identical by symmetry (the butterfly fat-tree
// collapses to 2n classes), or classes may be individual physical channels
// when no symmetry exists (the mesh builder does this).
//
// Each class carries:
//  * `servers`       — m, the number of physical links arbitrated as one
//                      multi-server output bundle (the fat-tree's redundant
//                      parent pair has m = 2);
//  * `rate_per_link` — λ on each physical link AT UNIT INJECTION RATE
//                      (λ₀ = 1); the solver scales by the actual λ₀, which
//                      keeps saturation search from rebuilding the graph;
//  * `terminal`      — ejection channels whose service time is exactly the
//                      worm length s_f (the destination consumes one flit
//                      per cycle, the paper's assumption 4).
//
// The graph keeps every class's transitions — where messages leaving it
// continue — in one flat array, filled class by class, with each class's
// run (start index and count) beside it.  ChannelGraph::transitions(id)
// reads a class's run as a span; validate(), the reverse-topological order
// and core::SolvePlan read the same array as it is, so copying a graph
// copies three flat arrays rather than one vector per class.
//
// A transition out of class i into class j distinguishes two probabilities:
//  * `weight`     — the probability that a message on i continues into
//                   *some* channel of class j (weights sum to 1 for
//                   non-terminal classes); used to compose mean service time
//                   (Eq. 3);
//  * `route_prob` — R(i|j) of Eq. 10: the probability that the message
//                   heads to the *specific* output bundle it will traverse.
//                   In a collapsed-class graph these differ (a fat-tree
//                   down-continuation enters the down *class* w.p. 1 but a
//                   specific down link w.p. 1/4); in a per-physical-channel
//                   graph they coincide.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "queueing/channel_solver.hpp"
#include "util/assert.hpp"

namespace wormnet::core {

/// A continuation edge in the channel dependency graph.
struct Transition {
  int target = -1;        ///< ChannelClass id entered next
  double weight = 0.0;    ///< probability of entering class `target`
  double route_prob = 0.0;///< R(i|j) toward the specific output bundle
};

/// One class of statistically identical directed channels.  The queueing
/// attributes (servers, lanes, bandwidth, buffer depth, link latency, C_a²)
/// are the kernel's queueing::ChannelAttributes, so a class is passed to
/// queueing::ChannelSolver as is.
struct ChannelClass : queueing::ChannelAttributes {
  std::string label;          ///< human-readable tag for reports/tests
  double rate_per_link = 0.0; ///< λ per physical link at unit injection rate
  bool terminal = false;      ///< true for ejection channels (x̄ = s_f)
  /// Structural burstiness retention in [0, 1]: the rate-weighted mean,
  /// over the sub-streams merging into this channel, of each sub-stream's
  /// fraction of its source's original injection process.  QNA merge/split
  /// algebra makes the channel's SCV `ca2` affine in the injection SCV,
  ///     C_a²(ch) = 1 + (C_inj² − 1) · self_frac,
  /// so retuning a built model to a new arrival process is O(channels)
  /// (see core::build_traffic_model and GeneralModel::set_injection_ca2).
  /// 0 — full Poissonification — for hand-built graphs, which therefore
  /// ignore injection burstiness.
  double self_frac = 0.0;
};

/// The channel dependency graph the general model solves.
class ChannelGraph {
 public:
  /// Add a class; returns its id.
  int add_channel(ChannelClass c);

  /// Add a continuation from `from` to `to`.  `route_prob` defaults to
  /// `weight` (the per-physical-channel case).  Transitions are added class
  /// by class: once a class has continuations, none may be added to an
  /// earlier one.
  void add_transition(int from, int to, double weight, double route_prob = -1.0);

  /// Number of classes.
  int size() const { return static_cast<int>(classes_.size()); }
  /// Class by id.
  const ChannelClass& at(int id) const;
  /// Mutable class access (builders fix up rates after wiring).
  ChannelClass& mutable_at(int id);

  /// Class id's continuations, in the order they were added.
  std::span<const Transition> transitions(int id) const {
    WORMNET_EXPECTS(id >= 0 && id < size());
    const Run& r = runs_[static_cast<std::size_t>(id)];
    return {transitions_.data() + r.first, static_cast<std::size_t>(r.count)};
  }
  /// Every continuation, class by class: class 0's run, then class 1's, ...
  std::span<const Transition> transitions() const { return transitions_; }

  /// Check structural sanity: bandwidths positive, link latencies
  /// non-negative, buffers at least one flit, weights of every non-terminal
  /// class sum to 1 (±1e-9), terminal classes have no transitions.  Returns
  /// an explanation or empty string when valid.
  std::string validate() const;

  /// Reverse-topological order of the dependency graph (terminals first):
  /// the order in which the paper resolves service times "from the last
  /// channel backwards to the injecting channel".  Empty when the graph has
  /// a cycle (the solver then falls back to damped fixed-point iteration).
  /// Kahn's algorithm, O(classes + transitions); core::SolvePlan computes it
  /// once per model structure.
  std::vector<int> reverse_topological_order() const;

  /// True if the dependency graph is acyclic.
  bool acyclic() const { return !reverse_topological_order().empty() || size() == 0; }

 private:
  /// A class's run in transitions_: [first, first + count).
  struct Run {
    int first = 0;
    int count = 0;
  };

  std::vector<ChannelClass> classes_;
  std::vector<Run> runs_;                ///< parallel to classes_
  std::vector<Transition> transitions_;  ///< every run, in class order
  int filling_ = 0;                      ///< the last class given a transition
};

}  // namespace wormnet::core
