// wormnet/topo/fault.hpp
//
// Partial failure as a first-class topology input.  A FaultSet names failed
// elements — whole undirected links by one (node, port) endpoint, or whole
// switches (every link they terminate) — validated against one topology at
// construction so a bad spec throws std::invalid_argument at configuration
// time, never NaN mid-solve.  A FaultedTopology is a decorator that presents
// the SAME channel structure as its base (dead links still enumerate, so
// topo::ChannelTable and every dense per-channel array stay index-aligned
// between the healthy and faulted views — which is what lets the query
// engine serve an N−1 sweep as retunes instead of rebuilds) but routes
// around the failures:
//
//  * destinations whose base minimal routes never touch a failed element
//    keep the base routing function verbatim (bit-identical fast path);
//  * affected destinations route by survivor BFS distance at their FRONTIER
//    CANDIDATES — the nodes whose survivor distance changed, their
//    neighbours, and the endpoints of failed links.  There the candidates
//    are the in-service ports making strictly-minimal progress in the
//    survivor graph, restricted to one output bundle so the simulator's
//    single-bundle arbitration invariant holds (fat-tree worms detour over
//    the surviving parent link; mesh/hypercube worms take live minimal
//    detours).  Everywhere else the base routing is returned verbatim, so a
//    fault changes routing only inside the candidate set, for any base
//    topology — the locality the fault delta (core::RetunableTrafficModel::
//    retune_faults) re-propagates from.  On the shipped topologies, whose
//    base routes are the lowest-bundle minimal ports, this is the survivor
//    routing at every node;
//  * pairs with no surviving path are reported — reachable() answers false,
//    first_unreachable_pair() names a witness — instead of asserting inside
//    the flow-propagation DP.
//
// A failure breaks the symmetry WITHIN one degraded fabric, so a non-empty
// FaultedTopology declares none and the collapsed builder falls back to the
// dense path; an EMPTY fault set forwards the base symmetry hooks unchanged,
// keeping collapsed residents valid as the baseline of availability sweeps.
// ACROSS fabrics the symmetry survives when the base opts in with
// Topology::has_fault_symmetry: an automorphism that maps link e to link e'
// maps the view failing e onto the view failing e', so the two give the
// same answer.  The query engine uses this single-link orbit rule to answer
// an N−1 sweep with one retune per link orbit (harness/query_engine.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topo/channels.hpp"
#include "topo/topology.hpp"

namespace wormnet::topo {

/// A validated set of failed links / switches against one topology.
/// Immutable after the fail_* calls that build it; safe to share across
/// threads by const reference or shared_ptr.
class FaultSet {
 public:
  /// Binds the set to `topo` for validation; the topology must outlive the
  /// fault set.
  explicit FaultSet(const Topology& topo) : topo_(&topo) {}

  /// Fail the undirected link attached at (node, port) — both directed
  /// channels over it go out of service.  Throws std::invalid_argument on an
  /// out-of-range node or port, an unconnected port, a link terminating at a
  /// processor (injection/ejection channels cannot fail: a PE with no link
  /// is not a degraded network, it is a smaller one), or a link already
  /// failed (directly or via a failed switch).
  void fail_link(int node, int port);

  /// Fail a whole switch: every link it terminates goes out of service.
  /// Throws std::invalid_argument on an out-of-range or processor node, on a
  /// switch with a processor neighbor (that would sever injection/ejection
  /// channels — fail its up-links instead to model an isolated block), or
  /// when any of its links is already failed.
  void fail_switch(int node);

  /// No failures recorded.
  bool empty() const { return links_.empty(); }
  /// Failed undirected links, canonical (lower (node, port) endpoint), in
  /// the order they were recorded (switch failures expand to their links).
  const std::vector<std::pair<int, int>>& failed_links() const { return links_; }
  /// Failed switches, in the order they were recorded.
  const std::vector<int>& failed_switches() const { return switches_; }
  /// True when the undirected link at (node, port) is failed (either
  /// endpoint may be given; an unconnected port is never failed).
  /// Precondition: node and port are in range.  O(failed links).
  bool link_failed(int node, int port) const;
  /// The topology this set was validated against.
  const Topology& topology() const { return *topo_; }

  /// Order-insensitive content digest (two sets failing the same links hash
  /// equal regardless of recording order) — the query engine's variant key.
  std::uint64_t digest() const;

 private:
  std::pair<int, int> canonical(int node, int port) const;
  void check_link(int node, int port) const;

  const Topology* topo_;
  std::vector<std::pair<int, int>> links_;
  std::vector<int> switches_;
};

/// The degraded view of `base` under `faults`.  Same nodes, ports, links and
/// output bundles (stable channel structure); fault-aware route() /
/// distance() / reachable() / link_ok().  The view reads its base's
/// topo::ChannelTable — the one fabric index the builders and the simulator
/// read — plus one dead bit per channel.  Construction runs, per affected
/// destination, one backward BFS over that table's per-node channel ranges
/// followed by a decremental repair that re-derives only the distances the
/// failures lengthened, and keeps just the frontier's distances (every
/// other node kept its healthy one); the object is immutable and
/// thread-safe afterwards.  Base and faults must outlive the decorator.
class FaultedTopology final : public Topology {
 public:
  /// `threads` runs the per-destination frontiers as fixed shards under the
  /// core::TrafficBuildOptions::threads rule (util::run_shards): 0 = the
  /// shared pool above util::kSerialCutoffProcs processors, 1 = on the
  /// calling thread, n = a private pool.  Each destination's frontier lands
  /// in its own slot and the mean-distance correction is one serial loop
  /// after them, so the view is bit-identical for every value.  Under 0,
  /// never construct a view on one of the shared pool's own workers
  /// (util::shared_pool: parallel_for waits for the whole pool).
  FaultedTopology(const Topology& base, const FaultSet& faults,
                  unsigned threads = 0);

  std::string name() const override;
  int num_nodes() const override { return base_->num_nodes(); }
  int num_processors() const override { return base_->num_processors(); }
  NodeKind kind(int node) const override { return base_->kind(node); }
  int num_ports(int node) const override { return base_->num_ports(node); }
  int neighbor(int node, int port) const override {
    return base_->neighbor(node, port);
  }
  int neighbor_port(int node, int port) const override {
    return base_->neighbor_port(node, port);
  }
  std::vector<PortBundle> output_bundles(int node) const override {
    return base_->output_bundles(node);
  }

  /// Precondition: node and port are in range.
  bool link_ok(int node, int port) const override {
    const int ch = table_.from(node, port);
    return ch == kNoChannel || dead_[static_cast<std::size_t>(ch)] == 0;
  }
  bool reachable(int src_proc, int dst_proc) const override;

  RouteOptions route(int node, int dest) const override;
  std::array<double, 4> route_split(int node, int dest,
                                    const RouteOptions& opts) const override;
  /// Survivor-graph distance.  Precondition: reachable(src, dst).
  int distance(int src_proc, int dst_proc) const override;
  /// Mean survivor distance over REACHABLE ordered pairs of distinct
  /// processors (unreachable pairs carry no traffic, so they are excluded
  /// rather than poisoning the mean with infinity).
  double mean_distance() const override;

  // Link attributes pass through: a dead link keeps its nameplate numbers —
  // it simply carries no flow.
  int lanes(int node, int port) const override { return base_->lanes(node, port); }
  double bandwidth(int node, int port) const override {
    return base_->bandwidth(node, port);
  }
  double link_latency(int node, int port) const override {
    return base_->link_latency(node, port);
  }
  int buffer_depth(int node, int port) const override {
    return base_->buffer_depth(node, port);
  }

  // Symmetry: forwarded only for an empty fault set (see file comment).
  bool has_symmetry(const std::vector<int>& pinned_procs) const override {
    return faults_->empty() && base_->has_symmetry(pinned_procs);
  }
  std::uint64_t proc_symmetry_key(int proc,
                                  const std::vector<int>& pins) const override {
    return base_->proc_symmetry_key(proc, pins);
  }
  std::uint64_t channel_symmetry_key(int node, int port,
                                     const std::vector<int>& pins) const override {
    return base_->channel_symmetry_key(node, port, pins);
  }

  const Topology& base() const { return *base_; }
  const FaultSet& faults() const { return *faults_; }

  /// Destination processors whose routing differs from the base (some base
  /// minimal route crossed a failed element).  The query engine retunes
  /// exactly these columns.
  const std::vector<int>& affected_destinations() const { return affected_; }
  /// True when routing toward `dest` differs from the base topology.
  bool destination_affected(int dest) const {
    return affected_index_[static_cast<std::size_t>(dest)] >= 0;
  }
  /// A witness (src, dst) pair with no surviving path, if any.
  std::optional<std::pair<int, int>> first_unreachable_pair() const;
  /// Fraction of ordered distinct processor pairs with no surviving path.
  double unreachable_pair_fraction() const;

  /// The nodes where routing toward `dest` may differ from the base, in
  /// ascending order: every node whose survivor distance to `dest` changed
  /// (unreachable ones included), their neighbours, and both endpoints of
  /// every failed link.  Empty for unaffected destinations.  route() and
  /// route_split() return the base answer at every other node.
  const std::vector<int>& frontier_candidates(int dest) const;
  /// True when a worm standing at `node` can still reach processor `dest`
  /// over in-service links (always true for unaffected destinations).
  /// route(node, dest) requires it.
  bool can_reach(int node, int dest) const;

 private:
  /// One affected destination's routing change: its frontier candidates
  /// and the survivor distance of every candidate and candidate neighbour
  /// (-1: unreachable) — the only distances route() reads.  Every node
  /// outside `dist` kept its healthy distance (the changed ones are
  /// candidates), so nothing else is stored.
  struct Frontier {
    std::vector<int> candidates;            // ascending
    std::vector<std::pair<int, int>> dist;  // (node, distance), ascending
  };
  const Frontier& frontier(int dest) const {
    return frontiers_[static_cast<std::size_t>(
        affected_index_[static_cast<std::size_t>(dest)])];
  }
  /// The stored survivor distance of `node` toward affected `dest`; nullptr
  /// when the node is outside the frontier's table (distance unchanged).
  const int* frontier_distance(int node, int dest) const;
  /// True when `node` is a frontier candidate of affected destination `dest`.
  bool frontier_candidate(int node, int dest) const;
  /// Scratch of build_frontier, reused across one shard's destinations.
  struct BfsScratch {
    std::vector<int> dist;   ///< healthy distances toward `dest` between calls
    int dest = -1;           ///< whose distances `dist` holds; -1: none yet
    std::vector<int> queue;
    std::vector<char> mark;  ///< all 0 between calls
  };
  /// Survivor BFS toward `dest` into `f`.
  void build_frontier(int dest, Frontier& f, BfsScratch& s) const;

  const Topology* base_;
  const FaultSet* faults_;
  ChannelTable table_;               // the base's channels and bundles
  std::vector<char> dead_;           // per channel: 1 when its link failed
  std::vector<int> affected_;        // affected destination processors
  std::vector<int> affected_index_;  // proc -> index into frontiers_, -1
  std::vector<Frontier> frontiers_;
  std::vector<int> failed_ends_;  // both endpoints of every failed link
  long unreachable_pairs_ = 0;
  double mean_distance_ = 0.0;
};

}  // namespace wormnet::topo
