// wormnet/topo/topology.hpp
//
// The topology abstraction shared by the flit-level simulator and the
// analytical channel-graph builders.  Following the paper's general routing
// model (its Fig. 1), a network consists of processing elements (PEs) and
// routing elements (REs):
//
//  * indirect networks (the butterfly fat-tree) place PEs at the leaves and
//    REs at internal switches;
//  * direct networks (hypercube, mesh) pair every RE with a PE through an
//    injection/ejection channel, which we represent as an explicit PE node
//    with a single port.
//
// Node ids are dense integers: processors first (0 .. P-1), then switches.
// Every undirected link is a (node, port) <-> (node, port) pairing; directed
// channels over those links are enumerated by ChannelTable (channels.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::topo {

/// Sentinel for "no node" (unconnected port).
inline constexpr int kNoNode = -1;

/// Whether a node is a processing element or a routing element.
enum class NodeKind { Processor, Switch };

/// Candidate output ports for a worm's next hop.  The widest choice in this
/// repository is the fat-tree's up-route, one candidate per parent link;
/// the capacity of 4 is its largest parent count.
class RouteOptions {
 public:
  /// Append a candidate port.
  void add(int port) {
    WORMNET_EXPECTS(count_ < static_cast<int>(ports_.size()));
    ports_[static_cast<std::size_t>(count_++)] = port;
  }
  /// Number of candidates (0 means: consume here, the node is the target PE).
  int size() const { return count_; }
  /// i-th candidate port.
  int operator[](int i) const {
    WORMNET_EXPECTS(i >= 0 && i < count_);
    return ports_[static_cast<std::size_t>(i)];
  }
  /// True if `port` is among the candidates.
  bool contains(int port) const {
    for (int i = 0; i < count_; ++i)
      if (ports_[static_cast<std::size_t>(i)] == port) return true;
    return false;
  }

 private:
  std::array<int, 4> ports_{};
  int count_ = 0;
};

/// A group of output ports at one node that the router arbitrates as a single
/// multi-server channel (the fat-tree's m parent ports form one bundle of
/// size m; everything else is a singleton bundle).
struct PortBundle {
  std::array<int, 4> ports{};
  int count = 0;

  void add(int port) {
    WORMNET_EXPECTS(count < static_cast<int>(ports.size()));
    ports[static_cast<std::size_t>(count++)] = port;
  }
  int operator[](int i) const {
    WORMNET_EXPECTS(i >= 0 && i < count);
    return ports[static_cast<std::size_t>(i)];
  }
};

/// One node orbit of the route graph toward a destination: the unit of a
/// quotient build (Topology::route_orbits).
struct RouteOrbit {
  /// One route candidate of the representative: its output port, its
  /// route_split probability and the index of the orbit it leads into.
  struct Candidate {
    int port = -1;
    double split = 0.0;
    int target = -1;
  };
  int rep = kNoNode;  ///< representative member node
  long size = 0;      ///< number of member nodes
  std::array<Candidate, 4> candidates{};
  int count = 0;  ///< route(rep, dest).size(); 0 only for dest's own orbit
};

/// Abstract interconnection topology with minimal-path routing.
///
/// Invariants checked by graph_checks.hpp's verify_topology():
///  * neighbor()/neighbor_port() are mutually consistent (links are paired);
///  * route() only returns ports whose links make forward progress
///    (distance strictly decreases along every candidate);
///  * distance() agrees with BFS shortest paths counted in channels.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Human-readable name, e.g. "butterfly-fat-tree(n=3, N=64)".
  virtual std::string name() const = 0;

  /// Total node count (processors + switches).
  virtual int num_nodes() const = 0;

  /// Number of processing elements; processor ids are [0, num_processors()).
  virtual int num_processors() const = 0;

  /// Kind of a node.
  virtual NodeKind kind(int node) const = 0;

  /// Number of ports on the node (ports are [0, num_ports(node))); some may
  /// be unconnected (neighbor() == kNoNode).
  virtual int num_ports(int node) const = 0;

  /// Node on the far side of (node, port); kNoNode if unconnected.
  virtual int neighbor(int node, int port) const = 0;

  /// The port index on neighbor(node, port) that connects back to `node`.
  /// Undefined when neighbor() == kNoNode.
  virtual int neighbor_port(int node, int port) const = 0;

  /// Minimal-route candidates for a worm standing at `node` and destined for
  /// processor `dest`.  An empty result means node == dest (consume).
  /// For a processor node this is its single injection port.
  virtual RouteOptions route(int node, int dest) const = 0;

  /// True when the link attached at (node, port) is in service.  The healthy
  /// default is always true; FaultedTopology overrides it to report failed
  /// links.  Symmetric per undirected link: link_ok(n, p) equals
  /// link_ok(neighbor(n, p), neighbor_port(n, p)).  graph_checks' BFS and
  /// connectivity checks traverse only in-service links, so one override
  /// makes every structural utility fault-aware.
  virtual bool link_ok(int node, int port) const {
    static_cast<void>(node);
    static_cast<void>(port);
    return true;
  }

  /// True when a worm injected at processor `src_proc` can reach processor
  /// `dst_proc` over in-service links.  Healthy topologies are connected by
  /// construction (default true); FaultedTopology answers from its survivor
  /// reachability tables.  The traffic-model builders and the simulator's
  /// destination samplers consult this to degrade gracefully — unroutable
  /// demand is counted, not crashed on.
  virtual bool reachable(int src_proc, int dst_proc) const {
    static_cast<void>(src_proc);
    static_cast<void>(dst_proc);
    return true;
  }

  /// Shortest path length between two processors, counted in directed
  /// channels traversed and INCLUDING the injection and ejection channels
  /// (this is the D of the paper's Eq. 1: zero-load latency is s_f + D - 1).
  /// distance(p, p) == 0 by convention.
  virtual int distance(int src_proc, int dst_proc) const = 0;

  /// Mean of distance(s, d) over ordered pairs of distinct processors with
  /// uniform weights — the D̄ of the paper's Eq. 2.  Closed-form per topology.
  virtual double mean_distance() const = 0;

  /// Output-port bundles at a node for multi-server arbitration; the default
  /// puts every connected port in its own singleton bundle.
  virtual std::vector<PortBundle> output_bundles(int node) const;

  /// Deterministic split probabilities over the route(node, dest) candidates
  /// `opts`, used by the analytical flow enumeration (core::build_traffic_model):
  /// entry i is the probability a worm standing at `node` takes candidate i.
  /// The default mirrors the simulator's adaptive rule — uniform over the
  /// candidates (the fat-tree's randomized up-phase maps to an equal split);
  /// topologies with a biased selection policy override this.
  /// Precondition: opts.size() >= 1.  Entries sum to 1.
  virtual std::array<double, 4> route_split(int node, int dest,
                                            const RouteOptions& opts) const;

  /// Virtual-channel (lane) multiplicity of the directed channel leaving
  /// `node` through `port`: the number of independent one-flit latches
  /// multiplexed over that physical link.  Lanes share the link's one
  /// flit/cycle of bandwidth; a worm holds exactly one lane per channel of
  /// its path.  The default returns the uniform multiplicity set by
  /// set_uniform_lanes() (1 unless changed — the paper's single-lane
  /// network); topologies or experiments with heterogeneous per-channel
  /// buffering override this.
  virtual int lanes(int node, int port) const {
    static_cast<void>(node);
    static_cast<void>(port);
    return uniform_lanes_;
  }

  /// Set the lane multiplicity returned by the default lanes() for every
  /// channel.  Both the simulator (sim::SimNetwork) and the analytical
  /// builder (core::build_traffic_model) read lanes through the topology,
  /// so one call configures model and simulation consistently.  Call before
  /// constructing a SimNetwork or building a model — those snapshot the
  /// lane counts.
  void set_uniform_lanes(int lanes) {
    WORMNET_EXPECTS(lanes >= 1);
    uniform_lanes_ = lanes;
  }

  /// The uniform lane multiplicity (what the default lanes() returns).
  int uniform_lanes() const { return uniform_lanes_; }

  // -- Per-channel link attributes (heterogeneous fabrics) -------------------
  //
  // Real fabrics mix link speeds per tier (tapered/oversubscribed fat-trees)
  // and have finite per-lane flit buffers whose backpressure moves the
  // saturation point.  Each attribute has a uniform-default fast path (the
  // paper's network: bandwidth 1 flit/cycle, zero extra link latency,
  // unbounded buffers) and a per-(node, port) virtual that heterogeneous
  // topologies override.  Both the simulator (sim::SimNetwork) and the
  // analytical builder (core::build_traffic_model) read attributes through
  // the topology, so one description configures model and simulation
  // consistently; both snapshot at construction/build time.

  /// Bandwidth of the directed channel leaving `node` through `port`, in
  /// flits per cycle (a service-time SCALE: a worm of s_f flits occupies the
  /// channel for s_f / bandwidth cycles).  The simulator additionally
  /// requires 1/bandwidth to be a whole number of cycles.
  virtual double bandwidth(int node, int port) const {
    static_cast<void>(node);
    static_cast<void>(port);
    return uniform_bandwidth_;
  }

  /// Extra per-hop pipeline latency of the channel leaving `node` through
  /// `port`, in cycles, on top of the one cycle a flit hop already costs.
  /// 0 is the paper's network.
  virtual double link_latency(int node, int port) const {
    static_cast<void>(node);
    static_cast<void>(port);
    return uniform_link_latency_;
  }

  /// Per-lane flit-buffer depth of the channel leaving `node` through
  /// `port`: the number of flits a lane can accept back-to-back at the
  /// link's native rate before credit backpressure inserts a stall cycle.
  /// util::kInfiniteBufferDepth (the default) is the paper's unbounded
  /// buffering.
  virtual int buffer_depth(int node, int port) const {
    static_cast<void>(node);
    static_cast<void>(port);
    return uniform_buffer_depth_;
  }

  /// Set the bandwidth returned by the default bandwidth() for every
  /// channel.  Throws std::invalid_argument on bandwidth <= 0 (fail fast at
  /// config time, not NaN mid-solve).
  void set_uniform_bandwidth(double bw) {
    if (!(bw > 0.0))
      throw std::invalid_argument("topology: bandwidth must be > 0 flits/cycle");
    uniform_bandwidth_ = bw;
  }

  /// Set the link latency returned by the default link_latency() for every
  /// channel.  Throws std::invalid_argument on a negative latency.
  void set_uniform_link_latency(double cycles) {
    if (!(cycles >= 0.0))
      throw std::invalid_argument("topology: link latency must be >= 0 cycles");
    uniform_link_latency_ = cycles;
  }

  /// Set the buffer depth returned by the default buffer_depth() for every
  /// channel.  Throws std::invalid_argument on depth < 1 flit.
  void set_uniform_buffer_depth(int flits) {
    if (flits < 1)
      throw std::invalid_argument("topology: buffer depth must be >= 1 flit");
    uniform_buffer_depth_ = flits;
  }

  /// The uniform attribute values (what the default virtuals return).
  double uniform_bandwidth() const { return uniform_bandwidth_; }
  double uniform_link_latency() const { return uniform_link_latency_; }
  int uniform_buffer_depth() const { return uniform_buffer_depth_; }

  // -- Symmetry hooks (the channel-class collapse, core::build_traffic_model
  //    collapsed mode) ------------------------------------------------------
  //
  // A topology that knows a routing-preserving symmetry group can declare its
  // orbits through key functions: two processors (channels) with equal keys
  // are in one orbit of a group G of automorphisms that (a) commute with
  // route()/route_split() and (b) fix every processor in `pinned_procs`
  // pointwise.  The collapsed builder then propagates flow for ONE
  // destination per processor orbit and scales by the orbit size — exact
  // whenever the traffic pattern is invariant under every automorphism
  // fixing the pins (uniform pins nothing; a hotspot pins its target).
  //
  // Contract details the builder relies on:
  //  * keys are arbitrary uint64 values — only equality matters;
  //  * channel keys must be CONSTANT ON ORBITS AND SEPARATE THEM (a finer-
  //    than-orbit partition is NOT safe: the representative-destination sums
  //    are only exact on group-closed classes);
  //  * every channel of one class shares bundle size, lane count,
  //    terminal-ness and link attributes (bandwidth / link latency / buffer
  //    depth) — topology_symmetry() checks them, and refuses (the builder
  //    falls back to dense) when declared classes mix link attributes.
  // The defaults declare no symmetry (singleton orbits), which makes the
  // collapsed builder fall back to the dense per-channel path.  The keys
  // name the classes and orbits of every collapsed build; a topology that
  // also answers route_orbits() below only moves its flow passes onto the
  // orbit graph.

  /// True when this topology can supply symmetry keys for the given pinned
  /// processors.  The default knows no symmetry.
  virtual bool has_symmetry(const std::vector<int>& pinned_procs) const {
    static_cast<void>(pinned_procs);
    return false;
  }

  /// Orbit key of processor `proc` under the automorphisms fixing the pins.
  /// Only meaningful when has_symmetry(pinned_procs) is true.
  virtual std::uint64_t proc_symmetry_key(int proc,
                                          const std::vector<int>& pinned_procs) const {
    static_cast<void>(pinned_procs);
    return static_cast<std::uint64_t>(proc);
  }

  /// Orbit key of the directed channel leaving `node` through `port` under
  /// the automorphisms fixing the pins.  Only meaningful when
  /// has_symmetry(pinned_procs) is true.
  virtual std::uint64_t channel_symmetry_key(
      int node, int port, const std::vector<int>& pinned_procs) const {
    static_cast<void>(pinned_procs);
    return static_cast<std::uint64_t>(node) * 64u + static_cast<std::uint64_t>(port);
  }

  /// True when the symmetry declared for `pinned_procs` also commutes with
  /// FAULT routing, so that failing one link gives the same answer as
  /// failing any link in its orbit.  The QueryEngine relies on this when it
  /// answers a single-link fault query with its orbit representative's
  /// retune.  Besides has_symmetry(pinned_procs), this needs every
  /// automorphism to map FaultedTopology's survivor routing onto itself.
  /// That routing keeps the in-service minimal ports of one output bundle,
  /// and it breaks ties by port order, so the automorphisms must respect
  /// port order within those choices.  Mesh is the counterexample.  Its
  /// reflections swap the + and − ports of an axis, and a detour around a
  /// failed link prefers the lower port.  On Mesh(4,2) under uniform
  /// traffic at a quarter of saturation, two links of one reflection orbit
  /// differ by 0.05 cycles in degraded latency.  The default declares
  /// nothing, which leaves every link its own orbit.
  virtual bool has_fault_symmetry(const std::vector<int>& pinned_procs) const {
    static_cast<void>(pinned_procs);
    return false;
  }

  /// Quotient hook: the node orbits of the route graph toward processor
  /// `dest` under the automorphisms that fix `dest` and every pinned
  /// processor, so a collapsed build can run its flow pass on the orbits
  /// instead of on the fabric.  The build's classes and destination orbits
  /// come from the symmetry keys (topo::topology_symmetry) either way; the
  /// hook names only the node orbits each pass walks.  Fills `out` and
  /// returns true, or returns false (the default) to leave the passes on
  /// the fabric, node by node.
  ///
  /// Contract, on top of has_symmetry(pinned_procs), which must hold:
  ///  * the orbits partition every node, and each is an orbit of a group of
  ///    automorphisms that commute with route()/route_split(), preserve
  ///    output bundles and link attributes, keep channel_symmetry_key(·,
  ///    pinned_procs) and fix dest and the pins.  Such a partition is
  ///    routing-equitable: every member of an orbit routes toward dest into
  ///    the same channel classes and target orbits with the same splits;
  ///  * `size` is the member count.  Every member of an orbit carries the
  ///    same flow, so size × the representative's flow is the orbit total;
  ///  * `candidates` are route(rep, dest) in order with route_split(rep,
  ///    dest, ·), each naming the orbit of neighbor(rep, port);
  ///  * orbits are listed in topological order of the route graph: every
  ///    target comes after its source (decreasing distance to dest does it).
  /// Any topology may leave the hook out; its collapsed builds are then
  /// node-built, as exact and only slower.  Leave it out where naming the
  /// orbits would walk the fabric anyway (the node-built path does that
  /// already), and never forward it from a decorator that may change
  /// routing (FaultedTopology).
  virtual bool route_orbits(const std::vector<int>& pinned_procs, int dest,
                            std::vector<RouteOrbit>& out) const {
    static_cast<void>(pinned_procs);
    static_cast<void>(dest);
    out.clear();
    return false;
  }

  /// Convenience: true for processor nodes.
  bool is_processor(int node) const { return kind(node) == NodeKind::Processor; }

 private:
  int uniform_lanes_ = 1;
  double uniform_bandwidth_ = 1.0;
  double uniform_link_latency_ = 0.0;
  int uniform_buffer_depth_ = util::kInfiniteBufferDepth;
};

}  // namespace wormnet::topo
