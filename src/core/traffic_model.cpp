#include "core/traffic_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/channels.hpp"
#include "topo/symmetry.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::core {

namespace {

/// CollapseMode::Auto falls back to the dense path when the declared quotient
/// has more classes than this (the O(classes²) transition accumulator stops
/// being "flat memory" long before it stops being correct).
constexpr int kMaxSymmetryClasses = 2048;

/// Cached routing of one node toward the pass destination: candidate ports,
/// their outgoing channel ids and far-end nodes, and the route_split
/// probabilities.  Filled once per visited node during the DFS and reused by
/// the propagation sweep, halving the virtual route()/route_split() calls —
/// the builder's hottest non-arithmetic cost.
struct NodeRoutes {
  int count = 0;
  std::array<int, 4> port{};
  std::array<int, 4> channel{};
  std::array<int, 4> neighbor{};
  std::array<double, 4> split{};
};

/// One merged flow fragment entering a node: where it came from, its rate,
/// and its QNA "self-mass" — the Σ flow_i · frac_i over the source
/// sub-streams it merges, where frac_i is sub-stream i's cumulative split
/// fraction of its source's original injection process.  Splitting with
/// probability p maps (flow, self) → (flow·p, self·p²) — each sub-stream's
/// flow AND frac both scale by p — and merging adds componentwise, so the
/// self-mass is exactly as shard-additive as the rate.
struct FlowFragment {
  int in_ch = 0;      ///< incoming channel; kNoChannel marks injections
  double flow = 0.0;  ///< message rate at unit injection
  double self = 0.0;  ///< Σ flow·frac of the merged source sub-streams
};

/// One seed of a destination column: `flow` carrying QNA self-mass `self`
/// (see FlowFragment) enters the route DAG at `node` over `in_ch`.  A source
/// injection enters at its processor with in_ch = kNoChannel; the fault
/// delta also seeds mid-DAG, at frontier nodes, with the channel the
/// fragment arrived on.  Signed in the delta passes.
struct Seed {
  int node = 0;
  int in_ch = topo::kNoChannel;
  double flow = 0.0;
  double self = 0.0;
};

/// Scratch state for one destination's column pass, reused across columns
/// so each worker allocates O(nodes + channels) once.
struct DestinationPass {
  struct Frame {
    int node;
    int next_candidate;
  };
  /// Per node: flow fragments accumulated this pass.
  std::vector<std::vector<FlowFragment>> in_flows;
  std::vector<char> visited;
  std::vector<int> order;           ///< DFS postorder of the route DAG toward dst
  std::vector<NodeRoutes> routes;   ///< valid for visited nodes only
  std::vector<Frame> stack;         ///< DFS stack, empty between calls

  explicit DestinationPass(int num_nodes)
      : in_flows(static_cast<std::size_t>(num_nodes)),
        visited(static_cast<std::size_t>(num_nodes), 0),
        routes(static_cast<std::size_t>(num_nodes)) {}

  void reset() {
    for (int node : order) {
      in_flows[static_cast<std::size_t>(node)].clear();
      visited[static_cast<std::size_t>(node)] = 0;
    }
    order.clear();
  }
};

/// Per-channel flow totals of a set of destination columns, plus the demand
/// accounting of their seeds.  Each dense shard owns one (the reduction adds
/// them back together in fixed shard order so the result cannot depend on
/// scheduling); a dense resident keeps one as the state its deltas update.
struct ColumnSums {
  std::vector<double> rate;    ///< per channel
  std::vector<double> self;    ///< per channel, QNA self-mass (see FlowFragment)
  std::vector<double> onward;  ///< flat (channel, continuation port) flows
  double weighted_distance = 0.0;
  double total_weight = 0.0;       ///< Σ pair weights seen (all demand)
  double unroutable_weight = 0.0;  ///< Σ pair weights with no surviving path

  void reset(int num_channels, int num_onward) {
    rate.assign(static_cast<std::size_t>(num_channels), 0.0);
    self.assign(static_cast<std::size_t>(num_channels), 0.0);
    onward.assign(static_cast<std::size_t>(num_onward), 0.0);
    weighted_distance = 0.0;
    total_weight = 0.0;
    unroutable_weight = 0.0;
  }

  void add(const ColumnSums& o) {
    for (std::size_t i = 0; i < rate.size(); ++i) rate[i] += o.rate[i];
    for (std::size_t i = 0; i < self.size(); ++i) self[i] += o.self[i];
    for (std::size_t i = 0; i < onward.size(); ++i) onward[i] += o.onward[i];
    weighted_distance += o.weighted_distance;
    total_weight += o.total_weight;
    unroutable_weight += o.unroutable_weight;
  }
};

/// Column sinks also bound the region a pass walks: enters(node) admits flow
/// into a node, holds(node) keeps a node's in-flows (reported through
/// hold()) instead of splitting them.  The accumulating sinks walk the whole
/// route DAG; only the fault delta's first-hit pass (FrontierSink) bounds it.
struct WholeDag {
  static bool enters(int /*node*/) { return true; }
  static bool holds(int /*node*/) { return false; }
  static void hold(int /*node*/, const FlowFragment& /*in*/) {}
};

/// The per-physical-channel column sink: contributions land in `sums`,
/// continuation flows at their flat (channel, port) slot.
struct DenseSink : WholeDag {
  ColumnSums& sums;
  const std::vector<int>& onward_off;

  DenseSink(ColumnSums& s, const std::vector<int>& off)
      : sums(s), onward_off(off) {}

  void rate(int ch, double flow, double self) {
    sums.rate[static_cast<std::size_t>(ch)] += flow;
    sums.self[static_cast<std::size_t>(ch)] += self;
  }
  void onward(int in_ch, int /*out_ch*/, int port, double flow) {
    sums.onward[static_cast<std::size_t>(
        onward_off[static_cast<std::size_t>(in_ch)] + port)] += flow;
  }
};

/// Iterative DFS from `start` following route(node, dst) edges into nodes
/// the sink admits, appending the postorder to `pass.order` and caching each
/// visited node's routing in `pass.routes` (held nodes are leaves).  Reverse
/// postorder is a topological order of the route DAG (candidates strictly
/// decrease the distance to dst, so the graph is acyclic).
template <typename Sink>
void dfs_route_dag(const topo::Topology& topo, const topo::ChannelTable& ct,
                   int start, int dst, DestinationPass& pass,
                   const Sink& sink) {
  if (pass.visited[static_cast<std::size_t>(start)]) return;
  const auto visit = [&](int node) {
    pass.visited[static_cast<std::size_t>(node)] = 1;
    NodeRoutes& nr = pass.routes[static_cast<std::size_t>(node)];
    if (sink.holds(node)) {
      nr.count = 0;
      return;
    }
    const topo::RouteOptions opts = topo.route(node, dst);
    nr.count = opts.size();
    if (nr.count == 0) return;  // dst itself: consume, nothing to cache
    const std::array<double, 4> split = topo.route_split(node, dst, opts);
    for (int i = 0; i < nr.count; ++i) {
      const int port = opts[i];
      nr.port[static_cast<std::size_t>(i)] = port;
      const int ch = ct.from(node, port);
      nr.channel[static_cast<std::size_t>(i)] = ch;
      nr.neighbor[static_cast<std::size_t>(i)] =
          ch == topo::kNoChannel ? topo::kNoNode : ct.at(ch).dst_node;
      nr.split[static_cast<std::size_t>(i)] = split[static_cast<std::size_t>(i)];
      WORMNET_ENSURES(nr.neighbor[static_cast<std::size_t>(i)] != topo::kNoNode);
    }
  };
  pass.stack.push_back({start, 0});
  visit(start);
  while (!pass.stack.empty()) {
    DestinationPass::Frame& top = pass.stack.back();
    const NodeRoutes& nr = pass.routes[static_cast<std::size_t>(top.node)];
    if (top.next_candidate >= nr.count) {
      pass.order.push_back(top.node);
      pass.stack.pop_back();
      continue;
    }
    const int nbr = nr.neighbor[static_cast<std::size_t>(top.next_candidate++)];
    if (pass.visited[static_cast<std::size_t>(nbr)] || !sink.enters(nbr))
      continue;
    visit(nbr);
    pass.stack.push_back({nbr, 0});
  }
}

/// The seed of source `s` toward `d` at unit factor: weight w injects w, and
/// the (s → d) sub-stream is the destination split of s's injection process,
/// fraction frac = w / injection_weight of it, hence self = w·frac.  The
/// fault delta seeds its upstream sources through here too.
Seed source_seed(const traffic::TrafficSpec& spec, int s, double w,
                 int procs) {
  const double frac = w / spec.injection_weight(s, procs);
  return {s, topo::kNoChannel, w, w * frac};
}

/// The one seed rule, per (s, d) pair standing for `factor` such pairs:
/// weight w injects factor·w (see source_seed), and its demand is counted
/// in `sums`.  Demand toward an unreachable destination (faulted fabrics) is
/// dropped at the source — the model degrades instead of asserting.  Returns
/// the seed, or nothing when the pair carries no weight or no route.
///
/// `factor` is 1 for the dense build, the destination-orbit size for the
/// node-built collapsed build, and that times the source-orbit size for
/// the quotient build; 1 is exact, so dense columns reproduce the unscaled
/// products.
std::optional<Seed> seed_pair(const topo::Topology& view,
                              const traffic::TrafficSpec& spec, int s, int d,
                              double factor, ColumnSums& sums) {
  const int procs = view.num_processors();
  const double w = spec.pair_weight(s, d, procs);
  if (w <= 0.0) return std::nullopt;
  sums.total_weight += factor * w;
  if (!view.reachable(s, d)) {
    sums.unroutable_weight += factor * w;
    return std::nullopt;
  }
  sums.weighted_distance += factor * w * view.distance(s, d);
  const Seed unit = source_seed(spec, s, w, procs);
  return Seed{s, topo::kNoChannel, factor * unit.flow, factor * unit.self};
}

/// Fill `seeds` with destination d's column under seed_pair.
/// `dest_sources` (see propagate_dense) yields the same seeds in the same
/// order as the full scan — which skips w <= 0 anyway — without its O(N)
/// cost per destination.
void seed_column(const topo::Topology& view, const traffic::TrafficSpec& spec,
                 int d, double factor,
                 const std::vector<std::vector<int>>& dest_sources,
                 ColumnSums& sums, std::vector<Seed>& seeds) {
  const int procs = view.num_processors();
  seeds.clear();
  const auto seed = [&](int s) {
    if (const auto sd = seed_pair(view, spec, s, d, factor, sums))
      seeds.push_back(*sd);
  };
  if (!dest_sources.empty()) {
    for (int s : dest_sources[static_cast<std::size_t>(d)]) seed(s);
  } else {
    for (int s = 0; s < procs; ++s) {
      if (s != d) seed(s);
    }
  }
}

/// The column pass: the flow DP of destination `d` over `view`'s route DAG.
/// Every consumer — the dense shard, the collapsed orbit builder, the
/// pattern delta and the fault delta — runs its columns through here; they
/// differ only in their seeds and their sink.  DFSes the DAG from each seed
/// (a source, or a mid-DAG frontier node), then walks the postorder in
/// reverse (topological order: a node's in-flows are complete before it
/// splits them across its route candidates) and reports every accumulation
/// to the inlined sink, in a fixed order:
///   sink.rate(ch, flow, self)               — per-channel rate / self-mass
///   sink.onward(in_ch, out_ch, port, flow)  — per-(channel, continuation)
///   sink.hold(node, fragment)               — in-flows of a held node
/// Flow only enters nodes the sink admits (see WholeDag).  Returns the
/// number of nodes walked and leaves `pass` reset for the next column.
template <typename Sink>
long propagate_column(const topo::Topology& view, const topo::ChannelTable& ct,
                      int d, const std::vector<Seed>& seeds,
                      DestinationPass& pass, Sink& sink) {
  for (const Seed& s : seeds) {
    pass.in_flows[static_cast<std::size_t>(s.node)].push_back(
        {s.in_ch, s.flow, s.self});
    dfs_route_dag(view, ct, s.node, d, pass, sink);
  }
  for (auto it = pass.order.rbegin(); it != pass.order.rend(); ++it) {
    const int node = *it;
    const auto& inputs = pass.in_flows[static_cast<std::size_t>(node)];
    if (inputs.empty()) continue;  // d itself, or an unfed DFS visit
    if (sink.holds(node)) {
      for (const FlowFragment& in : inputs) sink.hold(node, in);
      continue;
    }
    WORMNET_ENSURES(node != d);    // flows into d are consumed, never split
    const NodeRoutes& nr = pass.routes[static_cast<std::size_t>(node)];
    // A node holding flow toward d with no route candidates would silently
    // drop Kirchhoff mass.  Unroutable demand is filtered at the SEEDS
    // (Topology::reachable), so reaching this state means the topology is
    // malformed — name the node instead of corrupting the model.
    if (nr.count == 0)
      throw std::runtime_error(
          "build_traffic_model: flow toward destination " + std::to_string(d) +
          " dead-ends at node " + std::to_string(node) +
          " (no route candidates; disconnected or malformed topology — run "
          "topo::check_connectivity)");
    double total = 0.0;
    double total_self = 0.0;
    for (const FlowFragment& in : inputs) {
      total += in.flow;
      total_self += in.self;
    }
    for (int i = 0; i < nr.count; ++i) {
      const double p = nr.split[static_cast<std::size_t>(i)];
      if (p <= 0.0) continue;
      const int port = nr.port[static_cast<std::size_t>(i)];
      const int ch = nr.channel[static_cast<std::size_t>(i)];
      WORMNET_ENSURES(ch != topo::kNoChannel);
      sink.rate(ch, total * p, total_self * p * p);
      for (const FlowFragment& in : inputs) {
        if (in.in_ch == topo::kNoChannel) continue;
        sink.onward(in.in_ch, ch, port, in.flow * p);
      }
      const int nbr = nr.neighbor[static_cast<std::size_t>(i)];
      if (nbr == d) continue;  // ejection channel: consumed at the destination
      if (!sink.enters(nbr)) continue;
      pass.in_flows[static_cast<std::size_t>(nbr)].push_back(
          {ch, total * p, total_self * p * p});
    }
  }
  const long walked = static_cast<long>(pass.order.size());
  pass.reset();
  return walked;
}

/// Add the queueing station of channel `dc` — or of the class it stands
/// for, `members` channels carrying `rate` / `self` in total — to `net`,
/// labelled `prefix` + "ch<node>:<port>"; returns its id.  `servers` is the
/// output bundle's m; lanes, link attributes and the terminal flag come
/// from the representative (exact: a class pins them constant across its
/// members).
int add_station(GeneralModel& net, const topo::Topology& topo,
                const topo::DirectedChannel& dc, int servers, double members,
                double rate, double self, const std::string& prefix) {
  ChannelClass c;
  c.label = prefix + "ch" + std::to_string(dc.src_node) + ":" +
            std::to_string(dc.src_port);
  c.servers = servers;
  c.lanes = topo.lanes(dc.src_node, dc.src_port);
  c.bandwidth = topo.bandwidth(dc.src_node, dc.src_port);
  c.link_latency = topo.link_latency(dc.src_node, dc.src_port);
  c.buffer_depth = topo.buffer_depth(dc.src_node, dc.src_port);
  c.rate_per_link = rate / members;
  c.terminal = topo.is_processor(dc.dst_node);
  // QNA burstiness retention.  Injection channels carry their source's
  // UNDIVIDED process — the destination split is logical, not physical,
  // so the fragment-level merge (which would treat the per-destination
  // sub-streams as independent and mostly Poissonify them) is overridden
  // with the exact value 1.  Downstream, the fragment-level sum is the
  // QNA split/merge approximation; min() guards the ≤ 1 invariant
  // against last-ulp float drift.
  if (topo.is_processor(dc.src_node)) {
    c.self_frac = 1.0;
  } else if (rate > 0.0) {
    c.self_frac = std::min(1.0, self / rate);
  }
  return net.graph.add_channel(c);
}

/// The tail every assembly shares: traffic-weighted D̄ over the `injecting`
/// processors, the unroutable demand share, name and solver options — then
/// the graph must validate.
void finish_model(GeneralModel& net, const ColumnSums& sums, int injecting,
                  std::string name, const SolveOptions& opts) {
  net.mean_distance = sums.weighted_distance / injecting;
  net.unroutable_fraction =
      sums.total_weight > 0.0 ? sums.unroutable_weight / sums.total_weight
                              : 0.0;
  net.model_name = std::move(name);
  net.opts = opts;
  const std::string problems = net.graph.validate();
  WORMNET_ENSURES(problems.empty());
}

/// Index of the bundle in `bundles` that holds `port`; -1 when none does.
int bundle_index(const std::vector<topo::PortBundle>& bundles, int port) {
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    for (int i = 0; i < bundles[b].count; ++i)
      if (bundles[b][i] == port) return static_cast<int>(b);
  }
  return -1;
}

/// Per-class flow totals of a collapsed build: rate and self-mass, the
/// (class → class) continuation flows, and which transition orbits
/// occurred, keyed (from-class, to-class, into-the-return-bundle?).
struct ClassSums {
  std::size_t ncls;
  std::vector<double> rate;
  std::vector<double> self;
  std::vector<double> trans;  ///< ncls × ncls continuation flows
  std::vector<unsigned char> seen_trans;

  explicit ClassSums(std::size_t num_classes)
      : ncls(num_classes),
        rate(ncls, 0.0),
        self(ncls, 0.0),
        trans(ncls * ncls, 0.0),
        seen_trans(ncls * ncls * 2, 0) {}

  std::size_t pair(int ci, int co) const {
    return static_cast<std::size_t>(ci) * ncls + static_cast<std::size_t>(co);
  }
  std::size_t orbit(int ci, int co, bool to_return) const {
    return pair(ci, co) * 2 + (to_return ? 1 : 0);
  }
  void onward(int ci, int co, bool to_return, double flow) {
    trans[pair(ci, co)] += flow;
    seen_trans[orbit(ci, co, to_return)] = 1;
  }
};

/// The assembly of a collapsed model: one station per class, the class
/// transitions, and one injection entry per injection class, `injecting`
/// naming how many injecting processors each stands for.
/// `class_of(node, port)` names the class of any channel.
template <typename ClassOf>
GeneralModel assemble_collapsed(const topo::Topology& topo,
                                const topo::SymmetryClasses& sym,
                                const std::vector<double>& injecting,
                                const ClassSums& cs, const ClassOf& class_of) {
  const int ncls = sym.num_channel_classes;
  GeneralModel net;
  for (int c = 0; c < ncls; ++c) {
    const auto u = static_cast<std::size_t>(c);
    const topo::DirectedChannel& rep = sym.class_rep[u];
    const std::vector<topo::PortBundle> bundles =
        topo.output_bundles(rep.src_node);
    const topo::PortBundle& own =
        bundles[static_cast<std::size_t>(bundle_index(bundles, rep.src_port))];
    int servers = 0;
    for (int i = 0; i < own.count; ++i)
      if (topo.neighbor(rep.src_node, own[i]) != topo::kNoNode) ++servers;
    const int id = add_station(net, topo, rep, servers,
                               static_cast<double>(sym.class_size[u]),
                               cs.rate[u], cs.self[u],
                               "cls" + std::to_string(c) + "@");
    WORMNET_ENSURES(id == c);
  }

  // Transitions.  weight(C→C') folds the dense per-channel weights; the
  // dense route_prob targets ONE output bundle, so divide by the structural
  // fan-out k = how many distinct bundles of class C' the representative
  // member feeds.  k is counted at the representative's far-end node against
  // the transition orbits observed in the passes — e.g. a fat-tree up
  // channel turning down feeds 3 of the 4 child bundles (never the one it
  // climbed out of, which is why return-ness tags the orbits), so k = 3 and
  // route_prob = weight/3, the dense pd/3.  Orbit transitivity spreads the
  // class flow equally over those k bundles, so weight/k is the dense
  // per-bundle probability exactly.
  std::vector<int> fanout(static_cast<std::size_t>(ncls), 0);
  std::vector<int> touched;
  std::vector<int> seen_bundles;
  for (int ci = 0; ci < ncls; ++ci) {
    if (net.graph.at(ci).terminal) continue;
    const double total = cs.rate[static_cast<std::size_t>(ci)];
    if (total <= 0.0) continue;
    const topo::DirectedChannel& rep =
        sym.class_rep[static_cast<std::size_t>(ci)];
    const int node = rep.dst_node;
    const std::vector<topo::PortBundle> bundles = topo.output_bundles(node);
    const int ret = bundle_index(bundles, rep.dst_port);
    touched.clear();
    seen_bundles.clear();
    for (int port = 0; port < topo.num_ports(node); ++port) {
      if (topo.neighbor(node, port) == topo::kNoNode) continue;
      const int b = bundle_index(bundles, port);
      if (std::find(seen_bundles.begin(), seen_bundles.end(), b) !=
          seen_bundles.end()) {
        continue;
      }
      seen_bundles.push_back(b);
      const int cj = class_of(node, port);
      if (cs.seen_trans[cs.orbit(ci, cj, b == ret)]) {
        if (fanout[static_cast<std::size_t>(cj)] == 0) touched.push_back(cj);
        ++fanout[static_cast<std::size_t>(cj)];
      }
    }
    for (int cj = 0; cj < ncls; ++cj) {
      const double flow = cs.trans[cs.pair(ci, cj)];
      if (flow <= 0.0) continue;
      const double weight = std::min(1.0, flow / total);
      const int k = std::max(1, fanout[static_cast<std::size_t>(cj)]);
      net.graph.add_transition(ci, cj, weight, weight / static_cast<double>(k));
    }
    for (int cj : touched) fanout[static_cast<std::size_t>(cj)] = 0;
  }

  // One injection entry per injection class, weighted by how many
  // processors it stands for — the weighted latency average then equals the
  // dense per-processor uniform average.
  for (int c = 0; c < ncls; ++c) {
    const double w = injecting[static_cast<std::size_t>(c)];
    if (w <= 0.0) continue;
    net.injection_classes.push_back(c);
    net.injection_class_weights.push_back(w);
  }
  return net;
}

/// The node-built collapsed column sink: contributions fold onto channel
/// CLASSES in `sums`.
struct ClassSink : WholeDag {
  const std::vector<int>& class_of;
  const topo::ChannelTable& ct;
  const std::vector<int>& rev_bundle;  ///< per channel: its return bundle
  ClassSums& sums;

  void rate(int ch, double flow, double self) {
    const auto co = static_cast<std::size_t>(class_of[static_cast<std::size_t>(ch)]);
    sums.rate[co] += flow;
    sums.self[co] += self;
  }
  void onward(int in_ch, int out_ch, int /*port*/, double flow) {
    sums.onward(class_of[static_cast<std::size_t>(in_ch)],
                class_of[static_cast<std::size_t>(out_ch)],
                ct.bundle(out_ch) == rev_bundle[static_cast<std::size_t>(in_ch)],
                flow);
  }
};

/// The node-built passes, for topologies without route orbits: one full
/// column pass per destination orbit over the fabric, seeded at the orbit
/// size, folded onto the classes.  Work is O(orbits · channels).  Returns
/// the nodes walked.
long node_passes(const topo::Topology& topo, const topo::ChannelTable& ct,
                 const traffic::TrafficSpec& spec,
                 const topo::SymmetryClasses& sym, ClassSums& cs,
                 ColumnSums& sums) {
  const int num_channels = ct.size();
  WORMNET_EXPECTS(static_cast<int>(sym.channel_class.size()) == num_channels);
  // Return-bundle ids: rev_bundle[ch] is the bundle a worm leaving ch would
  // use to go straight back.  Transitions into the return bundle form a
  // transition orbit distinct from same-class transitions away from it (a
  // fat-tree LCA turn never descends into the block it climbed out of), so
  // the structural fan-out count k is tagged by return-ness.  A class is one
  // queueing station, so its members must share the bundle size too.
  std::vector<int> rev_bundle(static_cast<std::size_t>(num_channels), -1);
  for (int ch = 0; ch < num_channels; ++ch) {
    rev_bundle[static_cast<std::size_t>(ch)] = ct.bundle(ct.reverse(ch));
    const topo::DirectedChannel& rep = sym.class_rep[static_cast<std::size_t>(
        sym.channel_class[static_cast<std::size_t>(ch)])];
    WORMNET_EXPECTS(ct.bundle_size(ch) ==
                    ct.bundle_size(ct.from(rep.src_node, rep.src_port)));
  }

  ClassSink sink{{}, sym.channel_class, ct, rev_bundle, cs};
  const std::vector<std::vector<int>> scan_all;
  DestinationPass pass(topo.num_nodes());
  std::vector<Seed> seeds;
  long walked = 0;
  for (std::size_t o = 0; o < sym.orbit_rep.size(); ++o) {
    const int d = sym.orbit_rep[o];
    seed_column(topo, spec, d, static_cast<double>(sym.orbit_size[o]),
                scan_all, sums, seeds);
    walked += propagate_column(topo, ct, d, seeds, pass, sink);
  }
  return walked;
}

/// The quotient passes: the column pass of each destination orbit runs on
/// the route graph's node orbits (Topology::route_orbits; `orbits` holds the
/// first destination orbit's on entry) instead of on the fabric.  Every
/// member of a node orbit carries the same flow and self-mass, and
/// splitting and merging are linear, so the pass propagates orbit TOTALS: a
/// source orbit seeds its member count × one source's seed, and an orbit's
/// total splits over its representative's candidates into their target
/// orbits.  A candidate's flow lands on its channel's class; its
/// continuation flows are those of the representative channel's far end,
/// which stands for every channel of its orbit.  Work is a few route calls
/// per node orbit and destination orbit; no ChannelTable, no per-node pass
/// state.  Returns the node orbits walked.
template <typename ClassOf>
long orbit_passes(const topo::Topology& topo, const traffic::TrafficSpec& spec,
                  const std::vector<int>& pins,
                  const topo::SymmetryClasses& sym,
                  std::vector<topo::RouteOrbit>& orbits,
                  const ClassOf& class_of, ClassSums& cs, ColumnSums& sums) {
  std::vector<double> flow;
  std::vector<double> self;
  std::vector<char> fed;
  long walked = 0;
  for (std::size_t o = 0; o < sym.orbit_rep.size(); ++o) {
    const int d = sym.orbit_rep[o];
    if (o > 0) WORMNET_ENSURES(topo.route_orbits(pins, d, orbits));
    const auto dest_size = static_cast<double>(sym.orbit_size[o]);
    const std::size_t n = orbits.size();
    flow.assign(n, 0.0);
    self.assign(n, 0.0);
    fed.assign(n, 0);
    for (std::size_t x = 0; x < n; ++x) {
      const int s = orbits[x].rep;
      if (s == d || !topo.is_processor(s)) continue;
      const double members = dest_size * static_cast<double>(orbits[x].size);
      const std::optional<Seed> sd = seed_pair(topo, spec, s, d, members, sums);
      if (!sd) continue;
      flow[x] += sd->flow;
      self[x] += sd->self;
      fed[x] = 1;
    }
    for (std::size_t x = 0; x < n; ++x) {
      if (!fed[x]) continue;
      const topo::RouteOrbit& ox = orbits[x];
      ++walked;
      if (ox.count == 0)
        throw std::runtime_error(
            "build_traffic_model: flow toward destination " + std::to_string(d) +
            " dead-ends at node " + std::to_string(ox.rep) +
            " (no route candidates; malformed route orbits)");
      for (int i = 0; i < ox.count; ++i) {
        const topo::RouteOrbit::Candidate& cand =
            ox.candidates[static_cast<std::size_t>(i)];
        const double p = cand.split;
        if (p <= 0.0) continue;
        const double f = flow[x] * p;
        const double m = self[x] * p * p;
        const int ci = class_of(ox.rep, cand.port);
        cs.rate[static_cast<std::size_t>(ci)] += f;
        cs.self[static_cast<std::size_t>(ci)] += m;
        const int y = topo.neighbor(ox.rep, cand.port);
        if (y == d) continue;  // ejection channel: consumed at the destination
        WORMNET_EXPECTS(cand.target > static_cast<int>(x) &&
                        cand.target < static_cast<int>(n));
        // Continuation flows at the far end y, as the node pass would split
        // this fragment there.
        const topo::RouteOptions next = topo.route(y, d);
        if (next.size() > 0) {
          const std::array<double, 4> split = topo.route_split(y, d, next);
          const std::vector<topo::PortBundle> bundles = topo.output_bundles(y);
          const int ret =
              bundle_index(bundles, topo.neighbor_port(ox.rep, cand.port));
          for (int j = 0; j < next.size(); ++j) {
            const double pj = split[static_cast<std::size_t>(j)];
            if (pj <= 0.0) continue;
            cs.onward(ci, class_of(y, next[j]),
                      bundle_index(bundles, next[j]) == ret, f * pj);
          }
        }
        const auto t = static_cast<std::size_t>(cand.target);
        flow[t] += f;
        self[t] += m;
        fed[t] = 1;
      }
    }
  }
  return walked;
}

/// The symmetry-collapsed build: one column pass per destination ORBIT,
/// seeded at the orbit size, accumulated per channel CLASS.  With classes
/// that are true orbits of a routing-preserving group fixing the spec's
/// pins, Σ_{ch∈C} rate_d(ch) is the same for every destination d in one
/// orbit (the group maps the pass for d to the pass for g·d while permuting
/// C onto itself), so |orbit| × (representative pass) equals the dense sum
/// over the class exactly — the identity the parity tests pin down.  State
/// is O(classes²) instead of the dense path's O(channels).
///
/// One index names the classes and orbits (topo::topology_symmetry).  The
/// passes then run on the orbit graph when the topology answers
/// Topology::route_orbits, else node by node over `ct` (built here when
/// null).  Returns nullopt — build dense — when the spec or the topology
/// declares no symmetry, the index refuses, or the quotient is trivial or
/// has more than kMaxSymmetryClasses classes.  `report`, when given, gains
/// the passes run and the nodes (or node orbits) they walked.
std::optional<GeneralModel> build_collapsed(const topo::Topology& topo,
                                            const topo::ChannelTable* ct,
                                            const traffic::TrafficSpec& spec,
                                            const SolveOptions& opts,
                                            const TrafficBuildOptions& build,
                                            RetuneReport* report = nullptr) {
  const int procs = topo.num_processors();
  std::vector<int> pins;
  topo::SymmetryClasses sym;
  if (!spec.symmetric(pins) ||
      !topo::topology_symmetry(topo, pins, sym, build.threads) ||
      sym.trivial(procs) || sym.num_channel_classes > kMaxSymmetryClasses)
    return std::nullopt;

  // Per class: the injecting processors whose injection channel it holds.
  // A destination orbit's members share their representative's injection
  // weight (the spec is symmetric) and injection-channel class (channel
  // p is processor p's), so the representative counts for the orbit.
  const auto ncls = static_cast<std::size_t>(sym.num_channel_classes);
  std::vector<double> injecting(ncls, 0.0);
  long injectors = 0;
  for (std::size_t o = 0; o < sym.orbit_rep.size(); ++o) {
    const int p = sym.orbit_rep[o];
    if (spec.injection_weight(p, procs) <= 0.0) continue;
    const int c = sym.channel_class[static_cast<std::size_t>(p)];
    injecting[static_cast<std::size_t>(c)] +=
        static_cast<double>(sym.orbit_size[o]);
    injectors += sym.orbit_size[o];
  }
  WORMNET_EXPECTS(injectors > 0);

  const auto class_of = [&](int node, int port) {
    return sym.class_of_key.at(topo.channel_symmetry_key(node, port, pins));
  };
  ClassSums cs(ncls);
  ColumnSums sums;  // demand accounting only: the flows land in `cs`
  std::vector<topo::RouteOrbit> orbits;
  const bool quotient = topo.route_orbits(pins, sym.orbit_rep.front(), orbits);
  std::optional<topo::ChannelTable> own;
  const long walked =
      quotient ? orbit_passes(topo, spec, pins, sym, orbits, class_of, cs, sums)
               : node_passes(topo, ct != nullptr ? *ct : own.emplace(topo),
                             spec, sym, cs, sums);
  if (report != nullptr) {
    report->nodes_visited += walked;
    report->passes = sym.num_proc_orbits;
  }

  GeneralModel net = assemble_collapsed(topo, sym, injecting, cs, class_of);
  net.channel_class_of = std::move(sym.channel_class);
  finish_model(net, sums, static_cast<int>(injectors),
               "traffic-sym(" + topo.name() + ", " + spec.name() + ")", opts);
  // Which path ran: on the orbit graph, or node by node over the fabric.
  obs::Registry::global()
      .counter("wormnet_collapsed_builds_total",
               quotient ? "path=quotient" : "path=node")
      .inc();
  return net;
}

/// The dense builder's retained intermediate: everything the assembly step
/// consumes, and — because the flow DP is LINEAR in its (src, dst) seeds —
/// everything a delta-retune needs to update in place when pair weights
/// change (RetunableTrafficModel).
struct DenseFlowState {
  std::vector<int> onward_off;  ///< flat (channel, continuation port) offsets
  ColumnSums flow;              ///< every column's sums, unit injection
};

/// Run the sharded per-destination passes for the whole spec, filling
/// `st` (replacing any previous contents) — sparse-seeded for
/// fixed-destination specs.  Returns the nodes walked.
long propagate_dense(const topo::Topology& topo, const topo::ChannelTable& ct,
                     const traffic::TrafficSpec& spec,
                     const TrafficBuildOptions& build, DenseFlowState& st) {
  const int procs = topo.num_processors();
  const int num_channels = ct.size();
  // Sparse seeding: for a fixed-destination spec, each destination's
  // sources in ascending order (the order the full scan visits them); empty
  // — scan every source — for any other spec.
  std::vector<std::vector<int>> dest_sources;
  if (spec.fixed_destination(0, procs) >= 0) {
    dest_sources.resize(static_cast<std::size_t>(procs));
    for (int s = 0; s < procs; ++s)
      dest_sources[static_cast<std::size_t>(spec.fixed_destination(s, procs))]
          .push_back(s);
  }

  // Flat offsets for the per-(channel, continuation port) flows — the
  // continuation port is on the channel's dst node, so one dense slab with
  // per-channel offsets makes every update O(1) and cache-friendly.
  st.onward_off.assign(static_cast<std::size_t>(num_channels) + 1, 0);
  for (int ch = 0; ch < num_channels; ++ch) {
    st.onward_off[static_cast<std::size_t>(ch) + 1] =
        st.onward_off[static_cast<std::size_t>(ch)] +
        topo.num_ports(ct.at(ch).dst_node);
  }

  // Destination shards.  The shard count and boundaries depend on the
  // processor count ONLY — never on the worker count — and the reduction
  // below runs in shard order, so the built model is bitwise-identical for
  // every TrafficBuildOptions::threads value (tested).  16 shards caps the
  // parallel speedup at 16× while keeping the private-accumulator memory
  // (one rate+onward copy per shard) and the reduction cost negligible.
  const int num_shards = std::min(procs, 16);
  std::vector<ColumnSums> accs(static_cast<std::size_t>(num_shards));
  std::vector<long> walked(static_cast<std::size_t>(num_shards), 0);
  const auto shard_job = [&](std::int64_t j) {
    // One shard: the columns of destinations [lo, hi), into private sums.
    const int lo = static_cast<int>(j) * procs / num_shards;
    const int hi = (static_cast<int>(j) + 1) * procs / num_shards;
    ColumnSums& acc = accs[static_cast<std::size_t>(j)];
    acc.reset(num_channels, st.onward_off.back());
    DenseSink sink{acc, st.onward_off};
    DestinationPass pass(topo.num_nodes());
    std::vector<Seed> seeds;
    for (int d = lo; d < hi; ++d) {
      seed_column(topo, spec, d, 1.0, dest_sources, acc, seeds);
      walked[static_cast<std::size_t>(j)] +=
          propagate_column(topo, ct, d, seeds, pass, sink);
    }
  };
  // threads = 0 ("auto") also runs serially below the cutoff: at those sizes
  // the fork/join overhead exceeds the whole build, and the fixed-shard
  // contract makes the fallback bitwise-invisible (tested either side of
  // the boundary).
  util::run_shards(build.threads, procs, num_shards, shard_job);

  // Deterministic reduction: shard partials added back in shard (i.e.
  // ascending destination-range) order.
  st.flow.reset(num_channels, st.onward_off.back());
  for (const ColumnSums& acc : accs) st.flow.add(acc);
  long total = 0;
  for (const long w : walked) total += w;
  return total;
}

/// Assemble the per-physical-channel GeneralModel from a propagated flow
/// state: channel classes, transitions, injection classes, mean distance.
/// O(channels + transitions) — the cheap tail every delta-retune re-runs.
GeneralModel assemble_dense(const topo::Topology& topo,
                            const topo::ChannelTable& ct,
                            const traffic::TrafficSpec& spec,
                            const SolveOptions& opts,
                            const DenseFlowState& st) {
  const int num_channels = ct.size();
  const std::vector<double>& rate = st.flow.rate;
  const std::vector<double>& onward = st.flow.onward;
  const std::vector<int>& onward_off = st.onward_off;

  GeneralModel net;
  for (int ch = 0; ch < num_channels; ++ch) {
    const int id = add_station(net, topo, ct.at(ch), ct.bundle_size(ch), 1.0,
                               rate[static_cast<std::size_t>(ch)],
                               st.flow.self[static_cast<std::size_t>(ch)], "");
    WORMNET_ENSURES(id == ch);  // 1:1 channel table <-> class ids
  }

  // Small fixed-capacity (bundle → flow) map: a node's continuation ports
  // target a handful of output bundles (≤ ports, ≤ 11 on the 10-cube), so a
  // linear scan over a stack array beats the std::map this loop used to
  // allocate per channel.
  struct BundleFlow {
    int bundle = -1;
    double flow = 0.0;
  };
  for (int ch = 0; ch < num_channels; ++ch) {
    const double total = rate[static_cast<std::size_t>(ch)];
    if (total <= 0.0) continue;
    const int node = ct.at(ch).dst_node;
    const int base = onward_off[static_cast<std::size_t>(ch)];
    const int num_ports = onward_off[static_cast<std::size_t>(ch) + 1] - base;
    // Aggregate per-bundle flow for R(i|j) (route_prob targets the bundle,
    // not the specific link inside it).
    std::array<BundleFlow, 16> bundle_flow{};
    int bundles_used = 0;
    const auto bundle_total = [&](int bundle) -> double& {
      for (int i = 0; i < bundles_used; ++i) {
        if (bundle_flow[static_cast<std::size_t>(i)].bundle == bundle)
          return bundle_flow[static_cast<std::size_t>(i)].flow;
      }
      WORMNET_ENSURES(bundles_used < static_cast<int>(bundle_flow.size()));
      bundle_flow[static_cast<std::size_t>(bundles_used)].bundle = bundle;
      return bundle_flow[static_cast<std::size_t>(bundles_used++)].flow;
    };
    for (int port = 0; port < num_ports; ++port) {
      const double flow = onward[static_cast<std::size_t>(base + port)];
      if (flow <= 0.0) continue;
      const int next_ch = ct.from(node, port);
      bundle_total(ct.bundle(next_ch)) += flow;
    }
    for (int port = 0; port < num_ports; ++port) {
      const double flow = onward[static_cast<std::size_t>(base + port)];
      if (flow <= 0.0) continue;
      const int next_ch = ct.from(node, port);
      // min(): after a delta the re-associated Σ onward can overshoot the
      // rate by an ulp; bit-inert whenever the ratio is ≤ 1.
      const double weight = std::min(1.0, flow / total);
      const double route_prob =
          std::min(1.0, bundle_total(ct.bundle(next_ch)) / total);
      net.graph.add_transition(ch, next_ch, weight, route_prob);
    }
  }

  // The injection channel of every processor that injects, in processor
  // order.  At least one must.
  const int procs = topo.num_processors();
  for (int p = 0; p < procs; ++p) {
    if (spec.injection_weight(p, procs) <= 0.0) continue;
    const int inj = ct.from(p, 0);
    WORMNET_ENSURES(inj != topo::kNoChannel);
    net.injection_classes.push_back(inj);
  }
  WORMNET_EXPECTS(!net.injection_classes.empty());
  finish_model(net, st.flow, static_cast<int>(net.injection_classes.size()),
               "traffic(" + topo.name() + ", " + spec.name() + ")", opts);
  return net;
}

}  // namespace

GeneralModel build_traffic_model(const topo::Topology& topo,
                                 const traffic::TrafficSpec& spec,
                                 const SolveOptions& opts,
                                 const TrafficBuildOptions& build) {
  WORMNET_SPAN("build_traffic_model", "build");
  const int procs = topo.num_processors();
  WORMNET_EXPECTS(procs >= 2);
  WORMNET_EXPECTS(spec.check(procs).empty());

  if (build.collapse == CollapseMode::Auto) {
    if (std::optional<GeneralModel> m =
            build_collapsed(topo, nullptr, spec, opts, build))
      return std::move(*m);
  }
  const topo::ChannelTable ct(topo);
  DenseFlowState st;
  propagate_dense(topo, ct, spec, build, st);
  return assemble_dense(topo, ct, spec, opts, st);
}

GeneralModel build_traffic_model_collapsed(const topo::Topology& topo,
                                           const traffic::TrafficSpec& spec,
                                           const SolveOptions& opts,
                                           TrafficBuildOptions build) {
  build.collapse = CollapseMode::Auto;
  return build_traffic_model(topo, spec, opts, build);
}

namespace {

/// Kill the floating residues a delta pass leaves where the true value is 0.
///
/// Delta contributions are bit-exact negatives of the original products
/// (multiplication by the signed seed distributes identically), so the only
/// error is re-associated ADDITION: subtracting a subset of a positive sum
/// in a different order leaves O(n·ulp·magnitude) residue — including tiny
/// NEGATIVE rates, which ChannelGraph::validate() rejects, and phantom
/// onward flows that would fabricate transitions into rate-0 channels.
/// Snap rate/onward values below a scale-aware epsilon to exactly 0; clamp
/// self-mass negatives only (tiny positive self is harmless and may be
/// legitimate — self magnitudes sit orders below rates).
///
/// The epsilon is CHANNEL-LOCAL: residues left by a delta pass scale with
/// the magnitudes that were summed at that channel (bounded by its own
/// rate), never with the network-wide maximum.  A single global
/// 1e-9·(1 + max_rate) epsilon — the previous rule — zeroes a legitimate
/// small flow whenever the rates span orders of magnitude (a skewed matrix
/// pattern, or the small flows a heterogeneous slow tier legitimately
/// carries next to a hot fast tier), silently dropping Kirchhoff mass.
/// Rates use the absolute 1e-9 floor (a channel whose history cancelled to
/// zero holds only its own residue); onward flows are bounded by their
/// channel's rate, so their epsilon is 1e-9·(1 + rate[ch]).  Legitimate
/// flows below 1e-9 messages/cycle at unit injection are physically
/// negligible by construction.
void snap_residues(DenseFlowState& st) {
  ColumnSums& f = st.flow;
  for (std::size_t ch = 0; ch < f.rate.size(); ++ch) {
    double& r = f.rate[ch];
    if (std::abs(r) < 1e-9) r = 0.0;
    WORMNET_ENSURES(r >= 0.0);  // beyond-residue negatives are a real bug
    const double eps = 1e-9 * (1.0 + r);
    double& s = f.self[ch];
    if (s < 0.0) {
      WORMNET_ENSURES(s > -eps);
      s = 0.0;
    }
    for (int k = st.onward_off[ch]; k < st.onward_off[ch + 1]; ++k) {
      double& v = f.onward[static_cast<std::size_t>(k)];
      if (std::abs(v) < eps) v = 0.0;
      WORMNET_ENSURES(v >= 0.0);
    }
  }
  // Likewise the unroutable demand: a fault delta that cuts pairs off and
  // heals them again adds and removes the same pair weights in different
  // orders, and a residue there would flag a healthy model Disconnected.
  if (std::abs(f.unroutable_weight) < 1e-9) f.unroutable_weight = 0.0;
  WORMNET_ENSURES(f.unroutable_weight >= 0.0);
  // A channel whose rate vanished keeps no self-mass or continuation flows
  // (assembly would skip them behind the rate > 0 guard; keep the retained
  // state itself consistent so later deltas start clean).
  for (std::size_t ch = 0; ch < f.rate.size(); ++ch) {
    if (f.rate[ch] > 0.0) continue;
    f.self[ch] = 0.0;
    for (int k = st.onward_off[ch]; k < st.onward_off[ch + 1]; ++k) {
      f.onward[static_cast<std::size_t>(k)] = 0.0;
    }
  }
}

/// One side of a fault delta: the routing view and, when that side is
/// degraded, its fault decorator (null: the healthy base, where every node
/// reaches every destination and no node is a frontier candidate).
struct FaultSide {
  const topo::Topology* routing;
  const topo::FaultedTopology* faulted;

  const std::vector<int>& candidates(int d) const {
    static const std::vector<int> kNone;
    return faulted != nullptr ? faulted->frontier_candidates(d) : kNone;
  }
  bool can_reach(int node, int d) const {
    return faulted == nullptr || faulted->can_reach(node, d);
  }
};

/// Per-node region of one fault-delta column (kOutside between columns).
enum Region : char { kOutside = 0, kUpstream, kFrontier, kDead };

/// The fault delta's first-hit sink: flow moves only through the upstream
/// region and stops at the frontier, where the fragments it delivers are
/// identical under both views.  Nothing accumulates: upstream of the
/// frontier both views contribute the same flows.
struct FrontierSink {
  const std::vector<char>& region;
  std::vector<Seed>& held;

  bool enters(int node) const {
    const char r = region[static_cast<std::size_t>(node)];
    return r == kUpstream || r == kFrontier;
  }
  bool holds(int node) const {
    return region[static_cast<std::size_t>(node)] == kFrontier;
  }
  void hold(int node, const FlowFragment& in) {
    held.push_back({node, in.in_ch, in.flow, in.self});
  }
  static void rate(int /*ch*/, double /*flow*/, double /*self*/) {}
  static void onward(int /*in_ch*/, int /*out_ch*/, int /*port*/,
                     double /*flow*/) {}
};

/// Scratch of the fault delta's first phase, reused across the columns of
/// one shard.
struct FrontierScratch {
  std::vector<char> region;     ///< per node
  std::vector<int> marked;      ///< nodes whose region is set this column
  std::vector<int> candidates;  ///< union of both sides' candidates
  std::vector<int> walk;        ///< frontier, then the upstream walk
  std::vector<int> sources;     ///< upstream processors
  std::vector<Seed> upstream, held;
  DestinationPass pass;

  explicit FrontierScratch(int num_nodes)
      : region(static_cast<std::size_t>(num_nodes), kOutside),
        pass(num_nodes) {}
  void set(int node, Region r) {
    region[static_cast<std::size_t>(node)] = r;
    marked.push_back(node);
  }
};

/// What the fault delta of one destination column changes, found without
/// touching the shared flow state: the signed demand-accounting terms, in
/// the order they apply, and the seeds to retract along the old routes and
/// re-add along the new.
struct ColumnDelta {
  std::vector<double> distance_terms;    ///< onto weighted_distance
  std::vector<double> unroutable_terms;  ///< onto unroutable_weight
  std::vector<Seed> retract, readd;
  long walked = 0;  ///< nodes the first-hit pass walked
};

/// True when `a` and `b` route a worm at `node` toward `d` identically:
/// same candidate ports in the same order, same split.
bool same_routing(const topo::Topology& a, const topo::Topology& b, int node,
                  int d) {
  const topo::RouteOptions ra = a.route(node, d);
  const topo::RouteOptions rb = b.route(node, d);
  if (ra.size() != rb.size()) return false;
  for (int i = 0; i < ra.size(); ++i)
    if (ra[i] != rb[i]) return false;
  if (ra.size() == 0) return true;
  const std::array<double, 4> sa = a.route_split(node, d, ra);
  const std::array<double, 4> sb = b.route_split(node, d, rb);
  return std::equal(sa.begin(), sa.begin() + ra.size(), sb.begin());
}

/// Phase 1 of the fault delta of destination column `d`: find what moving
/// the column from its contribution under `from` to its contribution under
/// `to` changes, touching only what the routing change can reach.  Reads
/// the views and writes only `out` and `fs`, so columns run concurrently.
///  1. The frontier C: the candidates (either side's) whose routing or
///     reachability differs.  Outside the candidates both sides route as
///     the base does, so C is every node whose routing changed.  Sources
///     whose distance or reachability moved get demand-accounting terms;
///     no other source's can move.
///  2. The upstream walk: backwards over unchanged routing from C, stopping
///     at C — the nodes whose flow reaches C first.  Their sources' seeds
///     run forward to C without sinking anything: the first-hit fragments
///     at C, identical under both views (routing upstream of C is).
///  3. The fragments — plus the seeds of frontier sources whose
///     reachability flipped — become the retract (×−1, run under `from`)
///     and re-add (×+1, run under `to`) seeds of apply_column_delta.  Flow
///     that never reaches C contributes the same under both views and is
///     never walked.
/// Walk orders are fixed functions of (views, d).
void find_column_delta(const FaultSide& from, const FaultSide& to,
                       const topo::ChannelTable& ct,
                       const traffic::TrafficSpec& spec, int d,
                       FrontierScratch& fs, ColumnDelta& out) {
  const int procs = from.routing->num_processors();
  const std::vector<int>& ca = from.candidates(d);
  const std::vector<int>& cb = to.candidates(d);
  fs.candidates.clear();
  std::set_union(ca.begin(), ca.end(), cb.begin(), cb.end(),
                 std::back_inserter(fs.candidates));
  fs.marked.clear();
  fs.walk.clear();
  for (const int v : fs.candidates) {
    if (v == d) continue;
    const bool ra = from.can_reach(v, d);
    const bool rb = to.can_reach(v, d);
    if (!ra && !rb) {
      fs.set(v, kDead);
      continue;
    }
    if (v < procs) {
      const double w = spec.pair_weight(v, d, procs);
      const int da = ra ? from.routing->distance(v, d) : -1;
      const int db = rb ? to.routing->distance(v, d) : -1;
      if (w > 0.0 && da != db) {
        if (ra) out.distance_terms.push_back(-(w * da));
        else out.unroutable_terms.push_back(-w);
        if (rb) out.distance_terms.push_back(w * db);
        else out.unroutable_terms.push_back(w);
      }
    }
    if (ra != rb || !same_routing(*from.routing, *to.routing, v, d)) {
      fs.set(v, kFrontier);
      fs.walk.push_back(v);
    }
  }
  if (fs.walk.empty()) {
    for (const int v : fs.marked) fs.region[static_cast<std::size_t>(v)] = kOutside;
    return;
  }

  // Upstream walk.  Processors have no in-flows to walk past (only d
  // receives, and d never forwards); an unmarked switch is reachable under
  // both views, so route() is defined there and agrees between them.  The
  // channel into x over port q is the reverse of x's channel out of q, so
  // x's outgoing range lists its in-neighbours in port order.
  const std::size_t frontier_size = fs.walk.size();
  fs.sources.clear();
  for (std::size_t head = 0; head < fs.walk.size(); ++head) {
    const int x = fs.walk[head];
    if (x < procs) continue;
    const auto edges = ct.out_channels(x);
    for (int k = edges.first; k < edges.last; ++k) {
      const int u = edges[k].dst_node;
      if (u == d || fs.region[static_cast<std::size_t>(u)] != kOutside) continue;
      if (u >= procs && !from.routing->route(u, d).contains(edges[k].dst_port))
        continue;
      fs.set(u, kUpstream);
      fs.walk.push_back(u);
      if (u < procs) fs.sources.push_back(u);
    }
  }

  std::sort(fs.sources.begin(), fs.sources.end());
  fs.upstream.clear();
  for (const int s : fs.sources) {
    const double w = spec.pair_weight(s, d, procs);
    if (w > 0.0) fs.upstream.push_back(source_seed(spec, s, w, procs));
  }
  fs.held.clear();
  if (!fs.upstream.empty()) {
    FrontierSink hits{fs.region, fs.held};
    out.walked =
        propagate_column(*from.routing, ct, d, fs.upstream, fs.pass, hits);
  }

  for (const Seed& h : fs.held) {
    out.retract.push_back({h.node, h.in_ch, -h.flow, -h.self});
    out.readd.push_back(h);
  }
  for (std::size_t i = 0; i < frontier_size; ++i) {
    const int v = fs.walk[i];
    if (v >= procs) continue;
    const double w = spec.pair_weight(v, d, procs);
    if (w <= 0.0) continue;
    const Seed sd = source_seed(spec, v, w, procs);
    if (from.can_reach(v, d))
      out.retract.push_back({v, topo::kNoChannel, -sd.flow, -sd.self});
    if (to.can_reach(v, d)) out.readd.push_back(sd);
  }
  for (const int v : fs.marked) fs.region[static_cast<std::size_t>(v)] = kOutside;
}

/// Phase 2 of the fault delta of column `d`: apply `delta` to the shared
/// flow state — the accounting terms in order, then the retract seeds down
/// the old routes and the re-add seeds down the new.  Columns apply one at
/// a time in destination order, so every sum is added in the order of a
/// serial column loop.  Returns the nodes the two passes walked.
long apply_column_delta(const FaultSide& from, const FaultSide& to,
                        const topo::ChannelTable& ct, int d,
                        const ColumnDelta& delta, DenseFlowState& st,
                        DestinationPass& pass) {
  for (const double t : delta.distance_terms) st.flow.weighted_distance += t;
  for (const double t : delta.unroutable_terms) st.flow.unroutable_weight += t;
  DenseSink sink(st.flow, st.onward_off);
  long walked = 0;
  if (!delta.retract.empty())
    walked += propagate_column(*from.routing, ct, d, delta.retract, pass, sink);
  if (!delta.readd.empty())
    walked += propagate_column(*to.routing, ct, d, delta.readd, pass, sink);
  return walked;
}

}  // namespace

/// Everything a resident model retains between retunes: the channel table,
/// the dense flow state (when dense), the current spec, and the recorded
/// lane/load/arrival tunes to re-apply after any reassembly.
struct RetunableTrafficModel::Impl {
  const topo::Topology* topo;
  topo::ChannelTable ct;
  traffic::TrafficSpec spec;
  SolveOptions opts;
  TrafficBuildOptions build;
  bool is_collapsed = false;
  DenseFlowState state;    ///< valid only when !is_collapsed
  int lanes_override = 0;  ///< 0: the topology's own lane counts
  int buffers_override = 0;  ///< 0: the topology's own buffer depths
  double bandwidth_scale = 1.0;  ///< on top of the topology's bandwidths
  double load_scale = 1.0;
  double tuned_ca2 = 1.0;
  double tuned_residual = 0.0;
  /// One-shot warn gate for the collapsed→dense fault fallback below: big
  /// N−1 sweeps trip the branch once per resident, not once per scenario.
  bool warned_collapsed_fault = false;
  /// Active fault view, shared (immutable after construction) so the default
  /// Impl copy stays cheap and clones of a faulted resident share the
  /// survivor BFS tables.  Null = healthy fabric.
  std::shared_ptr<const topo::FaultSet> fault_set;
  std::shared_ptr<const topo::FaultedTopology> faulted;
  GeneralModel net;

  Impl(const topo::Topology& t, traffic::TrafficSpec s, const SolveOptions& o,
       const TrafficBuildOptions& b)
      : topo(&t), ct(t), spec(std::move(s)), opts(o), build(b) {}

  /// The topology all routing-sensitive work runs against: the fault view
  /// when one is active, else the healthy base.  The channel STRUCTURE is
  /// identical either way (FaultedTopology's stability contract), so `ct`
  /// and every per-channel array stay valid across fault retunes.
  const topo::Topology& routing_topo() const {
    return faulted ? static_cast<const topo::Topology&>(*faulted) : *topo;
  }

  /// Re-apply the recorded lane/load/arrival tunes onto a freshly
  /// (re)assembled model.  Order matters only for documentation: each tune
  /// touches a disjoint ChannelClass field (lanes / rate_per_link / ca2).
  void apply_tunes() {
    if (lanes_override >= 1) net.set_uniform_lanes(lanes_override);
    if (buffers_override >= 1) net.set_uniform_buffers(buffers_override);
    if (bandwidth_scale != 1.0) scale_model_bandwidths(bandwidth_scale);
    if (load_scale != 1.0) net.scale_injection_rates(load_scale);
    if (tuned_ca2 != 1.0 || tuned_residual != 0.0) {
      net.set_injection_ca2(tuned_ca2);
      net.injection_batch_residual = tuned_residual;
    }
  }

  /// Multiply every resident class's bandwidth by `factor` — applied on top
  /// of whatever the (possibly tapered) topology assembled, so the taper
  /// shape survives reassembly.
  void scale_model_bandwidths(double factor) {
    std::vector<double> bw(static_cast<std::size_t>(net.graph.size()));
    for (int id = 0; id < net.graph.size(); ++id)
      bw[static_cast<std::size_t>(id)] = net.graph.at(id).bandwidth * factor;
    net.set_channel_bandwidths(bw);
  }

  /// The collapsed build of `new_spec` on the routing topology, when the
  /// options allow collapsing and build_collapsed answers.
  std::optional<GeneralModel> collapse(const traffic::TrafficSpec& new_spec,
                                       RetuneReport& report) const {
    if (build.collapse != CollapseMode::Auto) return std::nullopt;
    return build_collapsed(routing_topo(), &ct, new_spec, opts, build, &report);
  }

  /// Replace the resident model with a cold build of `new_spec`: `collapsed`
  /// when it holds one, else the dense build, whose flow state the deltas
  /// then update.  The dense passes' walked nodes land in `report`.
  void rebuild(const traffic::TrafficSpec& new_spec,
               std::optional<GeneralModel> collapsed, RetuneReport& report) {
    is_collapsed = collapsed.has_value();
    if (collapsed) {
      net = std::move(*collapsed);
      state = DenseFlowState{};
    } else {
      WORMNET_SPAN("resident_rebuild_cold", "build");
      const topo::Topology& rt = routing_topo();
      report.nodes_visited += propagate_dense(rt, ct, new_spec, build, state);
      net = assemble_dense(rt, ct, new_spec, opts, state);
    }
    spec = new_spec;
    apply_tunes();
  }
};

RetunableTrafficModel::RetunableTrafficModel(const topo::Topology& topo,
                                             traffic::TrafficSpec spec,
                                             const SolveOptions& opts,
                                             const TrafficBuildOptions& build)
    : impl_(std::make_unique<Impl>(topo, std::move(spec), opts, build)) {
  const int procs = topo.num_processors();
  WORMNET_EXPECTS(procs >= 2);
  WORMNET_EXPECTS(impl_->spec.check(procs).empty());
  RetuneReport report;
  impl_->rebuild(impl_->spec, impl_->collapse(impl_->spec, report), report);
}

RetunableTrafficModel::~RetunableTrafficModel() = default;
RetunableTrafficModel::RetunableTrafficModel(const RetunableTrafficModel& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}
RetunableTrafficModel& RetunableTrafficModel::operator=(
    const RetunableTrafficModel& other) {
  if (this != &other) impl_ = std::make_unique<Impl>(*other.impl_);
  return *this;
}
RetunableTrafficModel::RetunableTrafficModel(RetunableTrafficModel&&) noexcept =
    default;
RetunableTrafficModel& RetunableTrafficModel::operator=(
    RetunableTrafficModel&&) noexcept = default;

const GeneralModel& RetunableTrafficModel::model() const { return impl_->net; }
GeneralModel& RetunableTrafficModel::model() { return impl_->net; }
const traffic::TrafficSpec& RetunableTrafficModel::spec() const {
  return impl_->spec;
}
bool RetunableTrafficModel::collapsed() const { return impl_->is_collapsed; }

void RetunableTrafficModel::set_uniform_lanes(int lanes) {
  WORMNET_EXPECTS(lanes >= 1);
  impl_->lanes_override = lanes;
  impl_->net.set_uniform_lanes(lanes);
}

void RetunableTrafficModel::set_uniform_buffers(int flits) {
  impl_->net.set_uniform_buffers(flits);  // throws first on flits < 1
  impl_->buffers_override = flits;
}

void RetunableTrafficModel::scale_bandwidths(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("scale_bandwidths: factor must be > 0");
  impl_->scale_model_bandwidths(factor);
  impl_->bandwidth_scale *= factor;
}

void RetunableTrafficModel::scale_injection_rates(double factor) {
  impl_->load_scale *= factor;
  impl_->net.scale_injection_rates(factor);
}

void RetunableTrafficModel::set_injection_process(
    const arrivals::ArrivalSpec& process, double lambda0) {
  impl_->net.set_injection_process(process, lambda0);
  impl_->tuned_ca2 = impl_->net.injection_ca2;
  impl_->tuned_residual = impl_->net.injection_batch_residual;
}

void RetunableTrafficModel::set_injection_ca2(double ca2) {
  impl_->net.set_injection_ca2(ca2);
  impl_->tuned_ca2 = ca2;
  impl_->tuned_residual = 0.0;
}

RetuneReport RetunableTrafficModel::retune_traffic(
    const traffic::TrafficSpec& new_spec) {
  WORMNET_SPAN("retune_traffic", "retune");
  Impl& im = *impl_;
  const int procs = im.topo->num_processors();
  WORMNET_EXPECTS(new_spec.check(procs).empty());

  RetuneReport report;
  // A spec that still respects the symmetry retunes as one pass per
  // destination orbit against O(classes) state — not a dense rebuild,
  // whatever mode the resident was in before.  A collapsed resident moving
  // to a dense spec has no dense flow state to delta against: it rebuilds.
  std::optional<GeneralModel> collapsed = im.collapse(new_spec, report);
  if (collapsed || im.is_collapsed) {
    im.rebuild(new_spec, std::move(collapsed), report);
    report.collapsed = im.is_collapsed;
    report.rebuilt = !im.is_collapsed;
    return report;
  }
  const topo::Topology& rt = im.routing_topo();

  // Dense delta: diff the two specs into signed per-destination seeds.  A
  // pair participates when its weight changed OR its source's injection
  // split changed (frac = w / injection_weight enters the QNA self-mass
  // even where the weight itself did not move).
  const traffic::TrafficSpec& old_spec = im.spec;
  std::vector<double> injw_old(static_cast<std::size_t>(procs), 0.0);
  std::vector<double> injw_new(static_cast<std::size_t>(procs), 0.0);
  for (int s = 0; s < procs; ++s) {
    injw_old[static_cast<std::size_t>(s)] = old_spec.injection_weight(s, procs);
    injw_new[static_cast<std::size_t>(s)] = new_spec.injection_weight(s, procs);
  }
  std::vector<std::vector<Seed>> seeds(static_cast<std::size_t>(procs));
  long changed = 0;
  double d_total = 0.0;       // Σ (w_new − w_old) over all pairs
  double d_unroutable = 0.0;  // same, over pairs with no surviving path
  for (int d = 0; d < procs; ++d) {
    for (int s = 0; s < procs; ++s) {
      if (s == d) continue;
      const double w_old = old_spec.pair_weight(s, d, procs);
      const double w_new = new_spec.pair_weight(s, d, procs);
      d_total += w_new - w_old;
      // The cold build never seeded unreachable pairs (faulted fabrics), so
      // the delta must not either — only their demand accounting moves.
      if (!rt.reachable(s, d)) {
        d_unroutable += w_new - w_old;
        continue;
      }
      // Same product order as the cold seeds (frac first, then w·frac) so a
      // pure sign flip reproduces the original contribution bit for bit.
      double self_old = 0.0;
      if (w_old > 0.0) {
        const double frac = w_old / injw_old[static_cast<std::size_t>(s)];
        self_old = w_old * frac;
      }
      double self_new = 0.0;
      if (w_new > 0.0) {
        const double frac = w_new / injw_new[static_cast<std::size_t>(s)];
        self_new = w_new * frac;
      }
      const double dflow = w_new - w_old;
      const double dself = self_new - self_old;
      if (dflow == 0.0 && dself == 0.0) continue;
      seeds[static_cast<std::size_t>(d)].push_back(
          {s, topo::kNoChannel, dflow, dself});
      ++changed;
    }
  }
  report.changed_pairs = changed;

  // A delta touching most of the matrix re-runs nearly every destination
  // pass with nearly every seed — at that point the sharded cold rebuild is
  // both faster and residue-free.
  if (changed > static_cast<long>(procs) * procs / 4) {
    im.rebuild(new_spec, std::nullopt, report);
    report.rebuilt = true;
    return report;
  }

  DenseFlowState& st = im.state;
  st.flow.total_weight += d_total;
  st.flow.unroutable_weight += d_unroutable;
  if (changed > 0) {
    DestinationPass pass(im.topo->num_nodes());
    DenseSink sink{st.flow, st.onward_off};
    for (int d = 0; d < procs; ++d) {
      const std::vector<Seed>& dseeds = seeds[static_cast<std::size_t>(d)];
      if (dseeds.empty()) continue;
      for (const Seed& sd : dseeds) {
        if (sd.flow != 0.0) {
          st.flow.weighted_distance += sd.flow * rt.distance(sd.node, d);
        }
      }
      report.nodes_visited += propagate_column(rt, im.ct, d, dseeds, pass, sink);
      ++report.passes;
    }
    snap_residues(st);
  }

  // Cheap O(channels + transitions) tail: re-derive the model from the
  // updated flow state (also refreshes the spec-dependent name, injection
  // classes and mean distance).
  im.net = assemble_dense(rt, im.ct, new_spec, im.opts, st);
  im.is_collapsed = false;
  im.spec = new_spec;
  im.apply_tunes();
  return report;
}

RetuneReport RetunableTrafficModel::retune_faults(
    std::shared_ptr<const topo::FaultSet> faults) {
  WORMNET_SPAN("retune_faults", "retune");
  Impl& im = *impl_;
  const int procs = im.topo->num_processors();
  if (faults && faults->empty()) faults.reset();  // empty set == healthy
  if (faults) WORMNET_EXPECTS(&faults->topology() == im.topo);

  RetuneReport report;
  const std::uint64_t old_digest = im.fault_set ? im.fault_set->digest() : 0;
  const std::uint64_t new_digest = faults ? faults->digest() : 0;
  if (old_digest == new_digest) return report;  // same degraded state: no-op

  std::shared_ptr<const topo::FaultedTopology> new_view;
  if (faults)
    new_view = std::make_shared<const topo::FaultedTopology>(*im.topo, *faults,
                                                             im.build.threads);

  // Destinations whose routing differs between the outgoing and incoming
  // views — the union is exactly the set of columns to re-propagate.
  std::vector<char> is_affected(static_cast<std::size_t>(procs), 0);
  if (im.faulted)
    for (int d : im.faulted->affected_destinations())
      is_affected[static_cast<std::size_t>(d)] = 1;
  if (new_view)
    for (int d : new_view->affected_destinations())
      is_affected[static_cast<std::size_t>(d)] = 1;

  if (im.is_collapsed) {
    // A collapsed resident has no dense flow state to delta against; entering
    // a degraded state rebuilds dense (faults void the symmetry), returning
    // to healthy rebuilds through the collapsed entry again and may
    // collapse.  QueryEngine serves single-link faults per link orbit, so an
    // N-1 sweep pays one such dense rebuild per orbit representative;
    // building the faulted model collapsed instead is ROADMAP "Collapsed
    // fault what-ifs".  The fallback never passes silently: a Rebuild
    // cost-class counter in the global registry and a one-shot Warn naming
    // the broken symmetry class.
    const std::string broken_name = im.net.model_name;
    const int broken_classes = im.net.graph.size();
    im.fault_set = std::move(faults);
    im.faulted = std::move(new_view);
    RetuneReport cold;  // the report counts delta passes only
    im.rebuild(im.spec, im.collapse(im.spec, cold), cold);
    report.rebuilt = true;
    report.collapsed = im.is_collapsed;
    obs::Registry::global()
        .counter("wormnet_collapsed_fault_dense_rebuilds_total",
                 "reason=broken-symmetry")
        .inc();
    if (!im.warned_collapsed_fault) {
      im.warned_collapsed_fault = true;
      WORMNET_LOG_SUB(Core, Warn)
          << "collapsed resident '" << broken_name
          << "' fell back to a dense rebuild on its first degraded query: "
          << "the fault breaks its declared symmetry (" << broken_classes
          << " quotient classes -> " << im.net.graph.size()
          << " dense classes); N-1 sweeps on this resident pay one dense "
          << "rebuild per link-orbit representative (ROADMAP: Collapsed fault "
          << "what-ifs)";
    }
    return report;
  }

  // Dense fault delta: per affected destination, a frontier-bounded
  // retract-and-re-add — the DP is linear in its seeds, and everything
  // upstream of the nodes whose routing changed contributes identically
  // under both views.  Phase 1 finds every column's delta
  // (find_column_delta) in fixed shards, each column into its own slot;
  // phase 2 applies them serially in destination order, so the flow state
  // is added to exactly as a serial column loop adds to it, whatever ran
  // phase 1.  Never escalates to a rebuild: availability sweeps rely on
  // the cost class staying Retune for every scenario.  Total demand is
  // fault-invariant; only its unroutable share and the distances of the
  // sources whose routes moved change.
  const FaultSide from{&im.routing_topo(), im.faulted.get()};
  const FaultSide to{new_view ? static_cast<const topo::Topology*>(new_view.get())
                              : im.topo,
                     new_view.get()};
  std::vector<int> columns;
  for (int d = 0; d < procs; ++d)
    if (is_affected[static_cast<std::size_t>(d)]) columns.push_back(d);
  const int num_columns = static_cast<int>(columns.size());
  std::vector<ColumnDelta> deltas(columns.size());
  // Shard j takes every 16th column from j: neighbouring destinations cost
  // alike, so striding spreads the expensive ones.  Which shard finds a
  // column never reaches its delta.
  const int num_shards = std::min(num_columns, 16);
  util::run_shards(im.build.threads, procs, num_shards, [&](std::int64_t j) {
    FrontierScratch scratch(im.topo->num_nodes());
    for (int k = static_cast<int>(j); k < num_columns; k += num_shards) {
      find_column_delta(from, to, im.ct, im.spec,
                        columns[static_cast<std::size_t>(k)], scratch,
                        deltas[static_cast<std::size_t>(k)]);
    }
  });

  DenseFlowState& st = im.state;
  DestinationPass pass(im.topo->num_nodes());
  for (int k = 0; k < num_columns; ++k) {
    const ColumnDelta& delta = deltas[static_cast<std::size_t>(k)];
    report.nodes_visited +=
        delta.walked + apply_column_delta(from, to, im.ct,
                                          columns[static_cast<std::size_t>(k)],
                                          delta, st, pass);
  }
  report.changed_pairs = num_columns;  // here: changed destination COLUMNS
  report.passes = 2 * num_columns;     // one retract and one re-add each
  snap_residues(st);

  im.fault_set = std::move(faults);
  im.faulted = std::move(new_view);
  im.net = assemble_dense(im.routing_topo(), im.ct, im.spec, im.opts, st);
  im.apply_tunes();
  return report;
}

const topo::FaultSet* RetunableTrafficModel::faults() const {
  return impl_->fault_set.get();
}

const topo::Topology& RetunableTrafficModel::routing_topology() const {
  return impl_->routing_topo();
}

std::string check_collapsed_parity(const topo::Topology& topo,
                                   const traffic::TrafficSpec& spec,
                                   const GeneralModel& collapsed,
                                   const SolveOptions& opts) {
  WORMNET_EXPECTS(!collapsed.channel_class_of.empty());
  const GeneralModel dense = build_traffic_model(topo, spec, opts, {});
  if (static_cast<int>(collapsed.channel_class_of.size()) !=
      dense.graph.size()) {
    std::ostringstream out;
    out << "channel count mismatch: collapsed maps "
        << collapsed.channel_class_of.size() << " channels, topology has "
        << dense.graph.size();
    return out.str();
  }
  const auto disagree = [](double a, double b) {
    return std::abs(a - b) >
           1e-9 * std::max(std::abs(a), std::abs(b)) + 1e-12;
  };
  for (int ch = 0; ch < dense.graph.size(); ++ch) {
    const int c = collapsed.channel_class_of[static_cast<std::size_t>(ch)];
    if (c < 0 || c >= collapsed.graph.size()) {
      std::ostringstream out;
      out << "channel " << dense.graph.at(ch).label << " maps to class " << c
          << ", out of range";
      return out.str();
    }
    const ChannelClass& q = collapsed.graph.at(c);
    const ChannelClass& d = dense.graph.at(ch);
    if (disagree(q.rate_per_link, d.rate_per_link)) {
      std::ostringstream out;
      out << "class " << q.label << " rate " << q.rate_per_link
          << " disagrees with member channel " << d.label << " rate "
          << d.rate_per_link << " — the partition is not a routing symmetry";
      return out.str();
    }
    if (disagree(q.self_frac, d.self_frac)) {
      std::ostringstream out;
      out << "class " << q.label << " self_frac " << q.self_frac
          << " disagrees with member channel " << d.label << " self_frac "
          << d.self_frac << " — the partition is not a routing symmetry";
      return out.str();
    }
  }
  return "";
}

}  // namespace wormnet::core
