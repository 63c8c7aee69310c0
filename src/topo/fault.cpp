#include "topo/fault.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::topo {

namespace {

std::string link_name(int node, int port) {
  std::ostringstream out;
  out << "(" << node << ", " << port << ")";
  return out.str();
}

}  // namespace

// -- FaultSet ----------------------------------------------------------------

std::pair<int, int> FaultSet::canonical(int node, int port) const {
  const int peer = topo_->neighbor(node, port);
  const int peer_port = topo_->neighbor_port(node, port);
  if (peer < node || (peer == node && peer_port < port))
    return {peer, peer_port};
  return {node, port};
}

void FaultSet::check_link(int node, int port) const {
  if (node < 0 || node >= topo_->num_nodes())
    throw std::invalid_argument("FaultSet: node " + std::to_string(node) +
                                " out of range for " + topo_->name());
  if (port < 0 || port >= topo_->num_ports(node))
    throw std::invalid_argument("FaultSet: port " + std::to_string(port) +
                                " out of range at node " + std::to_string(node));
  const int peer = topo_->neighbor(node, port);
  if (peer == kNoNode)
    throw std::invalid_argument("FaultSet: no link at " + link_name(node, port));
  if (topo_->is_processor(node) || topo_->is_processor(peer))
    throw std::invalid_argument(
        "FaultSet: link at " + link_name(node, port) +
        " is an injection/ejection channel; processor attachment links "
        "cannot fail (fail the switch's up-links to isolate a block)");
  if (link_failed(node, port))
    throw std::invalid_argument("FaultSet: link at " + link_name(node, port) +
                                " is already failed");
}

void FaultSet::fail_link(int node, int port) {
  check_link(node, port);
  links_.push_back(canonical(node, port));
}

void FaultSet::fail_switch(int node) {
  if (node < 0 || node >= topo_->num_nodes())
    throw std::invalid_argument("FaultSet: switch " + std::to_string(node) +
                                " out of range for " + topo_->name());
  if (topo_->is_processor(node))
    throw std::invalid_argument("FaultSet: node " + std::to_string(node) +
                                " is a processor, not a switch");
  // Validate every connected link BEFORE failing any, so a rejected switch
  // leaves the set untouched.
  for (int p = 0; p < topo_->num_ports(node); ++p)
    if (topo_->neighbor(node, p) != kNoNode) check_link(node, p);
  for (int p = 0; p < topo_->num_ports(node); ++p)
    if (topo_->neighbor(node, p) != kNoNode) fail_link(node, p);
  switches_.push_back(node);
}

bool FaultSet::link_failed(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < topo_->num_nodes());
  WORMNET_EXPECTS(port >= 0 && port < topo_->num_ports(node));
  if (topo_->neighbor(node, port) == kNoNode) return false;
  return std::find(links_.begin(), links_.end(), canonical(node, port)) !=
         links_.end();
}

std::uint64_t FaultSet::digest() const {
  // XOR of per-link digests: order-insensitive, so two routes to the same
  // set (switch expansion vs explicit links) collide as they should.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [node, port] : links_) {
    std::uint64_t one = util::hash_mix(0xfau, static_cast<std::uint64_t>(node));
    one = util::hash_mix(one, static_cast<std::uint64_t>(port));
    h ^= one;
  }
  return util::hash_mix(h, static_cast<std::uint64_t>(links_.size()));
}

// -- FaultedTopology ---------------------------------------------------------

FaultedTopology::FaultedTopology(const Topology& base, const FaultSet& faults,
                                 unsigned threads)
    : base_(&base), faults_(&faults), table_(base) {
  WORMNET_EXPECTS(&faults.topology() == &base);
  // Inherit the base's uniform attribute defaults so the decorator's own
  // default virtuals (never called — all overridden) stay consistent.
  set_uniform_lanes(base.uniform_lanes());

  const int procs = base.num_processors();
  const int nodes = base.num_nodes();
  affected_index_.assign(static_cast<std::size_t>(procs), -1);

  // One dead bit per directed channel: the BFS and route() read neighbours,
  // ports and bundles from the channel table, and this bit, per edge.
  dead_.assign(static_cast<std::size_t>(table_.size()), 0);
  for (const auto& [node, port] : faults.failed_links()) {
    const int ch = table_.from(node, port);
    dead_[static_cast<std::size_t>(ch)] = 1;
    dead_[static_cast<std::size_t>(table_.reverse(ch))] = 1;
    failed_ends_.push_back(node);
    failed_ends_.push_back(table_.at(ch).dst_node);
  }
  std::sort(failed_ends_.begin(), failed_ends_.end());
  failed_ends_.erase(std::unique(failed_ends_.begin(), failed_ends_.end()),
                     failed_ends_.end());

  // A destination is affected iff a failed link sits on some base minimal
  // route toward it: one of the link's directed channels is a route()
  // candidate at its source node.  Exact for minimal routing — the DP only
  // ever walks route() candidates.
  for (int d = 0; d < procs; ++d) {
    bool hit = false;
    for (const auto& [node, port] : faults.failed_links()) {
      const int peer = base.neighbor(node, port);
      const int peer_port = base.neighbor_port(node, port);
      if (base.route(node, d).contains(port) ||
          base.route(peer, d).contains(peer_port)) {
        hit = true;
        break;
      }
    }
    if (hit) {
      affected_index_[static_cast<std::size_t>(d)] =
          static_cast<int>(affected_.size());
      affected_.push_back(d);
    }
  }

  // One frontier per affected destination, each into its own slot, in 16
  // fixed shards of consecutive destinations (neighbours share a switch,
  // and with it most of a healthy BFS — see build_frontier), each with its
  // own scratch.  A frontier is a function of (base, faults, dest) alone,
  // so the view is the same whatever ran the shards.
  frontiers_.resize(affected_.size());
  const int num_affected = static_cast<int>(affected_.size());
  const int num_shards = std::min(num_affected, 16);
  util::run_shards(threads, procs, num_shards, [&](std::int64_t j) {
    BfsScratch scratch;
    scratch.mark.assign(static_cast<std::size_t>(nodes), 0);
    const int lo = static_cast<int>(j) * num_affected / num_shards;
    const int hi = (static_cast<int>(j) + 1) * num_affected / num_shards;
    for (int i = lo; i < hi; ++i)
      build_frontier(affected_[static_cast<std::size_t>(i)],
                     frontiers_[static_cast<std::size_t>(i)], scratch);
  });

  // Unreachable pairs and the mean survivor distance over reachable ordered
  // pairs: the base total corrected for the processors whose distance
  // changed.  Only those can differ (an unchanged processor's −base +base
  // pair is exact), and all of them are in the frontier tables, so this is
  // the full per-pair correction in the same order.
  const double pairs = static_cast<double>(procs) * (procs - 1);
  double total = base.mean_distance() * pairs;
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    const int d = affected_[i];
    for (const auto& [s, ds] : frontiers_[i].dist) {
      if (s >= procs) break;  // ascending: processors come first
      if (s == d) continue;
      const int bs = base.distance(s, d);
      if (ds == bs) continue;
      total -= static_cast<double>(bs);
      if (ds >= 0) {
        total += static_cast<double>(ds);
      } else {
        ++unreachable_pairs_;
      }
    }
  }
  const double live_pairs = pairs - static_cast<double>(unreachable_pairs_);
  mean_distance_ = live_pairs > 0.0 ? total / live_pairs : 0.0;
}

void FaultedTopology::build_frontier(int d, Frontier& f,
                                     BfsScratch& s) const {
  const int procs = num_processors();
  const int nodes = num_nodes();
  std::vector<int>& dist = s.dist;
  std::vector<int>& queue = s.queue;
  std::vector<char>& mark = s.mark;
  // A processor other than d never transits traffic.
  const auto transits = [&](int v) { return v >= procs || v == d; };

  // 1. Healthy backward BFS: dist[v] = channels from v to consumption at d
  //    (the ejection channel counts, matching Topology::distance's
  //    convention).  Processors other than d are reached from their switch
  //    and relax nothing further, so they are never queued.  Hence when the
  //    scratch holds the distances toward a processor on the same one switch
  //    as d, only the two processors' entries differ: d's is 0, the other's
  //    2 (up to the switch, down to d).
  const auto sole_switch = [&](int p) {
    const auto edges = table_.out_channels(p);
    return edges.last - edges.first == 1 ? edges[edges.first].dst_node
                                         : kNoNode;
  };
  if (s.dest >= 0 && sole_switch(d) != kNoNode &&
      sole_switch(d) == sole_switch(s.dest)) {
    dist[static_cast<std::size_t>(s.dest)] = 2;
    dist[static_cast<std::size_t>(d)] = 0;
  } else {
    dist.assign(static_cast<std::size_t>(nodes), -1);
    dist[static_cast<std::size_t>(d)] = 0;
    queue.assign(1, d);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      const int dv = dist[static_cast<std::size_t>(v)];
      const auto edges = table_.out_channels(v);
      for (int k = edges.first; k < edges.last; ++k) {
        const int u = edges[k].dst_node;
        if (dist[static_cast<std::size_t>(u)] >= 0) continue;
        dist[static_cast<std::size_t>(u)] = dv + 1;
        if (transits(u)) queue.push_back(u);
      }
    }
  }
  s.dest = d;

  // 2. Decremental repair.  Removing links only lengthens distances, and a
  //    node keeps its distance iff an in-service link leads to a transiting
  //    neighbor one step closer that kept its own.  Check the failed links'
  //    endpoints in increasing healthy distance; a node that lost every such
  //    parent is `lost`, and its children one step farther become suspects.
  using Entry = std::pair<int, int>;  // (distance, node), popped smallest first
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  // `mark` (all 0 between calls): 1 = suspect, 2 = lost.  `queue` now
  // records the suspects so the marks can be cleared at the end.
  queue.clear();
  std::vector<int> lost;
  const auto suspect = [&](int v) {
    if (v == d || mark[static_cast<std::size_t>(v)] != 0) return;
    if (dist[static_cast<std::size_t>(v)] < 0) return;  // base-unreachable
    mark[static_cast<std::size_t>(v)] = 1;
    queue.push_back(v);
    heap.emplace(dist[static_cast<std::size_t>(v)], v);
  };
  for (const int v : failed_ends_) suspect(v);
  while (!heap.empty()) {
    const auto [level, v] = heap.top();
    heap.pop();
    bool kept = false;
    const auto edges = table_.out_channels(v);
    for (int k = edges.first; k < edges.last && !kept; ++k) {
      const int u = edges[k].dst_node;
      kept = !dead_[static_cast<std::size_t>(k)] && transits(u) &&
             mark[static_cast<std::size_t>(u)] != 2 &&
             dist[static_cast<std::size_t>(u)] == level - 1;
    }
    if (kept) continue;
    mark[static_cast<std::size_t>(v)] = 2;
    lost.push_back(v);
    if (!transits(v)) continue;
    for (int k = edges.first; k < edges.last; ++k) {
      const int w = edges[k].dst_node;
      if (dist[static_cast<std::size_t>(w)] == level + 1) suspect(w);
    }
  }

  //    Re-derive the lost nodes' distances: unit-weight Dijkstra seeded from
  //    the kept boundary (whose distances are final); a lost node no kept
  //    node reaches stays -1, unreachable.  Their healthy distances are
  //    restored at the end, for the next destination.
  std::vector<int> healthy(lost.size());
  for (std::size_t i = 0; i < lost.size(); ++i) {
    healthy[i] = dist[static_cast<std::size_t>(lost[i])];
    dist[static_cast<std::size_t>(lost[i])] = -1;
  }
  for (const int v : lost) {
    int best = -1;
    const auto edges = table_.out_channels(v);
    for (int k = edges.first; k < edges.last; ++k) {
      const int u = edges[k].dst_node;
      if (dead_[static_cast<std::size_t>(k)] || !transits(u) ||
          mark[static_cast<std::size_t>(u)] == 2)
        continue;
      const int du = dist[static_cast<std::size_t>(u)];
      if (du >= 0 && (best < 0 || du + 1 < best)) best = du + 1;
    }
    if (best >= 0) heap.emplace(best, v);
  }
  while (!heap.empty()) {
    const auto [dv, v] = heap.top();
    heap.pop();
    if (dist[static_cast<std::size_t>(v)] >= 0) continue;  // already final
    dist[static_cast<std::size_t>(v)] = dv;
    if (!transits(v)) continue;
    const auto edges = table_.out_channels(v);
    for (int k = edges.first; k < edges.last; ++k) {
      const int w = edges[k].dst_node;
      if (!dead_[static_cast<std::size_t>(k)] &&
          mark[static_cast<std::size_t>(w)] == 2 &&
          dist[static_cast<std::size_t>(w)] < 0)
        heap.emplace(dv + 1, w);
    }
  }

  // 3. Frontier candidates: the lost nodes, their neighbours, and the failed
  //    links' endpoints.  Outside this set every node keeps its distance and
  //    sees only kept neighbours over in-service links, so its survivor
  //    candidates are its base-minimal ports.
  const auto add_neighbours = [&](std::vector<int>& set) {
    const std::size_t members = set.size();
    for (std::size_t i = 0; i < members; ++i) {
      const auto edges = table_.out_channels(set[i]);
      for (int k = edges.first; k < edges.last; ++k)
        set.push_back(edges[k].dst_node);
    }
  };
  const auto sort_unique = [](std::vector<int>& set) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  };
  f.candidates = lost;
  add_neighbours(f.candidates);
  f.candidates.insert(f.candidates.end(), failed_ends_.begin(),
                      failed_ends_.end());
  sort_unique(f.candidates);

  // 4. Keep the distances route() reads at the candidates — theirs and
  //    their neighbours' (a superset of every changed distance).
  std::vector<int> read = f.candidates;
  add_neighbours(read);
  sort_unique(read);
  f.dist.clear();
  f.dist.reserve(read.size());
  for (const int v : read)
    f.dist.emplace_back(v, dist[static_cast<std::size_t>(v)]);
  for (const int v : queue) mark[static_cast<std::size_t>(v)] = 0;
  for (std::size_t i = 0; i < lost.size(); ++i)
    dist[static_cast<std::size_t>(lost[i])] = healthy[i];
}

std::string FaultedTopology::name() const {
  std::ostringstream out;
  out << base_->name() << " - " << faults_->failed_links().size()
      << " failed link(s)";
  return out.str();
}

bool FaultedTopology::reachable(int src_proc, int dst_proc) const {
  WORMNET_EXPECTS(src_proc >= 0 && src_proc < num_processors());
  WORMNET_EXPECTS(dst_proc >= 0 && dst_proc < num_processors());
  if (src_proc == dst_proc) return true;
  return can_reach(src_proc, dst_proc);
}

bool FaultedTopology::can_reach(int node, int dest) const {
  if (!destination_affected(dest)) return true;
  const int* dn = frontier_distance(node, dest);
  return dn == nullptr || *dn >= 0;
}

const int* FaultedTopology::frontier_distance(int node, int dest) const {
  const std::vector<std::pair<int, int>>& dist = frontier(dest).dist;
  const auto it = std::lower_bound(
      dist.begin(), dist.end(), node,
      [](const std::pair<int, int>& e, int n) { return e.first < n; });
  return it != dist.end() && it->first == node ? &it->second : nullptr;
}

RouteOptions FaultedTopology::route(int node, int dest) const {
  WORMNET_EXPECTS(dest >= 0 && dest < num_processors());
  if (!destination_affected(dest) || !frontier_candidate(node, dest))
    return base_->route(node, dest);
  RouteOptions out;
  if (node == dest) return out;
  if (node < num_processors()) {
    out.add(0);  // injection channels never fail
    return out;
  }
  const auto dist_of = [&](int v) {
    const int* dv = frontier_distance(v, dest);
    WORMNET_ENSURES(dv != nullptr);  // candidates and their neighbours
    return *dv;
  };
  const int dn = dist_of(node);
  // The DP and the simulator only stand worms at nodes that can still reach
  // their destination (unroutable demand is dropped at the source).
  WORMNET_EXPECTS(dn > 0);
  // In-service ports making strictly-minimal survivor progress, restricted
  // to the bundle of the first such port so the candidates stay inside ONE
  // arbitration group (the simulator's single-bundle invariant; lowest port
  // first keeps model and simulator deterministic and identical).
  int bundle = -1;
  const auto edges = table_.out_channels(node);
  for (int k = edges.first; k < edges.last; ++k) {
    if (dead_[static_cast<std::size_t>(k)]) continue;
    const int v = edges[k].dst_node;
    if (v < num_processors() && v != dest) continue;  // never enter a wrong PE
    if (dist_of(v) != dn - 1) continue;
    const int b = table_.bundle(k);
    if (bundle < 0) bundle = b;
    if (b == bundle && out.size() < 4) out.add(edges[k].src_port);
  }
  WORMNET_ENSURES(out.size() > 0);
  return out;
}

std::array<double, 4> FaultedTopology::route_split(
    int node, int dest, const RouteOptions& opts) const {
  // Outside the frontier the base policy holds bit-identically; detoured
  // candidates get the uniform adaptive split (the base policy's bias was
  // derived for its own candidate set).
  if (!destination_affected(dest) || !frontier_candidate(node, dest))
    return base_->route_split(node, dest, opts);
  return Topology::route_split(node, dest, opts);
}

bool FaultedTopology::frontier_candidate(int node, int dest) const {
  const std::vector<int>& cands = frontier(dest).candidates;
  return std::binary_search(cands.begin(), cands.end(), node);
}

const std::vector<int>& FaultedTopology::frontier_candidates(int dest) const {
  WORMNET_EXPECTS(dest >= 0 && dest < num_processors());
  static const std::vector<int> kNone;
  if (!destination_affected(dest)) return kNone;
  return frontier(dest).candidates;
}

int FaultedTopology::distance(int src_proc, int dst_proc) const {
  WORMNET_EXPECTS(src_proc >= 0 && src_proc < num_processors());
  WORMNET_EXPECTS(dst_proc >= 0 && dst_proc < num_processors());
  if (src_proc == dst_proc) return 0;
  if (!destination_affected(dst_proc)) return base_->distance(src_proc, dst_proc);
  const int* d = frontier_distance(src_proc, dst_proc);
  if (d == nullptr) return base_->distance(src_proc, dst_proc);
  WORMNET_EXPECTS(*d >= 0);  // precondition: reachable(src, dst)
  return *d;
}

double FaultedTopology::mean_distance() const { return mean_distance_; }

std::optional<std::pair<int, int>> FaultedTopology::first_unreachable_pair()
    const {
  const int procs = num_processors();
  for (int s = 0; s < procs; ++s)
    for (int d = 0; d < procs; ++d)
      if (s != d && !reachable(s, d)) return std::make_pair(s, d);
  return std::nullopt;
}

double FaultedTopology::unreachable_pair_fraction() const {
  const double pairs =
      static_cast<double>(num_processors()) * (num_processors() - 1);
  return pairs > 0.0 ? static_cast<double>(unreachable_pairs_) / pairs : 0.0;
}

}  // namespace wormnet::topo
