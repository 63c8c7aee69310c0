#include "topo/butterfly_fattree.hpp"

#include <algorithm>
#include <sstream>

#include "util/math.hpp"

namespace wormnet::topo {

using util::base4_digit;
using util::ipow;

ButterflyFatTree::ButterflyFatTree(int levels, int parents)
    : levels_(levels), parents_(parents) {
  WORMNET_EXPECTS(levels >= 1 && levels <= 10);
  WORMNET_EXPECTS(parents >= 1 && parents <= 4);
  num_procs_ = static_cast<int>(ipow(4, levels));

  // Node layout: processors [0, N), then switches level by level;
  // level_offset_[levels + 1] closes the last level.
  level_offset_.assign(static_cast<std::size_t>(levels_ + 2), 0);
  int next = num_procs_;
  for (int l = 1; l <= levels_; ++l) {
    level_offset_[static_cast<std::size_t>(l)] = next;
    next += static_cast<int>(ipow(4, levels_ - l) * ipow(parents_, l - 1));
  }
  level_offset_[static_cast<std::size_t>(levels_ + 1)] = next;
  num_nodes_ = next;
  sw_.resize(static_cast<std::size_t>(num_nodes_ - num_procs_));
  for (int l = 1; l <= levels_; ++l) {
    const int group = static_cast<int>(ipow(parents_, l - 1));
    for (int a = 0; a < switches_at(l); ++a)
      sw_[static_cast<std::size_t>(switch_id(l, a) - num_procs_)] = {l, a / group};
  }
  ends_.assign(static_cast<std::size_t>(num_procs_) +
                   sw_.size() * static_cast<std::size_t>(4 + parents_),
               End{});
  for (int p = 0; p < parents_; ++p) up_route_.add(kParentPort0 + p);

  // Leaf wiring: processor a <-> child (a mod 4) of S(1, a/4).
  for (int a = 0; a < num_procs_; ++a) {
    connect(a, 0, switch_id(1, a / 4), a % 4);
  }

  // Internal wiring, the one rule.  For S(l, a) with l < n and block
  // b = a / m^(l-1):
  //   parent_p -> S(l+1, (b/4)*m^l + (a + p*m^(l-1)) mod m^l)
  //   at child index b mod 4.
  for (int l = 1; l < levels_; ++l) {
    const int group = static_cast<int>(ipow(parents_, l - 1));
    const int group_up = group * parents_;
    for (int a = 0; a < switches_at(l); ++a) {
      const int id = switch_id(l, a);
      const int b = info(id).block;
      for (int p = 0; p < parents_; ++p) {
        const int parent_addr = (b / 4) * group_up + (a + p * group) % group_up;
        connect(id, kParentPort0 + p, switch_id(l + 1, parent_addr), b % 4);
      }
    }
  }
}

void ButterflyFatTree::connect(int node_a, int port_a, int node_b, int port_b) {
  End& ea = ends_[slot(node_a, port_a)];
  End& eb = ends_[slot(node_b, port_b)];
  // The wiring rule must never assign two links to one port.
  WORMNET_ENSURES(ea.node == kNoNode);
  WORMNET_ENSURES(eb.node == kNoNode);
  ea = {node_b, port_b};
  eb = {node_a, port_a};
}

std::string ButterflyFatTree::name() const {
  std::ostringstream out;
  out << "butterfly-fat-tree(n=" << levels_;
  if (parents_ != 2) out << ", m=" << parents_;
  out << ", N=" << num_procs_ << ")";
  return out.str();
}

int ButterflyFatTree::switches_at(int level) const {
  WORMNET_EXPECTS(level >= 1 && level <= levels_);
  return level_offset_[static_cast<std::size_t>(level + 1)] -
         level_offset_[static_cast<std::size_t>(level)];
}

int ButterflyFatTree::switch_id(int level, int addr) const {
  WORMNET_EXPECTS(level >= 1 && level <= levels_);
  WORMNET_EXPECTS(addr >= 0 && addr < switches_at(level));
  return level_offset_[static_cast<std::size_t>(level)] + addr;
}

int ButterflyFatTree::node_level(int node) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes_);
  return node < num_procs_ ? 0 : info(node).level;
}

int ButterflyFatTree::switch_addr(int node) const {
  WORMNET_EXPECTS(node >= num_procs_ && node < num_nodes_);
  return node - level_offset_[static_cast<std::size_t>(info(node).level)];
}

int ButterflyFatTree::neighbor(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes_);
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  return ends_[slot(node, port)].node;
}

int ButterflyFatTree::neighbor_port(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes_);
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  return ends_[slot(node, port)].port;
}

bool ButterflyFatTree::covers(int level, int addr, int proc) const {
  WORMNET_EXPECTS(level >= 1 && level <= levels_);
  WORMNET_EXPECTS(addr >= 0 && addr < switches_at(level));
  WORMNET_EXPECTS(proc >= 0 && proc < num_procs_);
  // S(l, a) reaches processor block a / m^(l-1) of size 4^l.
  return (proc >> (2 * level)) == addr / ipow(parents_, level - 1);
}

int ButterflyFatTree::down_port(int level, int proc) {
  return base4_digit(proc, level - 1);
}

RouteOptions ButterflyFatTree::route(int node, int dest) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes_);
  WORMNET_EXPECTS(dest >= 0 && dest < num_procs_);
  RouteOptions out;
  if (node < num_procs_) {
    if (node != dest) out.add(0);  // injection channel
    return out;
  }
  const SwitchInfo& s = info(node);
  if ((dest >> (2 * s.level)) != s.block) {
    // Every parent link makes minimal progress; the adaptive policy and the
    // m-server queueing model both treat them as interchangeable.
    return up_route_;
  }
  out.add(down_port(s.level, dest));
  return out;
}

int ButterflyFatTree::lca_level(int s, int d) const {
  WORMNET_EXPECTS(s >= 0 && s < num_procs_);
  WORMNET_EXPECTS(d >= 0 && d < num_procs_);
  int l = 0;
  int ss = s;
  int dd = d;
  while (ss != dd) {
    ss >>= 2;
    dd >>= 2;
    ++l;
  }
  return l;
}

int ButterflyFatTree::distance(int src_proc, int dst_proc) const {
  // Up lca channels (incl. injection), down lca channels (incl. ejection).
  return 2 * lca_level(src_proc, dst_proc);
}

double ButterflyFatTree::mean_distance() const {
  // P(LCA = l) = 3 * 4^(l-1) / (4^n - 1); distance at LCA l is 2l.
  const double denom = static_cast<double>(ipow(4, levels_)) - 1.0;
  double sum = 0.0;
  for (int l = 1; l <= levels_; ++l) {
    sum += 2.0 * l * 3.0 * static_cast<double>(ipow(4, l - 1)) / denom;
  }
  return sum;
}

long ButterflyFatTree::links_between(int level_lo) const {
  WORMNET_EXPECTS(level_lo >= 0 && level_lo < levels_);
  if (level_lo == 0) return num_procs_;
  return static_cast<long>(switches_at(level_lo)) * parents_;
}

namespace {

// Key encoding for the symmetry hooks: tag in the top byte, level next,
// relation-to-pin aux in the low bits.  Only equality matters.
constexpr std::uint64_t kKeyInjection = 1;
constexpr std::uint64_t kKeyUp = 2;
constexpr std::uint64_t kKeyDown = 3;

std::uint64_t pack_key(std::uint64_t tag, std::uint64_t level, std::uint64_t aux) {
  return (tag << 56) | (level << 48) | aux;
}

}  // namespace

std::uint64_t ButterflyFatTree::proc_symmetry_key(
    int proc, const std::vector<int>& pinned_procs) const {
  if (pinned_procs.empty()) return 0;  // one orbit: all leaves equivalent
  const int h = pinned_procs.front();
  // Stabilizer orbits of h: h itself, then shells by LCA level (1..n).
  return static_cast<std::uint64_t>(proc == h ? 0 : lca_level(proc, h));
}

std::uint64_t ButterflyFatTree::channel_symmetry_key(
    int node, int port, const std::vector<int>& pinned_procs) const {
  if (node < num_procs_) {
    // Injection channel: refined by the source's orbit (its traffic's split
    // between up-phase and intra-block delivery depends on lca(·, h)).
    return pack_key(kKeyInjection, 0, proc_symmetry_key(node, pinned_procs));
  }
  const int l = node_level(node);
  const bool up = port >= kParentPort0;
  if (pinned_procs.empty()) {
    // The paper's per-level classes: (direction, level).
    return pack_key(up ? kKeyUp : kKeyDown, static_cast<std::uint64_t>(l), 0);
  }
  const int h = pinned_procs.front();
  const int block = info(node).block;
  const bool covers_h = (h >> (2 * l)) == block;
  if (up) {
    // Up channels out of h-covering switches are one orbit (the redundant-
    // switch permutations fixing every leaf act transitively on them);
    // otherwise the block's LCA level with h determines the orbit.
    const std::uint64_t aux =
        covers_h ? 0
                 : static_cast<std::uint64_t>(
                       1 + lca_level(block << (2 * l), h));
    return pack_key(kKeyUp, static_cast<std::uint64_t>(l), aux);
  }
  // Down channel via child port `port`: distinguish the child block holding
  // h, the other children of an h-covering switch, and — outside h's cover —
  // the block's LCA level with h.
  std::uint64_t aux;
  if (covers_h && down_port(l, h) == port) {
    aux = 0;
  } else if (covers_h) {
    aux = 1;
  } else {
    aux = static_cast<std::uint64_t>(2 + lca_level(block << (2 * l), h));
  }
  return pack_key(kKeyDown, static_cast<std::uint64_t>(l), aux);
}

bool ButterflyFatTree::route_orbits(const std::vector<int>& pinned_procs,
                                    int dest, std::vector<RouteOrbit>& out) const {
  out.clear();
  if (!has_symmetry(pinned_procs)) return false;
  WORMNET_EXPECTS(dest >= 0 && dest < num_procs_);
  const int h = pinned_procs.empty() ? dest : pinned_procs.front();

  // Blocks: the processors one level-l switch group covers (level 0: one
  // processor).  Fixing dest and h, the stabilizer permutes the sibling
  // blocks that hold neither, so walking down from the root and splitting
  // each block orbit's children into the one holding dest, the one holding
  // h and the rest visits every block orbit once, with its member count.
  struct BlockOrbit {
    int level;
    int block;  // representative block
    long blocks;
  };
  std::vector<BlockOrbit> blocks{{levels_, 0, 1}};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockOrbit b = blocks[i];
    if (b.level == 0) continue;
    const int first = 4 * b.block;
    const auto child_holding = [&](int t) {
      return (t >> (2 * b.level)) == b.block ? first + down_port(b.level, t) : -1;
    };
    const int cd = child_holding(dest);
    const int ch = child_holding(h);
    int rest = 4;
    if (cd >= 0) {
      blocks.push_back({b.level - 1, cd, b.blocks});
      --rest;
    }
    if (ch >= 0 && ch != cd) {
      blocks.push_back({b.level - 1, ch, b.blocks});
      --rest;
    }
    for (int c = first; c < first + 4; ++c) {
      if (c == cd || c == ch) continue;
      blocks.push_back({b.level - 1, c, b.blocks * rest});
      break;
    }
  }

  // A block's relation to a leaf t: their LCA level, clamped to the block's
  // own level when it covers t.  (level, relation to dest, relation to h)
  // names the orbit of every node of the block's level.
  const auto rel = [&](int level, int block, int t) {
    return std::max(level, lca_level(block << (2 * level), t));
  };
  const std::size_t span = static_cast<std::size_t>(levels_) + 1;
  const auto key = [&](int level, int block) {
    return (static_cast<std::size_t>(level) * span +
            static_cast<std::size_t>(rel(level, block, dest))) * span +
           static_cast<std::size_t>(rel(level, block, h));
  };
  // Distance to dest: 2a from a processor at LCA level a, l down from a
  // covering level-l switch, 2a − l up-then-down from any other.
  const auto distance_to_dest = [&](int level, int block) {
    const int a = rel(level, block, dest);
    return level == 0 ? 2 * a : (a == level ? level : 2 * a - level);
  };
  std::stable_sort(blocks.begin(), blocks.end(),
                   [&](const BlockOrbit& x, const BlockOrbit& y) {
                     return distance_to_dest(x.level, x.block) >
                            distance_to_dest(y.level, y.block);
                   });

  std::vector<int> index(span * span * span, -1);
  out.resize(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockOrbit& b = blocks[i];
    index[key(b.level, b.block)] = static_cast<int>(i);
    RouteOrbit& o = out[i];
    if (b.level == 0) {
      o.rep = b.block;
      o.size = b.blocks;
    } else {
      // The m^(l-1) switches of one block are one orbit: the redundant-
      // parent permutations fix every leaf.
      const long group = ipow(parents_, b.level - 1);
      o.rep = switch_id(b.level, static_cast<int>(b.block * group));
      o.size = b.blocks * group;
    }
  }
  for (RouteOrbit& o : out) {
    const RouteOptions opts = route(o.rep, dest);
    o.count = opts.size();
    if (o.count == 0) continue;
    const std::array<double, 4> split = route_split(o.rep, dest, opts);
    for (int i = 0; i < o.count; ++i) {
      const int port = opts[i];
      const int y = neighbor(o.rep, port);
      const int level = node_level(y);
      o.candidates[static_cast<std::size_t>(i)] = {
          port, split[static_cast<std::size_t>(i)],
          index[key(level, level == 0 ? y : info(y).block)]};
    }
  }
  return true;
}

std::vector<PortBundle> ButterflyFatTree::output_bundles(int node) const {
  std::vector<PortBundle> bundles;
  if (node < num_procs_) {
    PortBundle inj;
    inj.add(0);
    bundles.push_back(inj);
    return bundles;
  }
  for (int c = 0; c < 4; ++c) {
    PortBundle child;
    child.add(c);
    bundles.push_back(child);
  }
  if (neighbor(node, kParentPort0) != kNoNode) {
    // The redundant parents are one m-server bundle — at m = 2 the construct
    // the paper's M/G/2 treatment models.
    PortBundle up;
    for (int p = 0; p < parents_; ++p) up.add(kParentPort0 + p);
    bundles.push_back(up);
  }
  return bundles;
}

}  // namespace wormnet::topo
