#include "topo/symmetry.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace wormnet::topo {

namespace {

/// Keys numbered first-seen, with a one-entry cache: a node's ports, and
/// neighbouring processors, mostly share a key.
struct Numbering {
  std::unordered_map<std::uint64_t, int> id_of;
  std::vector<std::uint64_t> keys;
  std::uint64_t last_key = 0;
  int last = -1;
  bool added = false;

  int id(std::uint64_t key) {
    added = false;
    if (last >= 0 && key == last_key) return last;
    last_key = key;
    const auto it = id_of.find(key);
    if (it != id_of.end()) return last = it->second;
    added = true;
    last = static_cast<int>(keys.size());
    keys.push_back(key);
    id_of.emplace(key, last);
    return last;
  }
};

/// What every member of a class shares with its representative: the link
/// attributes (a mismatch refuses the partition) and the structure (a
/// mismatch breaks the topology's contract).
struct Attributes {
  double bandwidth;
  double link_latency;
  int buffer_depth;
  int lanes;
  bool from_processor;
  bool to_processor;

  bool refuses(const Attributes& rep) const {
    WORMNET_EXPECTS(lanes == rep.lanes &&
                    from_processor == rep.from_processor &&
                    to_processor == rep.to_processor);
    return bandwidth != rep.bandwidth || link_latency != rep.link_latency ||
           buffer_depth != rep.buffer_depth;
  }
};

/// One node range of the walk, numbered on its own.
struct Chunk {
  Numbering classes, orbits;
  std::vector<int> channel_class;  ///< per channel, chunk-local class ids
  std::vector<DirectedChannel> class_rep;
  std::vector<long> class_size;
  std::vector<Attributes> attr;
  std::vector<int> orbit_rep;
  std::vector<long> orbit_size;
  std::vector<int> global;  ///< chunk-local class id -> merged id
  bool refused = false;
};

}  // namespace

bool topology_symmetry(const Topology& topo,
                       const std::vector<int>& pinned_procs,
                       SymmetryClasses& out, unsigned threads) {
  out = SymmetryClasses{};
  if (!topo.has_symmetry(pinned_procs)) return false;
  const int nodes = topo.num_nodes();
  const int procs = topo.num_processors();
  for (int p : pinned_procs) WORMNET_EXPECTS(p >= 0 && p < procs);

  // Each chunk numbers its keys first-seen; merging the chunks in order
  // numbers them first-seen over the whole walk.
  const int num_chunks = std::min(nodes, 16);
  std::vector<Chunk> chunks(static_cast<std::size_t>(num_chunks));
  util::run_shards(threads, procs, num_chunks, [&](std::int64_t j) {
    Chunk& k = chunks[static_cast<std::size_t>(j)];
    const int lo = static_cast<int>(j * nodes / num_chunks);
    const int hi = static_cast<int>((j + 1) * nodes / num_chunks);
    k.channel_class.reserve(2 * static_cast<std::size_t>(hi - lo));
    for (int node = lo; node < hi; ++node) {
      const int ports = topo.num_ports(node);
      if (node < procs) {
        WORMNET_EXPECTS(ports == 1);
        const int o = k.orbits.id(topo.proc_symmetry_key(node, pinned_procs));
        if (k.orbits.added) {
          k.orbit_rep.push_back(node);
          k.orbit_size.push_back(0);
        }
        ++k.orbit_size[static_cast<std::size_t>(o)];
      }
      for (int port = 0; port < ports; ++port) {
        const int far = topo.neighbor(node, port);
        if (far == kNoNode) {
          WORMNET_EXPECTS(node >= procs);
          continue;
        }
        const int c =
            k.classes.id(topo.channel_symmetry_key(node, port, pinned_procs));
        const Attributes a{topo.bandwidth(node, port),
                           topo.link_latency(node, port),
                           topo.buffer_depth(node, port),
                           topo.lanes(node, port),
                           node < procs,
                           far < procs};
        if (k.classes.added) {
          k.class_rep.push_back(
              {node, port, far, topo.neighbor_port(node, port)});
          k.class_size.push_back(0);
          k.attr.push_back(a);
        }
        ++k.class_size[static_cast<std::size_t>(c)];
        if (a.refuses(k.attr[static_cast<std::size_t>(c)])) {
          k.refused = true;
          return;
        }
        k.channel_class.push_back(c);
      }
    }
  });

  Numbering classes;
  Numbering orbits;
  std::vector<Attributes> attr;
  std::size_t channels = 0;
  for (Chunk& k : chunks) {
    if (k.refused) {
      out = SymmetryClasses{};
      return false;
    }
    for (std::size_t i = 0; i < k.orbit_rep.size(); ++i) {
      const int o = orbits.id(k.orbits.keys[i]);
      if (orbits.added) {
        out.orbit_rep.push_back(k.orbit_rep[i]);
        out.orbit_size.push_back(0);
      }
      out.orbit_size[static_cast<std::size_t>(o)] += k.orbit_size[i];
    }
    for (std::size_t i = 0; i < k.class_rep.size(); ++i) {
      const int c = classes.id(k.classes.keys[i]);
      if (classes.added) {
        out.class_rep.push_back(k.class_rep[i]);
        out.class_size.push_back(0);
        attr.push_back(k.attr[i]);
      } else if (k.attr[i].refuses(attr[static_cast<std::size_t>(c)])) {
        out = SymmetryClasses{};
        return false;
      }
      out.class_size[static_cast<std::size_t>(c)] += k.class_size[i];
      k.global.push_back(c);
    }
    channels += k.channel_class.size();
  }
  out.num_proc_orbits = static_cast<int>(out.orbit_rep.size());
  out.num_channel_classes = static_cast<int>(out.class_rep.size());
  out.class_of_key = std::move(classes.id_of);

  out.channel_class.resize(channels);
  std::vector<std::size_t> offset(chunks.size() + 1, 0);
  for (std::size_t j = 0; j < chunks.size(); ++j)
    offset[j + 1] = offset[j] + chunks[j].channel_class.size();
  util::run_shards(threads, procs, num_chunks, [&](std::int64_t j) {
    const Chunk& k = chunks[static_cast<std::size_t>(j)];
    int* dst = out.channel_class.data() + offset[static_cast<std::size_t>(j)];
    for (std::size_t i = 0; i < k.channel_class.size(); ++i)
      dst[i] = k.global[static_cast<std::size_t>(k.channel_class[i])];
  });
  return true;
}

}  // namespace wormnet::topo
