#include "topo/channels.hpp"

namespace wormnet::topo {

ChannelTable::ChannelTable(const Topology& topo) : topo_(&topo) {
  const int nodes = topo.num_nodes();
  port_offset_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  for (int n = 0; n < nodes; ++n) {
    port_offset_[static_cast<std::size_t>(n) + 1] =
        port_offset_[static_cast<std::size_t>(n)] + topo.num_ports(n);
  }
  out_id_.assign(static_cast<std::size_t>(port_offset_.back()), kNoChannel);
  first_out_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  channels_.reserve(out_id_.size());
  bundle_.reserve(out_id_.size());
  for (int n = 0; n < nodes; ++n) {
    const int base = port_offset_[static_cast<std::size_t>(n)];
    first_out_[static_cast<std::size_t>(n)] = size();
    for (int p = 0; p < topo.num_ports(n); ++p) {
      const int peer = topo.neighbor(n, p);
      if (peer == kNoNode) continue;
      out_id_[static_cast<std::size_t>(base + p)] = size();
      channels_.push_back({n, p, peer, topo.neighbor_port(n, p)});
      bundle_.push_back(-1);
    }
    // The node's output bundles: each of its channels must land in exactly
    // one.
    for (const PortBundle& pb : topo.output_bundles(n)) {
      int members = 0;
      for (int i = 0; i < pb.count; ++i) {
        const int ch = from(n, pb[i]);
        if (ch == kNoChannel) continue;
        WORMNET_EXPECTS(bundle_[static_cast<std::size_t>(ch)] < 0);
        bundle_[static_cast<std::size_t>(ch)] = num_bundles();
        ++members;
      }
      if (members > 0) bundle_size_.push_back(members);
    }
  }
  first_out_[static_cast<std::size_t>(nodes)] = size();
  for (const int b : bundle_) WORMNET_EXPECTS(b >= 0);
}

int ChannelTable::into(int node, int port) const {
  const int peer = topo_->neighbor(node, port);
  if (peer == kNoNode) return kNoChannel;
  return from(peer, topo_->neighbor_port(node, port));
}

int ChannelTable::reverse(int id) const {
  const DirectedChannel& c = at(id);
  return from(c.dst_node, c.dst_port);
}

}  // namespace wormnet::topo
