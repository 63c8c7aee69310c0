// wormnet/topo/channels.hpp
//
// The one flattened index of a topology's fabric: dense ids for its
// DIRECTED channels and its OUTPUT BUNDLES.  The simulator (flit latches,
// FCFS bundle arbitration), the analytical builders (per-channel stations,
// M/G/m server counts) and the fault view (topo::FaultedTopology: survivor
// BFS, single-bundle detours) all read this table, so they agree on which
// channels form a bundle, and on its m, by construction.
//
// A directed channel is one direction of a (node, port) <-> (node, port)
// link.  The channel from node A's port p carries flits A -> B where
// B = neighbor(A, p); the opposite direction is a distinct channel.  Ids run
// in (node, port) order, so a node's outgoing channels are one contiguous
// id range (out_channels).
//
// An output bundle is the connected ports of one Topology::output_bundles
// group: one multi-server queue (the fat-tree's parent pair is the paper's
// M/G/2).  Ids run densely in (node, output_bundles) order; construction
// checks that every channel belongs to exactly one bundle.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace wormnet::topo {

/// Sentinel for "no channel".
inline constexpr int kNoChannel = -1;

/// One directed channel.
struct DirectedChannel {
  int src_node = kNoNode;  ///< upstream node
  int src_port = -1;       ///< port on the upstream node
  int dst_node = kNoNode;  ///< downstream node
  int dst_port = -1;       ///< port on the downstream node
};

/// Immutable directed-channel and output-bundle index for a topology.
class ChannelTable {
 public:
  /// Enumerate every connected (node, port) pair of `topo` and label its
  /// output bundles.  The topology reference must outlive the table.
  /// Precondition: topo.output_bundles() puts every connected port of a
  /// node in exactly one bundle.
  explicit ChannelTable(const Topology& topo);

  /// Number of directed channels.
  int size() const { return static_cast<int>(channels_.size()); }

  /// Channel record by id.
  const DirectedChannel& at(int id) const {
    WORMNET_EXPECTS(id >= 0 && id < size());
    return channels_[static_cast<std::size_t>(id)];
  }

  /// Id of the outgoing channel from (node, port); kNoChannel if the port is
  /// unconnected.
  int from(int node, int port) const {
    WORMNET_EXPECTS(node >= 0 &&
                    node + 1 < static_cast<int>(port_offset_.size()));
    const auto n = static_cast<std::size_t>(node);
    const int slot = port_offset_[n] + port;
    WORMNET_EXPECTS(port >= 0 && slot < port_offset_[n + 1]);
    return out_id_[static_cast<std::size_t>(slot)];
  }

  /// The outgoing channels of one node: ids [first, last), in ascending
  /// port order.  operator[] reads a record WITHOUT a range check, for ids
  /// in [first, last) only — the node was checked once, so the whole range
  /// is valid by construction and per-edge loops pay no contract per edge.
  struct OutChannels {
    int first = 0;
    int last = 0;
    const DirectedChannel* records = nullptr;  // the record of channel id 0
    const DirectedChannel& operator[](int id) const {
      return records[static_cast<std::size_t>(id)];
    }
  };

  /// The outgoing channels of `node` (see OutChannels).
  OutChannels out_channels(int node) const {
    WORMNET_EXPECTS(node >= 0 && node + 1 < static_cast<int>(first_out_.size()));
    const auto n = static_cast<std::size_t>(node);
    return {first_out_[n], first_out_[n + 1], channels_.data()};
  }

  /// Id of the incoming channel into (node, port); kNoChannel if unconnected.
  int into(int node, int port) const;

  /// Id of the channel opposite to `id` (same link, reverse direction).
  int reverse(int id) const;

  /// Number of output bundles.
  int num_bundles() const { return static_cast<int>(bundle_size_.size()); }

  /// Output-bundle id of channel `id`, dense in [0, num_bundles()).
  int bundle(int id) const {
    WORMNET_EXPECTS(id >= 0 && id < size());
    return bundle_[static_cast<std::size_t>(id)];
  }

  /// Member-channel count m of channel `id`'s output bundle: the server
  /// count of its M/G/m queue.
  int bundle_size(int id) const {
    return bundle_size_[static_cast<std::size_t>(bundle(id))];
  }

  /// Virtual-channel (lane) multiplicity of channel `id`, as declared by the
  /// topology for the channel's upstream (node, port).
  int lanes(int id) const {
    const DirectedChannel& c = at(id);
    return topo_->lanes(c.src_node, c.src_port);
  }

  /// Bandwidth (flits/cycle) of channel `id`, as declared by the topology.
  double bandwidth(int id) const {
    const DirectedChannel& c = at(id);
    return topo_->bandwidth(c.src_node, c.src_port);
  }

  /// Extra per-hop pipeline latency (cycles) of channel `id`.
  double link_latency(int id) const {
    const DirectedChannel& c = at(id);
    return topo_->link_latency(c.src_node, c.src_port);
  }

  /// Per-lane flit-buffer depth of channel `id`
  /// (util::kInfiniteBufferDepth = unbounded).
  int buffer_depth(int id) const {
    const DirectedChannel& c = at(id);
    return topo_->buffer_depth(c.src_node, c.src_port);
  }

  /// The topology this table indexes.
  const Topology& topology() const { return *topo_; }

 private:
  const Topology* topo_;
  std::vector<DirectedChannel> channels_;
  std::vector<int> port_offset_;  // per node + 1: first flat (node, port) slot
  std::vector<int> out_id_;       // flat (node, port) slot -> channel id
  std::vector<int> first_out_;    // per node + 1: its first outgoing channel
  std::vector<int> bundle_;       // per channel: output-bundle id
  std::vector<int> bundle_size_;  // per bundle: member channel count
};

}  // namespace wormnet::topo
