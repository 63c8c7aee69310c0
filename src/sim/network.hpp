// wormnet/sim/network.hpp
//
// Immutable, flattened view of a Topology prepared for fast simulation:
// the topo::ChannelTable (directed channels and output bundles, the dense
// ids the analytical builder uses too), per-channel virtual-channel LANES
// with dense ids, and the per-channel link-attribute snapshot.
//
// IMMUTABILITY CONTRACT: a SimNetwork is frozen at construction — every
// member function is const and no method mutates state, so one SimNetwork
// can back any number of CONCURRENT Simulator instances without
// synchronization.  harness::SimEngine relies on this to build each
// campaign topology's network exactly once and share it across all worker
// threads.  The topology's lane counts are snapshotted at construction;
// mutating the Topology afterwards (set_uniform_lanes) does not affect an
// existing SimNetwork.
//
// Lanes: each directed channel c multiplexes lanes(c) one-flit latches over
// one physical link (topo::Topology::lanes).  Lane ids are dense across the
// network: channel c owns the contiguous range [lane_begin(c),
// lane_begin(c+1)).  The lane counts are snapshotted at construction.
#pragma once

#include <vector>

#include "topo/channels.hpp"
#include "topo/topology.hpp"

namespace wormnet::sim {

/// Flattened per-channel facts used in the hot loop.
struct ChannelInfo {
  int dst_node = -1;        ///< node the channel feeds
  int bundle = -1;          ///< owning output bundle (ChannelTable::bundle)
  bool dst_is_processor = false;
};

/// Precomputed simulation view of a topology.
class SimNetwork {
 public:
  /// Build from a topology (kept by reference; must outlive the network).
  /// Lane counts AND per-channel link attributes (bandwidth, link latency,
  /// buffer depth) are snapshotted here.  The flit-level simulator needs
  /// integer flit periods and latencies, so construction throws
  /// std::invalid_argument on a channel whose bandwidth is not 1/k for a
  /// whole k >= 1, whose link latency is negative or fractional, or whose
  /// buffer depth is < 1 flit — the fail-fast gate for bad heterogeneous
  /// configs.
  explicit SimNetwork(const topo::Topology& topo);

  /// The topology.
  const topo::Topology& topology() const { return *topo_; }
  /// The directed channel index.
  const topo::ChannelTable& channels() const { return table_; }

  /// Number of directed channels.
  int num_channels() const { return table_.size(); }
  /// Number of output bundles — the units of FCFS arbitration (the
  /// fat-tree's parent pair is one two-channel bundle).
  int num_bundles() const { return table_.num_bundles(); }
  /// Per-channel facts.
  const ChannelInfo& channel(int id) const {
    return info_[static_cast<std::size_t>(id)];
  }

  /// The injection channel id of a processor.
  int injection_channel(int proc) const {
    return injection_[static_cast<std::size_t>(proc)];
  }
  /// The whole per-processor injection-channel table (the simulator's run
  /// loop caches a raw pointer to it instead of re-resolving per event).
  const std::vector<int>& injection_channels() const { return injection_; }

  /// Total lane latches in the network (== num_channels() when every
  /// channel is single-lane).
  int num_lanes() const { return static_cast<int>(lane_channel_.size()); }
  /// First lane id of channel `ch`; its lanes are [lane_begin(ch),
  /// lane_begin(ch+1)).
  int lane_begin(int ch) const {
    return lane_begin_[static_cast<std::size_t>(ch)];
  }
  /// Lane count L of channel `ch`.
  int channel_lanes(int ch) const {
    return lane_begin_[static_cast<std::size_t>(ch) + 1] -
           lane_begin_[static_cast<std::size_t>(ch)];
  }
  /// Channel owning lane id `lane`.
  int lane_channel(int lane) const {
    return lane_channel_[static_cast<std::size_t>(lane)];
  }
  /// Largest per-channel lane count; 1 means the network is single-lane and
  /// the simulator can take its exact paper-semantics fast path.
  int max_lanes() const { return max_lanes_; }

  /// Flit period of channel `ch` in cycles (1 / bandwidth): the link moves
  /// one flit every `period` cycles.  1 on the paper's uniform links.
  int channel_period(int ch) const {
    return period_[static_cast<std::size_t>(ch)];
  }
  /// Extra head-traversal latency of channel `ch` in whole cycles.
  int channel_link_latency(int ch) const {
    return latency_[static_cast<std::size_t>(ch)];
  }
  /// Per-lane flit-buffer depth of channel `ch`
  /// (util::kInfiniteBufferDepth = unbounded, the paper's assumption).
  int channel_buffer_depth(int ch) const {
    return depth_[static_cast<std::size_t>(ch)];
  }
  /// True when ANY channel departs from the uniform defaults (bandwidth 1,
  /// latency 0, infinite buffers).  False keeps the simulator on its exact
  /// golden-traced paths; true routes every run through the bandwidth-
  /// arbitrated kernel.  Snapshotted at construction with the lane counts.
  bool has_link_features() const { return has_link_features_; }

 private:
  const topo::Topology* topo_;
  topo::ChannelTable table_;
  std::vector<ChannelInfo> info_;
  std::vector<int> injection_;          // per processor
  std::vector<int> lane_begin_;         // per channel; size num_channels()+1
  std::vector<int> lane_channel_;       // per lane: owning channel
  int max_lanes_ = 1;
  std::vector<int> period_;   // per channel: cycles per flit (1 / bandwidth)
  std::vector<int> latency_;  // per channel: extra head latency in cycles
  std::vector<int> depth_;    // per channel: per-lane buffer depth in flits
  bool has_link_features_ = false;
};

}  // namespace wormnet::sim
