#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/math.hpp"

namespace wormnet::sim {

namespace {

/// Round `v` to a whole number of cycles, rejecting values the flit-level
/// kernel cannot represent (it advances in integer cycles).
int whole_cycles(double v, int ch, const char* what) {
  const double r = std::round(v);
  if (!(v >= 0.0) || std::abs(v - r) > 1e-9) {
    std::ostringstream out;
    out << "wormnet sim: channel " << ch << " " << what << " " << v
        << " is not a whole non-negative cycle count";
    throw std::invalid_argument(out.str());
  }
  return static_cast<int>(r);
}

}  // namespace

SimNetwork::SimNetwork(const topo::Topology& topo) : topo_(&topo), table_(topo) {
  info_.assign(static_cast<std::size_t>(table_.size()), {});
  for (int ch = 0; ch < table_.size(); ++ch) {
    const topo::DirectedChannel& dc = table_.at(ch);
    ChannelInfo& ci = info_[static_cast<std::size_t>(ch)];
    ci.dst_node = dc.dst_node;
    ci.bundle = table_.bundle(ch);
    ci.dst_is_processor = topo.is_processor(dc.dst_node);
  }

  injection_.assign(static_cast<std::size_t>(topo.num_processors()), -1);
  for (int p = 0; p < topo.num_processors(); ++p) {
    injection_[static_cast<std::size_t>(p)] = table_.from(p, 0);
    WORMNET_ENSURES(injection_[static_cast<std::size_t>(p)] != topo::kNoChannel);
  }

  // Lane index: dense ids, contiguous per channel (identity when the whole
  // network is single-lane).
  lane_begin_.assign(static_cast<std::size_t>(table_.size()) + 1, 0);
  for (int ch = 0; ch < table_.size(); ++ch) {
    const int lanes = table_.lanes(ch);
    WORMNET_EXPECTS(lanes >= 1);
    max_lanes_ = std::max(max_lanes_, lanes);
    lane_begin_[static_cast<std::size_t>(ch) + 1] =
        lane_begin_[static_cast<std::size_t>(ch)] + lanes;
  }
  lane_channel_.assign(static_cast<std::size_t>(lane_begin_.back()), -1);
  for (int ch = 0; ch < table_.size(); ++ch) {
    for (int l = lane_begin(ch); l < lane_begin(ch + 1); ++l)
      lane_channel_[static_cast<std::size_t>(l)] = ch;
  }

  // Link-attribute snapshot (bandwidth as an integer flit period, latency,
  // buffer depth), validated fail-fast: the cycle kernel cannot express a
  // fractional period or latency, so reject them here with a clear message
  // instead of silently rounding.
  period_.assign(static_cast<std::size_t>(table_.size()), 1);
  latency_.assign(static_cast<std::size_t>(table_.size()), 0);
  depth_.assign(static_cast<std::size_t>(table_.size()),
                util::kInfiniteBufferDepth);
  for (int ch = 0; ch < table_.size(); ++ch) {
    const double bw = table_.bandwidth(ch);
    if (!(bw > 0.0) || bw > 1.0) {
      std::ostringstream out;
      out << "wormnet sim: channel " << ch << " bandwidth " << bw
          << " outside (0, 1] flits/cycle";
      throw std::invalid_argument(out.str());
    }
    period_[static_cast<std::size_t>(ch)] =
        std::max(1, whole_cycles(1.0 / bw, ch, "flit period (1/bandwidth)"));
    latency_[static_cast<std::size_t>(ch)] =
        whole_cycles(table_.link_latency(ch), ch, "link latency");
    const int d = table_.buffer_depth(ch);
    if (d < 1) {
      std::ostringstream out;
      out << "wormnet sim: channel " << ch << " buffer depth " << d
          << " < 1 flit";
      throw std::invalid_argument(out.str());
    }
    depth_[static_cast<std::size_t>(ch)] = d;
    if (period_[static_cast<std::size_t>(ch)] != 1 ||
        latency_[static_cast<std::size_t>(ch)] != 0 ||
        d != util::kInfiniteBufferDepth) {
      has_link_features_ = true;
    }
  }
}

}  // namespace wormnet::sim
