// Tests for the directed-channel enumeration.
#include "topo/channels.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/traffic_model.hpp"
#include "sim/network.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "traffic/traffic_spec.hpp"

namespace wormnet::topo {
namespace {

TEST(ChannelTable, FatTreeChannelCount) {
  // n=2: 16 processor links + 8 up links (4 level-1 switches x 2 parents),
  // each link is two directed channels.
  ButterflyFatTree ft(2);
  ChannelTable ct(ft);
  EXPECT_EQ(ct.size(), 2 * (16 + 8));
}

TEST(ChannelTable, HypercubeChannelCount) {
  // n=3: 8 processor links + 8*3/2 dimension links, two directions each.
  Hypercube hc(3);
  ChannelTable ct(hc);
  EXPECT_EQ(ct.size(), 2 * (8 + 12));
}

TEST(ChannelTable, MeshChannelCount) {
  // 3x3: 9 processor links + 2 dims * 2 rows/cols... = 9 + 12 links.
  Mesh m(3, 2);
  ChannelTable ct(m);
  EXPECT_EQ(ct.size(), 2 * (9 + 12));
}

TEST(ChannelTable, FromIntoReverseAreConsistent) {
  ButterflyFatTree ft(2);
  ChannelTable ct(ft);
  for (int id = 0; id < ct.size(); ++id) {
    const DirectedChannel& c = ct.at(id);
    EXPECT_EQ(ct.from(c.src_node, c.src_port), id);
    EXPECT_EQ(ct.into(c.dst_node, c.dst_port), id);
    const int rev = ct.reverse(id);
    ASSERT_NE(rev, kNoChannel);
    EXPECT_EQ(ct.reverse(rev), id);
    const DirectedChannel& r = ct.at(rev);
    EXPECT_EQ(r.src_node, c.dst_node);
    EXPECT_EQ(r.dst_node, c.src_node);
  }
}

TEST(ChannelTable, UnconnectedPortsHaveNoChannel) {
  ButterflyFatTree ft(2);
  ChannelTable ct(ft);
  const int top = ft.switch_id(2, 0);
  EXPECT_EQ(ct.from(top, ButterflyFatTree::kParentPort0), kNoChannel);
  EXPECT_EQ(ct.from(top, ButterflyFatTree::kParentPort1), kNoChannel);
}

TEST(ChannelTable, EndpointsWithinRange) {
  Mesh m(4, 2);
  ChannelTable ct(m);
  for (int id = 0; id < ct.size(); ++id) {
    const DirectedChannel& c = ct.at(id);
    EXPECT_GE(c.src_node, 0);
    EXPECT_LT(c.src_node, m.num_nodes());
    EXPECT_GE(c.dst_node, 0);
    EXPECT_LT(c.dst_node, m.num_nodes());
    EXPECT_NE(c.src_node, c.dst_node);
  }
}

/// The fabrics the bundle checks run on (every shipped bundle shape: the
/// BFT's parent pair, tapered tiers, 1–4-parent fat-trees,
/// singleton-only direct networks, and a fault view, which keeps its base's
/// channels and bundles).  Owns every topology it lists.
struct BundleFabrics {
  ButterflyFatTree bft2{2};
  ButterflyFatTree tapered{3};
  std::vector<std::unique_ptr<ButterflyFatTree>> multi;
  Hypercube hc{4};
  Mesh mesh{4, 2};
  ButterflyFatTree fault_base{3};
  FaultSet faults{fault_base};
  std::unique_ptr<FaultedTopology> faulted;
  std::vector<const Topology*> all;

  BundleFabrics() {
    tapered.set_tier_bandwidth(1, 0.5);
    for (int m = 1; m <= 4; ++m)
      multi.push_back(std::make_unique<ButterflyFatTree>(3, m));
    faults.fail_link(fault_base.switch_id(1, 0), ButterflyFatTree::kParentPort0);
    faulted = std::make_unique<FaultedTopology>(fault_base, faults);
    all = {&bft2, &tapered, &hc, &mesh, faulted.get()};
    for (const auto& t : multi) all.push_back(t.get());
  }
};

TEST(ChannelTable, BundlesPartitionChannels) {
  const BundleFabrics fabrics;
  for (const Topology* t : fabrics.all) {
    SCOPED_TRACE(t->name());
    const ChannelTable ct(*t);
    ASSERT_GT(ct.num_bundles(), 0);
    // Dense ids, one source node per bundle, member counts.
    std::vector<int> members(static_cast<std::size_t>(ct.num_bundles()), 0);
    std::vector<int> src(static_cast<std::size_t>(ct.num_bundles()), kNoNode);
    for (int ch = 0; ch < ct.size(); ++ch) {
      const int b = ct.bundle(ch);
      ASSERT_GE(b, 0);
      ASSERT_LT(b, ct.num_bundles());
      ++members[static_cast<std::size_t>(b)];
      int& node = src[static_cast<std::size_t>(b)];
      if (node == kNoNode) node = ct.at(ch).src_node;
      EXPECT_EQ(ct.at(ch).src_node, node) << "ch=" << ch;
    }
    for (int b = 0; b < ct.num_bundles(); ++b)
      EXPECT_GE(members[static_cast<std::size_t>(b)], 1) << "bundle=" << b;
    for (int ch = 0; ch < ct.size(); ++ch) {
      EXPECT_EQ(ct.bundle_size(ch), members[static_cast<std::size_t>(ct.bundle(ch))])
          << "ch=" << ch;
    }
    // Against the topology's own declaration: every channel appears in
    // exactly one PortBundle, whose members share its id and whose count is
    // the table's bundle_size.
    std::vector<int> seen(static_cast<std::size_t>(ct.size()), 0);
    for (int node = 0; node < t->num_nodes(); ++node) {
      for (const PortBundle& pb : t->output_bundles(node)) {
        const int first = ct.from(node, pb[0]);
        ASSERT_NE(first, kNoChannel);
        for (int i = 0; i < pb.count; ++i) {
          const int ch = ct.from(node, pb[i]);
          ASSERT_NE(ch, kNoChannel);
          ++seen[static_cast<std::size_t>(ch)];
          EXPECT_EQ(ct.bundle(ch), ct.bundle(first));
          EXPECT_EQ(ct.bundle_size(ch), pb.count);
        }
      }
    }
    for (int ch = 0; ch < ct.size(); ++ch)
      EXPECT_EQ(seen[static_cast<std::size_t>(ch)], 1) << "ch=" << ch;

    // The per-node outgoing ranges list every channel exactly once, each
    // under its own source node, in ascending port order, and cover every
    // connected port of the node.
    std::vector<int> listed(static_cast<std::size_t>(ct.size()), 0);
    for (int node = 0; node < t->num_nodes(); ++node) {
      const ChannelTable::OutChannels out = ct.out_channels(node);
      int prev_port = -1;
      for (int ch = out.first; ch < out.last; ++ch) {
        ASSERT_GE(ch, 0);
        ASSERT_LT(ch, ct.size());
        ++listed[static_cast<std::size_t>(ch)];
        EXPECT_EQ(&out[ch], &ct.at(ch));
        EXPECT_EQ(out[ch].src_node, node) << "ch=" << ch;
        EXPECT_GT(out[ch].src_port, prev_port) << "ch=" << ch;
        prev_port = out[ch].src_port;
      }
      int connected = 0;
      for (int p = 0; p < t->num_ports(node); ++p)
        connected += ct.from(node, p) != kNoChannel ? 1 : 0;
      EXPECT_EQ(out.last - out.first, connected) << "node=" << node;
    }
    for (int ch = 0; ch < ct.size(); ++ch)
      EXPECT_EQ(listed[static_cast<std::size_t>(ch)], 1) << "ch=" << ch;
  }
}

TEST(ChannelTable, ModelAndSimulatorShareBundles) {
  // The builder's M/G/m server count and the simulator's arbitration unit
  // both read the table, so they agree on m by construction.
  const BundleFabrics fabrics;
  for (const Topology* t : fabrics.all) {
    SCOPED_TRACE(t->name());
    const ChannelTable ct(*t);
    const core::GeneralModel model =
        core::build_traffic_model(*t, traffic::TrafficSpec::uniform());
    ASSERT_EQ(model.graph.size(), ct.size());
    const sim::SimNetwork net(*t);
    ASSERT_EQ(net.num_bundles(), ct.num_bundles());
    for (int ch = 0; ch < ct.size(); ++ch) {
      EXPECT_EQ(model.graph.at(ch).servers, ct.bundle_size(ch)) << "ch=" << ch;
      EXPECT_EQ(net.channel(ch).bundle, ct.bundle(ch)) << "ch=" << ch;
    }
  }
}

}  // namespace
}  // namespace wormnet::topo
