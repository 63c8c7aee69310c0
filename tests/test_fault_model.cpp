// Fault layer: topo::FaultSet / topo::FaultedTopology structure, the
// connectivity fail-fast checks, graceful degradation through
// build_traffic_model, and the retune_faults delta path's parity with a
// cold build on the faulted view.  Plus the solver-hardening fuzz: random
// fault sets x topologies x patterns x loads must keep Kirchhoff
// conservation on the surviving flows and never emit NaN/Inf from the
// channel solver (the SolveStatus contract).
#include "topo/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/graph_checks.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet {
namespace {

// BFT(2): processors 0..15, level-1 switches s1_*, level-2 switches s2_*.
// Each level-1 switch has parent links to BOTH top switches, so any single
// failure leaves every pair connected (the paper's two-server redundancy).

topo::ButterflyFatTree bft2() { return topo::ButterflyFatTree(2); }

// ---------------------------------------------------------------------------
// FaultSet structure.
// ---------------------------------------------------------------------------

TEST(FaultSet, LinkFailureIsUndirectedAndCanonical) {
  const topo::ButterflyFatTree ft = bft2();
  const int s1 = ft.switch_id(1, 0);
  const int peer = ft.neighbor(s1, topo::ButterflyFatTree::kParentPort0);
  const int back = ft.neighbor_port(s1, topo::ButterflyFatTree::kParentPort0);

  topo::FaultSet from_child(ft);
  from_child.fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  topo::FaultSet from_parent(ft);
  from_parent.fail_link(peer, back);

  for (const topo::FaultSet* fs : {&from_child, &from_parent}) {
    EXPECT_FALSE(fs->empty());
    EXPECT_EQ(fs->failed_links().size(), 1u);
    EXPECT_TRUE(fs->link_failed(s1, topo::ButterflyFatTree::kParentPort0));
    EXPECT_TRUE(fs->link_failed(peer, back));
    EXPECT_FALSE(fs->link_failed(s1, topo::ButterflyFatTree::kParentPort1));
  }
  // Either endpoint names the same undirected link: same canonical record,
  // same digest — the query engine's variant key cannot split on naming.
  EXPECT_EQ(from_child.failed_links(), from_parent.failed_links());
  EXPECT_EQ(from_child.digest(), from_parent.digest());
}

TEST(FaultSet, DigestIsOrderInsensitive) {
  const topo::ButterflyFatTree ft = bft2();
  const int a = ft.switch_id(1, 0);
  const int b = ft.switch_id(1, 1);
  topo::FaultSet ab(ft);
  ab.fail_link(a, topo::ButterflyFatTree::kParentPort0);
  ab.fail_link(b, topo::ButterflyFatTree::kParentPort1);
  topo::FaultSet ba(ft);
  ba.fail_link(b, topo::ButterflyFatTree::kParentPort1);
  ba.fail_link(a, topo::ButterflyFatTree::kParentPort0);
  EXPECT_EQ(ab.digest(), ba.digest());
  EXPECT_NE(ab.digest(), 0u);

  topo::FaultSet other(ft);
  other.fail_link(a, topo::ButterflyFatTree::kParentPort0);
  EXPECT_NE(other.digest(), ab.digest());
}

TEST(FaultSet, SwitchFailureExpandsToItsLinks) {
  const topo::ButterflyFatTree ft = bft2();
  // A top-level switch has four connected child ports and no processor
  // neighbors — the one kind of switch that may fail wholesale on BFT(2).
  const int top = ft.switch_id(2, 0);
  topo::FaultSet fs(ft);
  fs.fail_switch(top);
  EXPECT_EQ(fs.failed_switches(), std::vector<int>{top});
  EXPECT_EQ(fs.failed_links().size(), 4u);
  for (int port = 0; port < 4; ++port)
    EXPECT_TRUE(fs.link_failed(top, port)) << "port " << port;
}

// ---------------------------------------------------------------------------
// FaultedTopology: stable structure, degraded routing.
// ---------------------------------------------------------------------------

TEST(FaultedTopology, ChannelStructureMatchesBase) {
  const topo::ButterflyFatTree ft = bft2();
  topo::FaultSet fs(ft);
  fs.fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const topo::FaultedTopology view(ft, fs);

  ASSERT_EQ(view.num_nodes(), ft.num_nodes());
  ASSERT_EQ(view.num_processors(), ft.num_processors());
  const topo::ChannelTable base_ct(ft);
  const topo::ChannelTable fault_ct(view);
  // Dead links still enumerate: per-channel arrays stay index-aligned
  // between the healthy and degraded views (the retune-not-rebuild enabler).
  ASSERT_EQ(fault_ct.size(), base_ct.size());
  for (int id = 0; id < base_ct.size(); ++id) {
    EXPECT_EQ(fault_ct.at(id).src_node, base_ct.at(id).src_node);
    EXPECT_EQ(fault_ct.at(id).src_port, base_ct.at(id).src_port);
  }
}

TEST(FaultedTopology, LinkStatusMatchesFaultSet) {
  // The view answers link_ok from its own per-channel dead bits, the fault
  // set link_failed from its link list: they must agree at every
  // (node, port), unconnected ports included, and both endpoints of a link
  // must agree with each other.
  const topo::ButterflyFatTree bft(3);
  const topo::Mesh mesh(4, 2);
  const topo::Hypercube hc(4);
  const topo::ButterflyFatTree bft_m3(3, 3);
  // The first `count` switch-to-switch links met in (node, port) order,
  // every other one skipped so the failures spread over the fabric.
  const auto fail_network_links = [](topo::FaultSet& fs, int count) {
    const topo::Topology& t = fs.topology();
    int seen = 0;
    for (int n = t.num_processors(); n < t.num_nodes() && count > 0; ++n)
      for (int p = 0; p < t.num_ports(n) && count > 0; ++p) {
        const int peer = t.neighbor(n, p);
        if (peer <= n || t.is_processor(peer) || seen++ % 2 != 0) continue;
        fs.fail_link(n, p);
        --count;
      }
  };
  std::vector<std::unique_ptr<topo::FaultSet>> sets;
  sets.push_back(std::make_unique<topo::FaultSet>(bft));
  sets.back()->fail_link(bft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  sets.back()->fail_switch(bft.switch_id(3, 1));
  for (const topo::Topology* t :
       std::initializer_list<const topo::Topology*>{&mesh, &hc, &bft_m3}) {
    sets.push_back(std::make_unique<topo::FaultSet>(*t));
    fail_network_links(*sets.back(), 2);
  }
  for (const auto& fs : sets) {
    const topo::Topology& t = fs->topology();
    const topo::FaultedTopology view(t, *fs);
    SCOPED_TRACE(view.name());
    ASSERT_FALSE(fs->empty());
    int dead_ends = 0;
    for (int n = 0; n < t.num_nodes(); ++n) {
      for (int p = 0; p < t.num_ports(n); ++p) {
        const bool ok = view.link_ok(n, p);
        EXPECT_EQ(ok, !fs->link_failed(n, p)) << "(" << n << ", " << p << ")";
        dead_ends += ok ? 0 : 1;
        const int peer = t.neighbor(n, p);
        if (peer == topo::kNoNode) {
          EXPECT_TRUE(ok) << "unconnected (" << n << ", " << p << ")";
          continue;
        }
        const int back = t.neighbor_port(n, p);
        EXPECT_EQ(view.link_ok(peer, back), ok) << "(" << n << ", " << p << ")";
        EXPECT_EQ(fs->link_failed(peer, back), !ok);
      }
    }
    // Each failed undirected link is dead at exactly its two endpoints.
    EXPECT_EQ(dead_ends, 2 * static_cast<int>(fs->failed_links().size()));
  }
}

TEST(FaultedTopology, SingleUpLinkFailureKeepsEveryPairReachable) {
  const topo::ButterflyFatTree ft = bft2();
  const int s1 = ft.switch_id(1, 0);
  topo::FaultSet fs(ft);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  const topo::FaultedTopology view(ft, fs);

  EXPECT_FALSE(view.link_ok(s1, topo::ButterflyFatTree::kParentPort0));
  EXPECT_TRUE(view.link_ok(s1, topo::ButterflyFatTree::kParentPort1));
  EXPECT_FALSE(view.first_unreachable_pair().has_value());
  EXPECT_EQ(view.unreachable_pair_fraction(), 0.0);
  // The redundant parent absorbs the reroute with no distance penalty.
  for (int s = 0; s < ft.num_processors(); ++s)
    for (int d = 0; d < ft.num_processors(); ++d) {
      if (s == d) continue;
      ASSERT_TRUE(view.reachable(s, d)) << s << "->" << d;
      EXPECT_EQ(view.distance(s, d), ft.distance(s, d)) << s << "->" << d;
    }
  EXPECT_NEAR(view.mean_distance(), ft.mean_distance(), 1e-12);

  // Routing invariants hold on the survivor graph (minimal progress,
  // distance == BFS) and routes never cross the dead link.
  EXPECT_TRUE(topo::verify_topology(view).ok());
  const int dead_peer = ft.neighbor(s1, topo::ButterflyFatTree::kParentPort0);
  for (int s = 0; s < 4; ++s)
    for (int d = 4; d < ft.num_processors(); ++d) {
      const std::vector<int> path = topo::trace_route(view, s, d);
      ASSERT_FALSE(path.empty()) << s << "->" << d;
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_FALSE(path[i] == s1 && path[i + 1] == dead_peer)
            << "route " << s << "->" << d << " crossed the failed link";
    }
}

TEST(FaultedTopology, CutSwitchReportsUnreachablePairs) {
  const topo::ButterflyFatTree ft = bft2();
  const int s1 = ft.switch_id(1, 0);  // serves processors 0..3
  topo::FaultSet fs(ft);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort1);
  const topo::FaultedTopology view(ft, fs);

  // 0..3 are severed from 4..15 (both directions): 4 * 12 * 2 of the
  // 16 * 15 ordered pairs.
  EXPECT_FALSE(view.reachable(0, 4));
  EXPECT_FALSE(view.reachable(4, 0));
  EXPECT_TRUE(view.reachable(0, 3));    // intra-block survives
  EXPECT_TRUE(view.reachable(4, 15));   // the rest of the fabric survives
  EXPECT_NEAR(view.unreachable_pair_fraction(), 96.0 / 240.0, 1e-12);
  ASSERT_TRUE(view.first_unreachable_pair().has_value());
  const auto [ws, wd] = *view.first_unreachable_pair();
  EXPECT_FALSE(view.reachable(ws, wd));
  // Routing invariants still hold on the pairs that carry traffic.
  EXPECT_TRUE(topo::verify_topology(view).ok());
}

// ---------------------------------------------------------------------------
// Connectivity fail-fast (graph_checks).
// ---------------------------------------------------------------------------

TEST(Connectivity, HealthyAndNMinus1FabricsPass) {
  const topo::ButterflyFatTree ft = bft2();
  EXPECT_TRUE(topo::check_connectivity(ft).connected);
  EXPECT_NO_THROW(topo::require_connected(ft));

  topo::FaultSet fs(ft);
  fs.fail_link(ft.switch_id(1, 2), topo::ButterflyFatTree::kParentPort1);
  const topo::FaultedTopology view(ft, fs);
  const topo::ConnectivityReport rep = topo::check_connectivity(view);
  EXPECT_TRUE(rep.connected);
  EXPECT_EQ(rep.unreachable_pairs, 0);
  EXPECT_NO_THROW(topo::require_connected(view));
}

TEST(Connectivity, DisconnectedFabricNamesTheFirstPair) {
  const topo::ButterflyFatTree ft = bft2();
  const int s1 = ft.switch_id(1, 0);
  topo::FaultSet fs(ft);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort1);
  const topo::FaultedTopology view(ft, fs);

  const topo::ConnectivityReport rep = topo::check_connectivity(view);
  EXPECT_FALSE(rep.connected);
  EXPECT_EQ(rep.unreachable_pairs, 96);
  EXPECT_GE(rep.first_src, 0);
  EXPECT_GE(rep.first_dst, 0);
  EXPECT_FALSE(view.reachable(rep.first_src, rep.first_dst));
  EXPECT_FALSE(rep.message.empty());

  try {
    topo::require_connected(view);
    FAIL() << "require_connected accepted a cut fabric";
  } catch (const std::runtime_error& e) {
    // The thrown message names the witness pair — the fail-fast answer.
    EXPECT_NE(std::string(e.what()).find(std::to_string(rep.first_dst)),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation through build_traffic_model.
// ---------------------------------------------------------------------------

TEST(FaultModel, NMinus1ModelServesAllDemandWithStatusOk) {
  const topo::ButterflyFatTree ft = bft2();
  topo::FaultSet fs(ft);
  fs.fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const topo::FaultedTopology view(ft, fs);

  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel m =
      core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts);
  EXPECT_EQ(m.unroutable_fraction, 0.0);

  // The dead link's two directed channels carry exactly zero flow; the
  // surviving parent link carries the rerouted share.
  const topo::ChannelTable ct(view);
  const int s1 = ft.switch_id(1, 0);
  const int up0 = ct.from(s1, topo::ButterflyFatTree::kParentPort0);
  const int up1 = ct.from(s1, topo::ButterflyFatTree::kParentPort1);
  EXPECT_EQ(m.graph.at(up0).rate_per_link, 0.0);
  EXPECT_GT(m.graph.at(up1).rate_per_link, 0.0);

  const double sat = core::model_saturation_rate(m, opts);
  ASSERT_GT(sat, 0.0);
  const core::LatencyEstimate est = core::model_latency(m, 0.3 * sat, opts);
  EXPECT_EQ(est.status, core::SolveStatus::Ok);
  EXPECT_EQ(est.unroutable_fraction, 0.0);
  EXPECT_TRUE(est.stable);
  EXPECT_TRUE(std::isfinite(est.latency));

  // Losing a link can only cost capacity: degraded saturation <= healthy.
  const core::GeneralModel healthy =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);
  EXPECT_LE(sat, core::model_saturation_rate(healthy, opts) * (1.0 + 1e-12));
}

TEST(FaultModel, CutFabricReportsDisconnectedNotNaN) {
  const topo::ButterflyFatTree ft = bft2();
  const int s1 = ft.switch_id(1, 0);
  topo::FaultSet fs(ft);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  fs.fail_link(s1, topo::ButterflyFatTree::kParentPort1);
  const topo::FaultedTopology view(ft, fs);

  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel m =
      core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts);
  // Uniform traffic: unroutable demand == unreachable pair fraction.
  EXPECT_NEAR(m.unroutable_fraction, 96.0 / 240.0, 1e-12);

  const double sat = core::model_saturation_rate(m, opts);
  ASSERT_GT(sat, 0.0);
  const core::LatencyEstimate est = core::model_latency(m, 0.3 * sat, opts);
  // The carried demand is served — stable — but the answer is flagged.
  EXPECT_EQ(est.status, core::SolveStatus::Disconnected);
  EXPECT_NEAR(est.unroutable_fraction, 96.0 / 240.0, 1e-12);
  EXPECT_TRUE(est.stable);
  EXPECT_TRUE(std::isfinite(est.latency));

  // Saturated answers keep the status ladder: never NaN, status Saturated.
  const core::LatencyEstimate hot = core::model_latency(m, 1.2 * sat, opts);
  EXPECT_EQ(hot.status, core::SolveStatus::Saturated);
  EXPECT_FALSE(std::isnan(hot.latency));
  EXPECT_FALSE(std::isnan(hot.inj_wait));
}

// ---------------------------------------------------------------------------
// retune_faults: delta parity with a cold build on the faulted view.
// ---------------------------------------------------------------------------

void expect_model_parity(const core::GeneralModel& got,
                         const core::GeneralModel& want,
                         const core::SolveOptions& opts,
                         const std::string& tag) {
  ASSERT_EQ(got.graph.size(), want.graph.size()) << tag;
  for (int id = 0; id < want.graph.size(); ++id) {
    const double w = want.graph.at(id).rate_per_link;
    EXPECT_NEAR(got.graph.at(id).rate_per_link, w,
                1e-12 * std::max(1.0, std::abs(w)))
        << tag << " channel " << id;
    EXPECT_NEAR(got.graph.at(id).self_frac, want.graph.at(id).self_frac,
                1e-12)
        << tag << " channel " << id;
  }
  EXPECT_NEAR(got.unroutable_fraction, want.unroutable_fraction, 1e-12) << tag;
  EXPECT_NEAR(got.mean_distance, want.mean_distance,
              1e-12 * want.mean_distance)
      << tag;
  const double sat = core::model_saturation_rate(want, opts);
  EXPECT_NEAR(core::model_saturation_rate(got, opts), sat, 1e-9 * sat) << tag;
  const core::LatencyEstimate a = core::model_latency(got, 0.4 * sat, opts);
  const core::LatencyEstimate b = core::model_latency(want, 0.4 * sat, opts);
  EXPECT_EQ(a.status, b.status) << tag;
  if (std::isfinite(b.latency)) {
    EXPECT_NEAR(a.latency, b.latency, 1e-9 * b.latency) << tag;
  } else {
    EXPECT_EQ(a.latency, b.latency) << tag;  // both saturated
  }
}

TEST(FaultRetune, DenseResidentRetunesToColdFaultedBuild) {
  const topo::ButterflyFatTree ft = bft2();
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  core::RetunableTrafficModel resident(ft, traffic::TrafficSpec::uniform(),
                                       opts);
  const core::GeneralModel healthy_cold =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);

  auto fs = std::make_shared<topo::FaultSet>(ft);
  fs->fail_link(ft.switch_id(1, 1), topo::ButterflyFatTree::kParentPort0);
  const core::RetuneReport rep = resident.retune_faults(fs);
  // The contract availability sweeps rely on: dense never rebuilds for a
  // fault, and only the affected destination columns re-propagate.
  EXPECT_FALSE(rep.rebuilt);
  EXPECT_GT(rep.passes, 0);
  EXPECT_LE(rep.passes, 2 * ft.num_processors());
  ASSERT_NE(resident.faults(), nullptr);
  EXPECT_EQ(resident.faults()->digest(), fs->digest());

  const topo::FaultedTopology view(ft, *fs);
  const core::GeneralModel cold =
      core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts);
  expect_model_parity(resident.model(), cold, opts, "N-1 retune");

  // Round-trip: back to healthy restores the resident content at the delta
  // path's documented 1e-12 bar (the signed re-propagation re-associates
  // floating sums, so bit identity is not promised — parity is).
  const core::RetuneReport back = resident.retune_faults(nullptr);
  EXPECT_FALSE(back.rebuilt);
  EXPECT_EQ(resident.faults(), nullptr);
  expect_model_parity(resident.model(), healthy_cold, opts, "healthy return");

  // Same degraded state twice is a no-op.
  resident.retune_faults(fs);
  const core::RetuneReport again = resident.retune_faults(fs);
  EXPECT_EQ(again.passes, 0);
  EXPECT_EQ(again.nodes_visited, 0);

  // The delta is frontier-bounded: a BFT(3) up-link N−1 walks well under a
  // quarter of what retracting and re-adding every affected column in full
  // would (two whole-DAG passes per column).
  const topo::ButterflyFatTree ft3(3);
  core::RetunableTrafficModel r3(ft3, traffic::TrafficSpec::uniform(), opts);
  auto up = std::make_shared<topo::FaultSet>(ft3);
  up->fail_link(ft3.switch_id(1, 2), topo::ButterflyFatTree::kParentPort1);
  const core::RetuneReport rep3 = r3.retune_faults(up);
  ASSERT_GT(rep3.changed_pairs, 0);
  EXPECT_EQ(rep3.passes, 2 * rep3.changed_pairs);
  EXPECT_GT(rep3.nodes_visited, 0);
  EXPECT_LT(static_cast<double>(rep3.nodes_visited),
            0.25 * 2.0 * static_cast<double>(rep3.changed_pairs) *
                ft3.num_nodes());
  const topo::FaultedTopology view3(ft3, *up);
  expect_model_parity(
      r3.model(),
      core::build_traffic_model(view3, traffic::TrafficSpec::uniform(), opts),
      opts, "BFT(3) N-1 retune");
}

TEST(FaultRetune, CollapsedResidentRebuildsDenseAndRecollapses) {
  const topo::ButterflyFatTree ft = bft2();
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel resident(ft, traffic::TrafficSpec::uniform(),
                                       opts, build);
  ASSERT_TRUE(resident.collapsed());

  auto fs = std::make_shared<topo::FaultSet>(ft);
  fs->fail_link(ft.switch_id(1, 3), topo::ButterflyFatTree::kParentPort0);
  const core::RetuneReport rep = resident.retune_faults(fs);
  // Faults void the declared symmetry: the resident rebuilds dense, says so,
  // and matches the dense cold build on the faulted view.
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_FALSE(resident.collapsed());
  const topo::FaultedTopology view(ft, *fs);
  const core::GeneralModel cold =
      core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts);
  expect_model_parity(resident.model(), cold, opts, "collapsed->faulted");

  // Returning to healthy serves via the dense delta path (the resident is
  // dense now, so no rebuild) and matches the healthy reference — it simply
  // stays dense rather than re-collapsing.
  const core::RetuneReport back = resident.retune_faults(nullptr);
  EXPECT_FALSE(back.rebuilt);
  expect_model_parity(
      resident.model(),
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts),
      opts, "collapsed->faulted->healthy");
}

TEST(FaultRetune, EmptyFaultSetKeepsResidualSymmetry) {
  const topo::ButterflyFatTree ft = bft2();
  const topo::FaultSet empty(ft);
  const topo::FaultedTopology view(ft, empty);
  // An empty fault view forwards the base symmetry hooks unchanged, so the
  // collapsed builder still produces the quotient model — the baseline of
  // availability sweeps stays O(classes).
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel quotient = core::build_traffic_model_collapsed(
      view, traffic::TrafficSpec::uniform(), opts);
  ASSERT_FALSE(quotient.channel_class_of.empty());
  EXPECT_EQ(core::check_collapsed_parity(view, traffic::TrafficSpec::uniform(),
                                         quotient, opts),
            "");
}

// ---------------------------------------------------------------------------
// Solver-hardening fuzz: random fault sets x topologies x patterns x loads.
// ---------------------------------------------------------------------------

/// Every failable (switch-to-switch) undirected link, canonical endpoint.
std::vector<std::pair<int, int>> failable_links(const topo::Topology& t) {
  std::vector<std::pair<int, int>> links;
  for (int node = 0; node < t.num_nodes(); ++node) {
    if (t.is_processor(node)) continue;
    for (int port = 0; port < t.num_ports(node); ++port) {
      const int peer = t.neighbor(node, port);
      if (peer == topo::kNoNode || t.is_processor(peer)) continue;
      if (std::make_pair(peer, t.neighbor_port(node, port)) <
          std::make_pair(node, port))
        continue;
      links.emplace_back(node, port);
    }
  }
  return links;
}

/// Kirchhoff on the survivors: every switch forwards exactly what it
/// receives, network-wide injection equals ejection, dead channels carry
/// nothing, and the solver's outputs are NaN-free at every probed load.
void fuzz_one(const topo::Topology& base, const traffic::TrafficSpec& spec,
              int k, std::uint64_t seed, const std::string& tag) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<int, int>> links = failable_links(base);
  ASSERT_GT(links.size(), static_cast<std::size_t>(k)) << tag;
  std::shuffle(links.begin(), links.end(), rng);

  topo::FaultSet fs(base);
  for (int i = 0; i < k; ++i) fs.fail_link(links[i].first, links[i].second);
  const topo::FaultedTopology view(base, fs);

  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel m = core::build_traffic_model(view, spec, opts);
  EXPECT_GE(m.unroutable_fraction, 0.0) << tag;
  EXPECT_LE(m.unroutable_fraction, 1.0) << tag;
  EXPECT_NEAR(m.unroutable_fraction > 0.0 ? 1.0 : 0.0,
              view.first_unreachable_pair().has_value() ? 1.0 : 0.0, 0.5)
      << tag << ": unroutable demand disagrees with reachability"
      << " (pattern may skip the cut pairs only when weights are zero)";

  const topo::ChannelTable ct(view);
  std::vector<double> in_rate(static_cast<std::size_t>(view.num_nodes()), 0.0);
  std::vector<double> out_rate(static_cast<std::size_t>(view.num_nodes()), 0.0);
  double injected = 0.0, ejected = 0.0;
  for (int id = 0; id < ct.size(); ++id) {
    const topo::DirectedChannel& c = ct.at(id);
    const double rate = m.graph.at(id).rate_per_link;
    ASSERT_TRUE(std::isfinite(rate)) << tag << " channel " << id;
    EXPECT_GE(rate, -1e-12) << tag << " channel " << id;
    if (!view.link_ok(c.src_node, c.src_port)) {
      EXPECT_EQ(rate, 0.0) << tag << ": dead channel " << id << " carries flow";
    }
    out_rate[static_cast<std::size_t>(c.src_node)] += rate;
    in_rate[static_cast<std::size_t>(ct.at(ct.reverse(id)).src_node)] += rate;
    if (view.is_processor(c.src_node)) injected += rate;
    if (view.is_processor(ct.at(ct.reverse(id)).src_node)) ejected += rate;
  }
  for (int node = 0; node < view.num_nodes(); ++node) {
    if (view.is_processor(node)) continue;
    EXPECT_NEAR(in_rate[static_cast<std::size_t>(node)],
                out_rate[static_cast<std::size_t>(node)], 1e-9)
        << tag << ": switch " << node << " creates or destroys flow";
  }
  EXPECT_NEAR(injected, ejected, 1e-9) << tag;

  // The solver never emits NaN at any load, saturated or not.
  const double sat = core::model_saturation_rate(m, opts);
  ASSERT_GT(sat, 0.0) << tag;
  ASSERT_TRUE(std::isfinite(sat)) << tag;
  for (const double frac : {0.2, 0.7, 1.3}) {
    const core::SolveResult sol = m.solve(frac * sat);
    for (std::size_t c = 0; c < sol.channels.size(); ++c) {
      EXPECT_FALSE(std::isnan(sol.channels[c].utilization))
          << tag << " frac " << frac << " channel " << c;
      EXPECT_FALSE(std::isnan(sol.channels[c].wait))
          << tag << " frac " << frac << " channel " << c;
      EXPECT_FALSE(std::isnan(sol.channels[c].service_time))
          << tag << " frac " << frac << " channel " << c;
    }
    const core::LatencyEstimate est = core::model_latency(m, frac * sat, opts);
    EXPECT_FALSE(std::isnan(est.latency)) << tag << " frac " << frac;
    EXPECT_FALSE(std::isnan(est.inj_wait)) << tag << " frac " << frac;
    if (!std::isfinite(est.latency)) {
      EXPECT_TRUE(est.status == core::SolveStatus::Saturated ||
                  est.status == core::SolveStatus::Infeasible)
          << tag << " frac " << frac
          << ": non-finite latency with status " << to_string(est.status);
    }
  }
}

TEST(FaultRetune, NonUniformResidentsMatchColdFaultedBuilds) {
  // The fault delta on skewed (hotspot) and fixed-destination residents —
  // the latter seed their columns from per-destination source lists.  The
  // retract + re-add must land on the cold faulted build, the heal on the
  // healthy build, and a pattern retune on the faulted resident on the cold
  // faulted build of the new pattern.
  const topo::ButterflyFatTree ft = bft2();
  const topo::Hypercube hc(3);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  for (const topo::Topology* t : {static_cast<const topo::Topology*>(&ft),
                                  static_cast<const topo::Topology*>(&hc)}) {
    const int n = t->num_processors();
    // Transpose needs a square processor count; the 8-node cube takes
    // bit-complement, the other fixed-destination pattern, instead.
    const traffic::TrafficSpec fixed =
        traffic::TrafficSpec::transpose().check(n).empty()
            ? traffic::TrafficSpec::transpose()
            : traffic::TrafficSpec::bit_complement();
    // The fixed map with sources 0 and 2 trading destinations, as a 0/1
    // matrix (transpose's diagonal fix-up repeats destinations, so it is no
    // permutation).
    traffic::TrafficMatrix rewired(n);
    for (int s = 0; s < n; ++s) {
      const int src = s == 0 ? 2 : s == 2 ? 0 : s;
      rewired.set(s, fixed.fixed_destination(src, n), 1.0);
    }
    const std::vector<std::pair<traffic::TrafficSpec, traffic::TrafficSpec>>
        cells{{traffic::TrafficSpec::hotspot(0.2),
               traffic::TrafficSpec::hotspot(0.2, n - 1)},
              {fixed, traffic::TrafficSpec::matrix(rewired)}};
    auto fs = std::make_shared<topo::FaultSet>(*t);
    const std::pair<int, int> link = failable_links(*t).front();
    fs->fail_link(link.first, link.second);
    const topo::FaultedTopology view(*t, *fs);

    for (const auto& [spec, moved] : cells) {
      ASSERT_EQ(moved.check(n), "");
      const std::string tag = t->name() + "/" + spec.name();
      core::RetunableTrafficModel resident(*t, spec, opts);
      const core::RetuneReport rep = resident.retune_faults(fs);
      EXPECT_FALSE(rep.rebuilt) << tag;
      EXPECT_GT(rep.passes, 0) << tag;
      expect_model_parity(resident.model(),
                          core::build_traffic_model(view, spec, opts), opts,
                          tag + " faulted");

      EXPECT_FALSE(resident.retune_faults(nullptr).rebuilt) << tag;
      expect_model_parity(resident.model(),
                          core::build_traffic_model(*t, spec, opts), opts,
                          tag + " healed");

      // (A moved hotspot on the 8-node cube touches over N²/4 pairs, so the
      // planner rebuilds there — on the faulted view, all the same.)
      resident.retune_faults(fs);
      resident.retune_traffic(moved);
      expect_model_parity(resident.model(),
                          core::build_traffic_model(view, moved, opts), opts,
                          tag + " faulted, retuned to " + moved.name());
    }
  }
}

// ---------------------------------------------------------------------------
// Frontier locality and chained fault deltas.
// ---------------------------------------------------------------------------

/// `k` distinct failable links of `t`, drawn by `rng`.
std::vector<std::pair<int, int>> draw_links(const topo::Topology& t, int k,
                                            std::mt19937_64& rng) {
  std::vector<std::pair<int, int>> links = failable_links(t);
  std::shuffle(links.begin(), links.end(), rng);
  links.resize(static_cast<std::size_t>(std::min<std::size_t>(
      links.size(), static_cast<std::size_t>(k))));
  return links;
}

/// A fault set cutting switch `node` out of the fabric: fail_switch when it
/// has no processor neighbour, else each of its switch-to-switch links
/// (severing its processors from everyone else).
std::shared_ptr<topo::FaultSet> cut_switch(const topo::Topology& t, int node) {
  auto fs = std::make_shared<topo::FaultSet>(t);
  bool has_pe = false;
  for (int p = 0; p < t.num_ports(node); ++p) {
    const int v = t.neighbor(node, p);
    has_pe = has_pe || (v != topo::kNoNode && t.is_processor(v));
  }
  if (!has_pe) {
    fs->fail_switch(node);
    return fs;
  }
  for (int p = 0; p < t.num_ports(node); ++p) {
    const int v = t.neighbor(node, p);
    if (v != topo::kNoNode && !t.is_processor(v)) fs->fail_link(node, p);
  }
  return fs;
}

/// The survivor-routing reference, computed independently of
/// FaultedTopology: a backward BFS over in-service links (processors other
/// than d relay nothing) and, at every node, the in-service ports making
/// minimal progress, restricted to the first such port's output bundle.
struct SurvivorReference {
  std::vector<int> dist;  ///< -1: cannot reach d
  const topo::Topology& base;
  const topo::FaultSet& faults;
  int d;

  SurvivorReference(const topo::Topology& b, const topo::FaultSet& f, int dest)
      : dist(static_cast<std::size_t>(b.num_nodes()), -1),
        base(b),
        faults(f),
        d(dest) {
    std::vector<int> queue{d};
    dist[static_cast<std::size_t>(d)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      if (base.is_processor(v) && v != d) continue;
      for (int q = 0; q < base.num_ports(v); ++q) {
        const int u = base.neighbor(v, q);
        if (u == topo::kNoNode || faults.link_failed(v, q) ||
            dist[static_cast<std::size_t>(u)] >= 0)
          continue;
        dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
        queue.push_back(u);
      }
    }
  }

  std::vector<int> route(int node) const {
    std::vector<int> ports;
    if (node == d) return ports;
    if (base.is_processor(node)) return {0};
    int bundle = -1;
    const std::vector<topo::PortBundle> bundles = base.output_bundles(node);
    const auto bundle_of = [&](int port) {
      for (std::size_t b = 0; b < bundles.size(); ++b)
        for (int i = 0; i < bundles[b].count; ++i)
          if (bundles[b][i] == port) return static_cast<int>(b);
      return -1;
    };
    for (int p = 0; p < base.num_ports(node); ++p) {
      const int v = base.neighbor(node, p);
      if (v == topo::kNoNode || faults.link_failed(node, p)) continue;
      if (base.is_processor(v) && v != d) continue;
      if (dist[static_cast<std::size_t>(v)] !=
          dist[static_cast<std::size_t>(node)] - 1)
        continue;
      if (bundle < 0) bundle = bundle_of(p);
      if (bundle_of(p) == bundle && ports.size() < 4) ports.push_back(p);
    }
    return ports;
  }
};

std::vector<int> ports_of(const topo::RouteOptions& r) {
  std::vector<int> out;
  for (int i = 0; i < r.size(); ++i) out.push_back(r[i]);
  return out;
}

/// Brute force over every destination and node: the decorator's routing is
/// the survivor routing, every node where that differs from the base is a
/// frontier candidate, and every non-candidate routes exactly as the base.
void check_frontier(const topo::Topology& base, const topo::FaultSet& fs,
                    const std::string& tag) {
  const topo::FaultedTopology view(base, fs);
  const int procs = base.num_processors();
  for (int d = 0; d < procs; ++d) {
    const std::vector<int>& cands = view.frontier_candidates(d);
    ASSERT_TRUE(std::is_sorted(cands.begin(), cands.end())) << tag;
    if (!view.destination_affected(d)) {
      EXPECT_TRUE(cands.empty()) << tag << " d=" << d;
    }
    const SurvivorReference ref(base, fs, d);
    for (int v = 0; v < base.num_nodes(); ++v) {
      const bool reach = ref.dist[static_cast<std::size_t>(v)] >= 0;
      ASSERT_EQ(view.can_reach(v, d), reach) << tag << " node " << v << " d=" << d;
      if (v < procs && v != d) {
        ASSERT_EQ(view.reachable(v, d), reach) << tag;
        if (reach) {
          ASSERT_EQ(view.distance(v, d), ref.dist[static_cast<std::size_t>(v)])
              << tag << " " << v << "->" << d;
        }
      }
      if (!reach || v == d) continue;
      const bool cand = std::binary_search(cands.begin(), cands.end(), v);
      const topo::RouteOptions healthy = base.route(v, d);
      const topo::RouteOptions degraded = view.route(v, d);
      const std::vector<int> survivor = ref.route(v);
      // Bit-identical to the survivor routing on the shipped topologies.
      ASSERT_EQ(ports_of(degraded), survivor)
          << tag << " node " << v << " d=" << d;
      const bool changed = ports_of(healthy) != survivor;
      if (changed) {
        ASSERT_TRUE(cand) << tag << ": routing of node " << v << " toward "
                          << d << " changed outside the frontier candidates";
      }
      if (!cand) {
        ASSERT_EQ(ports_of(degraded), ports_of(healthy)) << tag;
        const auto a = view.route_split(v, d, degraded);
        const auto b = base.route_split(v, d, healthy);
        for (int i = 0; i < healthy.size(); ++i)
          ASSERT_EQ(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)])
              << tag << " node " << v << " d=" << d;
      }
    }
  }
}

TEST(FaultRetune, FrontierCoversEveryRoutingChange) {
  const topo::ButterflyFatTree ft2(2);
  const topo::ButterflyFatTree ft3(3);
  const topo::ButterflyFatTree bft_m3(2, 3);
  const topo::Hypercube hc(3);
  const topo::Mesh mesh(3, 2);
  std::uint64_t seed = 4099;
  for (const topo::Topology* t :
       {static_cast<const topo::Topology*>(&ft2),
        static_cast<const topo::Topology*>(&ft3),
        static_cast<const topo::Topology*>(&bft_m3),
        static_cast<const topo::Topology*>(&hc),
        static_cast<const topo::Topology*>(&mesh)}) {
    // Every single-link fault.
    for (const auto& [node, port] : failable_links(*t)) {
      topo::FaultSet fs(*t);
      fs.fail_link(node, port);
      check_frontier(*t, fs,
                     t->name() + " link (" + std::to_string(node) + ", " +
                         std::to_string(port) + ")");
    }
    // Seeded k = 2 and k = 3 sets.
    std::mt19937_64 rng(++seed);
    for (const int k : {2, 3}) {
      for (int draw = 0; draw < 4; ++draw) {
        topo::FaultSet fs(*t);
        for (const auto& [node, port] : draw_links(*t, k, rng))
          fs.fail_link(node, port);
        check_frontier(*t, fs,
                       t->name() + " k=" + std::to_string(k) + " draw " +
                           std::to_string(draw));
      }
    }
    // One cut switch: the last node is a switch on every shipped topology.
    const auto cut = cut_switch(*t, t->num_nodes() - 1);
    check_frontier(*t, *cut, t->name() + " cut switch");
  }
}

TEST(FaultRetune, ChainedFaultDeltasMatchColdBuilds) {
  // A seeded chain of fault retunes on one resident: faulted → faulted with
  // overlapping and disjoint link sets, through cuts that leave pairs
  // unreachable, back to healthy, with pattern retunes interleaved.  After
  // every step the resident must match a cold build of its current state.
  const topo::ButterflyFatTree ft(3);
  const topo::Hypercube hc(4);
  const topo::Mesh mesh(3, 2);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  // Detours make the degraded hypercube's channel graph cyclic; a lower
  // fixed-point cap (the same for resident and cold models) keeps the 450
  // saturation searches cheap without loosening any parity bound.
  opts.max_iterations = 100;
  std::uint64_t seed = 7331;
  for (const topo::Topology* t : {static_cast<const topo::Topology*>(&ft),
                                  static_cast<const topo::Topology*>(&hc),
                                  static_cast<const topo::Topology*>(&mesh)}) {
    const int n = t->num_processors();
    const traffic::TrafficSpec fixed =
        traffic::TrafficSpec::transpose().check(n).empty()
            ? traffic::TrafficSpec::transpose()
            : traffic::TrafficSpec::bit_complement();
    traffic::TrafficMatrix rewired(n);
    for (int s = 0; s < n; ++s) {
      const int src = s == 0 ? 2 : s == 2 ? 0 : s;
      rewired.set(s, fixed.fixed_destination(src, n), 1.0);
    }
    // (base spec, the spec the interleaved pattern retunes move to)
    const std::vector<std::pair<traffic::TrafficSpec, traffic::TrafficSpec>>
        cells{{traffic::TrafficSpec::uniform(),
               traffic::TrafficSpec::hotspot(0.1, n / 2)},
              {traffic::TrafficSpec::hotspot(0.2),
               traffic::TrafficSpec::hotspot(0.2, n - 1)},
              {fixed, traffic::TrafficSpec::matrix(rewired)}};
    const std::vector<std::pair<int, int>> all_links = failable_links(*t);
    for (const auto& [spec, moved] : cells) {
      std::mt19937_64 rng(++seed);
      core::RetunableTrafficModel resident(*t, spec, opts);
      traffic::TrafficSpec current = spec;
      std::vector<std::pair<int, int>> links;  // the active set's links
      std::shared_ptr<const topo::FaultSet> active;
      long walked = 0;
      for (int step = 0; step < 50; ++step) {
        std::string what;
        const auto roll = std::uniform_int_distribution<int>(0, 9)(rng);
        if (step % 10 == 9) {
          current = current.name() == spec.name() ? moved : spec;
          resident.retune_traffic(current);
          what = "pattern -> " + current.name();
        } else {
          std::shared_ptr<topo::FaultSet> next;
          if (roll == 0) {
            what = "healthy";
            links.clear();
          } else if (roll == 1) {
            // A cut: a random switch loses its switch-to-switch links.
            const int sw = std::uniform_int_distribution<int>(
                n, t->num_nodes() - 1)(rng);
            next = cut_switch(*t, sw);
            links = next->failed_links();
            what = "cut switch " + std::to_string(sw);
          } else {
            // Overlapping (keep some current links) or disjoint redraws.
            const bool overlap = roll <= 5 && !links.empty();
            std::shuffle(links.begin(), links.end(), rng);
            if (overlap) {
              links.resize((links.size() + 1) / 2);
            } else {
              links.clear();
            }
            const int k = std::uniform_int_distribution<int>(1, 3)(rng);
            std::vector<std::pair<int, int>> pool = all_links;
            std::shuffle(pool.begin(), pool.end(), rng);
            for (const auto& l : pool) {
              if (static_cast<int>(links.size()) >= k + (overlap ? 1 : 0)) break;
              if (std::find(links.begin(), links.end(), l) == links.end())
                links.push_back(l);
            }
            next = std::make_shared<topo::FaultSet>(*t);
            for (const auto& [node, port] : links) next->fail_link(node, port);
            what = (overlap ? "overlapping " : "disjoint ") +
                   std::to_string(links.size()) + " links";
          }
          active = next;
          const core::RetuneReport rep = resident.retune_faults(active);
          EXPECT_FALSE(rep.rebuilt);
          walked += rep.nodes_visited;
        }
        const std::string tag = t->name() + "/" + spec.name() + " step " +
                                std::to_string(step) + " (" + what + ")";
        core::GeneralModel cold =
            active ? core::build_traffic_model(
                         topo::FaultedTopology(*t, *active), current, opts)
                   : core::build_traffic_model(*t, current, opts);
        expect_model_parity(resident.model(), cold, opts, tag);
        if (::testing::Test::HasFailure()) return;
      }
      EXPECT_GT(walked, 0) << t->name() << "/" << spec.name();
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded fault retunes: thread-count invariance and pinned answers.
// ---------------------------------------------------------------------------

/// One step of a fault chain: its label and the fault set (null: healthy).
struct ChainStep {
  std::string label;
  std::shared_ptr<const topo::FaultSet> faults;
};

/// A fault set failing `links`.
std::shared_ptr<const topo::FaultSet> fail_links(
    const topo::Topology& t, const std::vector<std::pair<int, int>>& links) {
  auto fs = std::make_shared<topo::FaultSet>(t);
  for (const auto& [node, port] : links) fs->fail_link(node, port);
  return fs;
}

/// Everything a retuned resident answers, as raw bits: per class the rate,
/// self_frac, C_a² and every transition; the mean distance and unroutable
/// share; and its routing view's route()/route_split()/distance() at every
/// (node, destination) pair the view can route, plus the view's mean
/// distance.
std::vector<std::uint64_t> resident_bits(
    const core::RetunableTrafficModel& rm) {
  std::vector<std::uint64_t> bits;
  const auto put = [&](double v) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  };
  const core::GeneralModel& net = rm.model();
  for (int id = 0; id < net.graph.size(); ++id) {
    const core::ChannelClass& c = net.graph.at(id);
    put(c.rate_per_link);
    put(c.self_frac);
    put(c.ca2);
    for (const core::Transition& t : net.graph.transitions(id)) {
      bits.push_back(static_cast<std::uint64_t>(t.target));
      put(t.weight);
      put(t.route_prob);
    }
  }
  put(net.mean_distance);
  put(net.unroutable_fraction);
  const topo::Topology& view = rm.routing_topology();
  const auto* faulted = dynamic_cast<const topo::FaultedTopology*>(&view);
  const int procs = view.num_processors();
  for (int d = 0; d < procs; ++d) {
    for (int v = 0; v < view.num_nodes(); ++v) {
      if (faulted != nullptr && !faulted->can_reach(v, d)) {
        bits.push_back(~0ull);
        continue;
      }
      const topo::RouteOptions r = view.route(v, d);
      bits.push_back(static_cast<std::uint64_t>(r.size()));
      if (r.size() == 0) continue;
      const std::array<double, 4> split = view.route_split(v, d, r);
      for (int i = 0; i < r.size(); ++i) {
        bits.push_back(static_cast<std::uint64_t>(r[i]));
        put(split[static_cast<std::size_t>(i)]);
      }
      if (v < procs && v != d)
        bits.push_back(static_cast<std::uint64_t>(view.distance(v, d)));
    }
  }
  put(view.mean_distance());
  return bits;
}

struct PinnedAnswer {
  const char* tag;
  double saturation_rate, latency;  ///< latency at 0.4 · saturation_rate
};

// Answers of the chains below as computed by the serial column loop the
// sharded retune replaced; any change of these bits is a change of answers.
// clang-format off
const PinnedAnswer kChainAnswers[] = {
    {"butterfly-fat-tree(n=4, N=256) uniform top link",
     0x1.c6dc4da3fd8b6p-9, 0x1.83d2a1470c46bp+4},
    {"butterfly-fat-tree(n=4, N=256) uniform level-1 link",
     0x1.34f351188a50cp-8, 0x1.91622770081a3p+4},
    {"butterfly-fat-tree(n=4, N=256) uniform N-2",
     0x1.c6dc4995053aep-9, 0x1.844ebebaaa53fp+4},
    {"butterfly-fat-tree(n=4, N=256) uniform healthy",
     0x1.42a30d2402a3ep-8, 0x1.93f5fac17f727p+4},
    {"butterfly-fat-tree(n=4, N=256) hotspot(f=0.20,node=37) top link",
     0x1.e968162dd838ap-11, 0x1.783f64a2f1e0ap+4},
    {"butterfly-fat-tree(n=4, N=256) hotspot(f=0.20,node=37) level-1 link",
     0x1.ee4740d05299ap-11, 0x1.784d4c451509cp+4},
    {"butterfly-fat-tree(n=4, N=256) hotspot(f=0.20,node=37) N-2",
     0x1.eb58d89cd16dcp-11, 0x1.783cab0e51d66p+4},
    {"butterfly-fat-tree(n=4, N=256) hotspot(f=0.20,node=37) healthy",
     0x1.ef6fcc6be07b8p-11, 0x1.7859b966f7d6p+4},
    {"mesh(k=4, d=4, N=256) uniform first link",
     0x1.1c4dff00a870ep-6, 0x1.abddffc0e71bp+4},
    {"mesh(k=4, d=4, N=256) uniform middle link",
     0x1.3709c699db9a8p-6, 0x1.b6ee8f07d312cp+4},
    {"mesh(k=4, d=4, N=256) uniform N-2",
     0x1.219cc82c6f144p-6, 0x1.ae7510bbb9502p+4},
    {"mesh(k=4, d=4, N=256) uniform healthy",
     0x1.3b31dd01039d6p-6, 0x1.b81d1fcbed648p+4},
};
// clang-format on

void print_chain_answers(const std::vector<PinnedAnswer>& got,
                         const std::vector<std::string>& tags) {
  std::printf("const PinnedAnswer kChainAnswers[] = {\n");
  for (std::size_t i = 0; i < got.size(); ++i)
    std::printf("    {\"%s\",\n     %a, %a},\n", tags[i].c_str(),
                got[i].saturation_rate, got[i].latency);
  std::printf("};\n");
}

TEST(FaultRetune, ShardedChainsAreBitIdenticalForEveryThreadCount) {
  // A chain of fault retunes — a top-level link, a level-1 link, an N−2
  // set, back to healthy — on residents whose retunes run serially
  // (threads = 1), on private pools of 2 and 3 workers, and on the shared
  // pool (0).  Every step must give the same bits under every width, and
  // the answers must be the pinned ones.
  const topo::ButterflyFatTree ft(4);
  const topo::Mesh mesh(4, 4);
  const std::vector<std::pair<int, int>> mesh_links = failable_links(mesh);
  const std::size_t mid = mesh_links.size() / 2;
  const int up0 = topo::ButterflyFatTree::kParentPort0;
  const int up1 = topo::ButterflyFatTree::kParentPort1;
  const std::vector<ChainStep> ft_chain{
      {"top link", fail_links(ft, {{ft.switch_id(3, 0), up0}})},
      {"level-1 link", fail_links(ft, {{ft.switch_id(1, 5), up1}})},
      {"N-2", fail_links(ft, {{ft.switch_id(2, 3), up1},
                              {ft.switch_id(3, 6), up0}})},
      {"healthy", nullptr}};
  const std::vector<ChainStep> mesh_chain{
      {"first link", fail_links(mesh, {mesh_links.front()})},
      {"middle link", fail_links(mesh, {mesh_links[mid]})},
      {"N-2", fail_links(mesh, {mesh_links[mid / 2], mesh_links[mid + 7]})},
      {"healthy", nullptr}};
  struct Cell {
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
    const std::vector<ChainStep>* chain;
  };
  const std::vector<Cell> cells{
      {&ft, traffic::TrafficSpec::uniform(), &ft_chain},
      {&ft, traffic::TrafficSpec::hotspot(0.2, 37), &ft_chain},
      {&mesh, traffic::TrafficSpec::uniform(), &mesh_chain}};
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  opts.max_iterations = 100;  // detoured mesh graphs are cyclic

  std::vector<PinnedAnswer> got;
  std::vector<std::string> tags;
  for (const Cell& cell : cells) {
    std::vector<std::vector<std::uint64_t>> serial;  // threads = 1, per step
    for (const unsigned threads : {1u, 2u, 3u, 0u}) {
      core::TrafficBuildOptions build;
      build.threads = threads;
      core::RetunableTrafficModel rm(*cell.topo, cell.spec, opts, build);
      for (std::size_t k = 0; k < cell.chain->size(); ++k) {
        const ChainStep& step = (*cell.chain)[k];
        const std::string tag =
            cell.topo->name() + " " + cell.spec.name() + " " + step.label;
        const core::RetuneReport rep = rm.retune_faults(step.faults);
        ASSERT_FALSE(rep.rebuilt) << tag;
        ASSERT_GT(rep.passes, 0) << tag;
        std::vector<std::uint64_t> bits = resident_bits(rm);
        if (threads == 1) {
          serial.push_back(std::move(bits));
          const double sat = core::model_saturation_rate(rm.model(), opts);
          const double lat =
              core::model_latency(rm.model(), 0.4 * sat, opts).latency;
          got.push_back({nullptr, sat, lat});
          tags.push_back(tag);
          continue;
        }
        const std::vector<std::uint64_t>& want = serial[k];
        ASSERT_EQ(bits.size(), want.size()) << tag << " threads=" << threads;
        const auto diff = std::mismatch(bits.begin(), bits.end(), want.begin());
        ASSERT_TRUE(diff.first == bits.end())
            << tag << " threads=" << threads << ": first differing word "
            << (diff.first - bits.begin()) << " of " << bits.size();
      }
    }
  }

  const std::size_t n = std::size(kChainAnswers);
  bool ok = got.size() == n;
  EXPECT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n && i < got.size(); ++i) {
    const PinnedAnswer& w = kChainAnswers[i];
    const bool row_ok =
        tags[i] == w.tag &&
        std::bit_cast<std::uint64_t>(got[i].saturation_rate) ==
            std::bit_cast<std::uint64_t>(w.saturation_rate) &&
        std::bit_cast<std::uint64_t>(got[i].latency) ==
            std::bit_cast<std::uint64_t>(w.latency);
    EXPECT_TRUE(row_ok) << tags[i] << std::hexfloat << ": saturation "
                        << got[i].saturation_rate << " vs "
                        << w.saturation_rate << ", latency " << got[i].latency
                        << " vs " << w.latency;
    ok = ok && row_ok;
  }
  if (!ok) print_chain_answers(got, tags);
}

// ---------------------------------------------------------------------------
// Column-pass digests: every consumer of the per-destination column pass.
// ---------------------------------------------------------------------------

struct PinnedDigest {
  const char* tag;
  std::uint64_t digest;
};

// content_digest() of each step below.  Every sum the column pass feeds is
// added in a fixed order — per node in arrival order, nodes in the walk's
// topological order, and the fault delta's frontier seeds in that same
// order — and reordering any of them moves these bits.
// clang-format off
const PinnedDigest kColumnPassDigests[] = {
    {"dense butterfly-fat-tree(n=3, N=64) uniform", 0xa27f782a676d4e46ull},
    {"dense hypercube(n=6, N=64) hotspot(f=0.20,node=1)", 0xeac087c16eabd70bull},
    {"dense mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1)", 0x11d23bfc21199ee6ull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 0", 0x3965c4adc4a8871cull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 1", 0xbfca59739e8440d6ull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 2", 0x56014b9c09f19387ull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 3", 0xaf6254617f6efee2ull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 4", 0xc269df7ff2e62afdull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 5", 0x215cd6fdb7cc1ffcull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 6", 0x18580f20073ef074ull},
    {"butterfly-fat-tree(n=3, N=64) permutation step 7", 0xe8b9f7b4cb4a346dull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 0", 0xbff7c51ec92801ccull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 1", 0xd695558ba4a17806ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 2", 0x2aa7b7e16c98bfe4ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 3", 0xbed40b143659c895ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 4", 0x7c990e34ce5f01d3ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 5", 0x87a592edf7722a85ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 6", 0x5761bb7d5fb4b1e9ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 7", 0x07679fababd3ef25ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 8", 0xe4f0af9ab33f22e1ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 9", 0x9f47cc866d55b293ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 10", 0x4f0d0695b073a435ull},
    {"hypercube(n=6, N=64) hotspot(f=0.20,node=1) fault step 11", 0x9938a3d5c1e34e7aull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 0", 0x9f69270ac85d1127ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 1", 0xf6b4a1ccbfae6588ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 2", 0xe974077de1ebfc37ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 3", 0xd2b8629c6a838707ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 4", 0xec1c3e956ebad837ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 5", 0xc913d54453e63be6ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 6", 0x39725c6789b51135ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 7", 0x3aacc54e8507597full},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 8", 0xcf2f43c59e8b238cull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 9", 0x3faf16f2bb8d75d0ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 10", 0x2a4cc7eadc792d05ull},
    {"mesh(k=4, d=2, N=16) hotspot(f=0.20,node=1) fault step 11", 0x212f7863faa06babull},
};
// clang-format on

/// A single-cycle derangement of 0..n-1 drawn from `rng`.
std::vector<int> random_derangement(int n, std::mt19937_64& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng() % (i + 1))]);
  std::vector<int> dest(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    dest[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        order[static_cast<std::size_t>((i + 1) % n)];
  return dest;
}

TEST(FaultRetune, ColumnPassDigestsArePinned) {
  // Dense builds, a seeded permutation-delta chain on BFT(3) and seeded
  // fault-delta chains ending in a heal, all through the column pass.
  const topo::ButterflyFatTree ft(3);
  const topo::Hypercube hc(6);
  const topo::Mesh mesh(4, 2);
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.2, 1);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  std::vector<std::string> tags;
  std::vector<std::uint64_t> got;
  const auto record = [&](const std::string& tag, const core::GeneralModel& m) {
    tags.push_back(tag);
    got.push_back(m.content_digest());
  };

  record("dense " + ft.name() + " uniform",
         core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts));
  record("dense " + hc.name() + " " + hot.name(),
         core::build_traffic_model(hc, hot, opts));
  record("dense " + mesh.name() + " " + hot.name(),
         core::build_traffic_model(mesh, hot, opts));

  std::mt19937_64 rng(4242);
  const int n = ft.num_processors();
  std::vector<int> dest = random_derangement(n, rng);
  core::RetunableTrafficModel perm(ft, traffic::TrafficSpec::permutation(dest),
                                   opts);
  for (int step = 0; step < 8; ++step) {
    // 1-4 swaps of two sources' destinations, keeping the derangement.
    const int swaps = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < swaps;) {
      const int a = static_cast<int>(rng() % n);
      const int b = static_cast<int>(rng() % n);
      const auto ua = static_cast<std::size_t>(a);
      const auto ub = static_cast<std::size_t>(b);
      if (a == b || dest[ua] == b || dest[ub] == a) continue;
      std::swap(dest[ua], dest[ub]);
      ++k;
    }
    const core::RetuneReport rep =
        perm.retune_traffic(traffic::TrafficSpec::permutation(dest));
    EXPECT_FALSE(rep.rebuilt) << "permutation step " << step;
    record(ft.name() + " permutation step " + std::to_string(step),
           perm.model());
  }

  for (const topo::Topology* t : {static_cast<const topo::Topology*>(&hc),
                                  static_cast<const topo::Topology*>(&mesh)}) {
    const std::vector<std::pair<int, int>> links = failable_links(*t);
    core::RetunableTrafficModel rm(*t, hot, opts);
    for (int step = 0; step < 12; ++step) {
      std::shared_ptr<const topo::FaultSet> faults;  // the last step heals
      if (step < 11) {
        std::vector<std::pair<int, int>> failed;
        const std::size_t k = 1 + rng() % 3;
        while (failed.size() < k) {
          const auto& l = links[rng() % links.size()];
          if (std::find(failed.begin(), failed.end(), l) == failed.end())
            failed.push_back(l);
        }
        faults = fail_links(*t, failed);
      }
      const core::RetuneReport rep = rm.retune_faults(faults);
      EXPECT_FALSE(rep.rebuilt) << t->name() << " fault step " << step;
      record(t->name() + " " + hot.name() + " fault step " +
                 std::to_string(step),
             rm.model());
    }
  }

  const std::size_t want = std::size(kColumnPassDigests);
  bool ok = got.size() == want;
  EXPECT_EQ(got.size(), want);
  for (std::size_t i = 0; i < want && i < got.size(); ++i) {
    const PinnedDigest& w = kColumnPassDigests[i];
    const bool row_ok = tags[i] == w.tag && got[i] == w.digest;
    EXPECT_TRUE(row_ok) << tags[i] << std::hex << ": digest 0x" << got[i]
                        << " vs 0x" << w.digest;
    ok = ok && row_ok;
  }
  if (!ok) {
    std::printf("const PinnedDigest kColumnPassDigests[] = {\n");
    for (std::size_t i = 0; i < got.size(); ++i)
      std::printf("    {\"%s\", 0x%016llxull},\n", tags[i].c_str(),
                  static_cast<unsigned long long>(got[i]));
    std::printf("};\n");
  }
}

// ---------------------------------------------------------------------------
// Pattern-delta answers: retune_traffic steps the digests above miss.
// ---------------------------------------------------------------------------

struct PinnedPatternStep {
  const char* tag;
  std::uint64_t digest;
  double saturation_rate;
  double latency;  ///< at 0.5 x saturation_rate
};

// content_digest(), saturation rate and latency at half of it after each
// pattern delta below: a custom-matrix chain with non-dyadic weights and
// silent rows, pattern deltas on a resident whose cut switch leaves
// unroutable demand, and steps between a permutation (sparse columns) and
// a matrix (scanned columns).
// clang-format off
const PinnedPatternStep kPatternSteps[] = {
    {"butterfly-fat-tree(n=3, N=64) matrix step 0",
     0x97a5993fd17cff87ull, 0x1.409346be2dda2p-7, 0x1.8d417dee4cd1p+4},
    {"butterfly-fat-tree(n=3, N=64) matrix step 1",
     0x314301eb9df17bdcull, 0x1.445da391a3f26p-7, 0x1.8cedda3375be9p+4},
    {"butterfly-fat-tree(n=3, N=64) matrix step 2",
     0xe9300621eb2eec33ull, 0x1.44cd322a7f082p-7, 0x1.8ce2cd211e581p+4},
    {"butterfly-fat-tree(n=3, N=64) matrix step 3",
     0xd1f5c609cb057c91ull, 0x1.46f63411c14d4p-7, 0x1.8d3fd72fa3e3cp+4},
    {"butterfly-fat-tree(n=3, N=64) matrix step 4",
     0x2fafde7fa530cebdull, 0x1.4be2108cffe96p-7, 0x1.8ea0c9899c97ep+4},
    {"butterfly-fat-tree(n=3, N=64) matrix step 5",
     0x94443ce14cdc32d0ull, 0x1.4cb621d21922cp-7, 0x1.8ed3d5b666f89p+4},
    {"mesh(k=4, d=4, N=256) cut hotspot(f=0.20,node=3)",
     0xa1eb2e1b1d8b7388ull, 0x1.cd86abb462f7ep-11, 0x1.747ec93be8e7cp+4},
    {"mesh(k=4, d=4, N=256) cut hotspot(f=0.20,node=37)",
     0x816188c32317276eull, 0x1.265bf56f5cbcap-6, 0x1.9816773f3705ap+4},
    {"mesh(k=4, d=4, N=256) cut hotspot(f=0.20,node=200)",
     0x4f8fbc9d131d4b72ull, 0x1.ce55c808b34f4p-11, 0x1.72de947bd1b89p+4},
    {"mesh(k=4, d=4, N=256) cut permutation (rebuilt)",
     0x240eba1c90d4a90aull, 0x1.0a89989293b32p-7, 0x1.7dcae158c8c8ap+4},
    {"mesh(k=4, d=4, N=256) cut permutation step 0",
     0x58f5ead6bcafd30cull, 0x1.0a8998b936dd4p-7, 0x1.7d9568436f5efp+4},
    {"mesh(k=4, d=4, N=256) cut permutation step 1",
     0x6d9b403284080a19ull, 0x1.0a8998539644cp-7, 0x1.7de521fed8da8p+4},
    {"mesh(k=4, d=4, N=256) cut permutation step 2",
     0x0e3a67cebec4df10ull, 0x1.0a8998d52c24ep-7, 0x1.7d8106bed1c4ap+4},
    {"butterfly-fat-tree(n=3, N=64) permutation -> matrix",
     0xf4cfa7ae022d18d2ull, 0x1.37d52ba041e9ep-7, 0x1.84f32eef26438p+4},
    {"butterfly-fat-tree(n=3, N=64) matrix -> permutation",
     0x1e862298b2f0886full, 0x1.40a6b8981278cp-7, 0x1.86083689ec16ep+4},
};
// clang-format on

/// A row-stochastic matrix over n processors with non-dyadic weights drawn
/// from `rng`; rows listed in `silent` stay all-zero.
traffic::TrafficMatrix random_matrix(int n, std::mt19937_64& rng,
                                     const std::vector<int>& silent = {}) {
  traffic::TrafficMatrix m(n);
  for (int s = 0; s < n; ++s) {
    if (std::find(silent.begin(), silent.end(), s) != silent.end()) continue;
    for (int d = 0; d < n; ++d)
      if (d != s && rng() % 3 == 0) m.set(s, d, 1.0 + static_cast<double>(rng() % 7));
  }
  m.normalize_rows();
  return m;
}

/// `m` with row `s` redrawn from `rng` (all-zero when `silent`).
traffic::TrafficMatrix redraw_row(traffic::TrafficMatrix m, int s,
                                  std::mt19937_64& rng, bool silent) {
  const int n = m.size();
  double sum = 0.0;
  std::vector<double> row(static_cast<std::size_t>(n), 0.0);
  if (!silent) {
    for (int d = 0; d < n; ++d) {
      if (d == s || rng() % 4 != 0) continue;
      row[static_cast<std::size_t>(d)] = 1.0 + static_cast<double>(rng() % 5);
      sum += row[static_cast<std::size_t>(d)];
    }
    if (sum == 0.0) {
      row[static_cast<std::size_t>((s + 1) % n)] = 1.0;
      sum = 1.0;
    }
  }
  for (int d = 0; d < n; ++d)
    if (d != s) m.set(s, d, silent ? 0.0 : row[static_cast<std::size_t>(d)] / sum);
  return m;
}

TEST(PatternRetune, DeltaAnswersArePinned) {
  const topo::ButterflyFatTree ft(3);
  const topo::Mesh mesh(4, 4);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  opts.max_iterations = 100;  // detoured mesh graphs are cyclic
  std::vector<PinnedPatternStep> got;
  std::vector<std::string> tags;
  const auto record = [&](const std::string& tag,
                          const core::RetunableTrafficModel& rm,
                          const core::RetuneReport& rep) {
    const core::GeneralModel& m = rm.model();
    const double sat = core::model_saturation_rate(m, opts);
    got.push_back({nullptr, m.content_digest(), sat,
                   core::model_latency(m, 0.5 * sat, opts).latency});
    tags.push_back(tag + (rep.rebuilt ? " (rebuilt)" : ""));
  };
  std::mt19937_64 rng(9091);

  // A custom-matrix chain on dense BFT(3): each step redraws one to three
  // rows, one of them silenced or revived now and then.
  const int n = ft.num_processors();
  traffic::TrafficMatrix m = random_matrix(n, rng, {5});
  core::RetunableTrafficModel chain(ft, traffic::TrafficSpec::matrix(m), opts);
  for (int step = 0; step < 6; ++step) {
    const int rows = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < rows; ++k) {
      const int s = static_cast<int>(rng() % n);
      m = redraw_row(std::move(m), s, rng, step % 3 == 1 && k == 0);
    }
    if (step == 4) m = redraw_row(std::move(m), 5, rng, false);
    const core::RetuneReport rep =
        chain.retune_traffic(traffic::TrafficSpec::matrix(m));
    EXPECT_FALSE(rep.rebuilt) << "matrix step " << step;
    record(ft.name() + " matrix step " + std::to_string(step), chain, rep);
  }

  // Pattern deltas on a resident with a cut switch: the cut processor's
  // demand is unroutable, and deltas that move it change only that share.
  const int cut_pe = 37;
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.2, 3);
  core::RetunableTrafficModel cut(mesh, hot, opts);
  cut.retune_faults(cut_switch(mesh, mesh.neighbor(cut_pe, 0)));
  EXPECT_GT(cut.model().unroutable_fraction, 0.0);
  record(mesh.name() + " cut " + hot.name(), cut, {});
  const traffic::TrafficSpec mesh_steps[] = {
      traffic::TrafficSpec::hotspot(0.2, cut_pe),
      traffic::TrafficSpec::hotspot(0.2, 200),
  };
  for (const traffic::TrafficSpec& spec : mesh_steps) {
    const core::RetuneReport rep = cut.retune_traffic(spec);
    EXPECT_FALSE(rep.rebuilt) << spec.name();
    record(mesh.name() + " cut " + spec.name(), cut, rep);
  }
  const int mn = mesh.num_processors();
  std::vector<int> dest = random_derangement(mn, rng);
  record(mesh.name() + " cut permutation",
         cut, cut.retune_traffic(traffic::TrafficSpec::permutation(dest)));
  for (int step = 0; step < 3; ++step) {
    // Swap the cut processor's destination with another source's.
    const int b = (cut_pe + 1 + static_cast<int>(rng() % (mn - 1))) % mn;
    const auto ua = static_cast<std::size_t>(cut_pe);
    const auto ub = static_cast<std::size_t>(b);
    if (dest[ua] == b || dest[ub] == cut_pe) continue;
    std::swap(dest[ua], dest[ub]);
    const core::RetuneReport rep =
        cut.retune_traffic(traffic::TrafficSpec::permutation(dest));
    EXPECT_FALSE(rep.rebuilt) << "cut permutation step " << step;
    record(mesh.name() + " cut permutation step " + std::to_string(step), cut,
           rep);
  }

  // Permutation <-> matrix on dense BFT(3): the matrix is the permutation
  // with two rows redrawn, so one side's columns are sparse and the other's
  // are scanned.
  const std::vector<int> perm = random_derangement(n, rng);
  core::RetunableTrafficModel mixed(ft, traffic::TrafficSpec::permutation(perm),
                                    opts);
  traffic::TrafficMatrix pm = traffic::TrafficSpec::permutation(perm).materialize(n);
  pm = redraw_row(std::move(pm), 11, rng, false);
  pm = redraw_row(std::move(pm), 40, rng, false);
  core::RetuneReport rep = mixed.retune_traffic(traffic::TrafficSpec::matrix(pm));
  EXPECT_FALSE(rep.rebuilt);
  record(ft.name() + " permutation -> matrix", mixed, rep);
  std::vector<int> back = perm;
  std::swap(back[3], back[17]);
  if (back[3] == 3 || back[17] == 17) std::swap(back[3], back[17]);
  rep = mixed.retune_traffic(traffic::TrafficSpec::permutation(back));
  EXPECT_FALSE(rep.rebuilt);
  record(ft.name() + " matrix -> permutation", mixed, rep);

  const std::size_t want = std::size(kPatternSteps);
  bool ok = got.size() == want;
  EXPECT_EQ(got.size(), want);
  for (std::size_t i = 0; i < want && i < got.size(); ++i) {
    const PinnedPatternStep& w = kPatternSteps[i];
    const bool row_ok =
        tags[i] == w.tag && got[i].digest == w.digest &&
        std::bit_cast<std::uint64_t>(got[i].saturation_rate) ==
            std::bit_cast<std::uint64_t>(w.saturation_rate) &&
        std::bit_cast<std::uint64_t>(got[i].latency) ==
            std::bit_cast<std::uint64_t>(w.latency);
    EXPECT_TRUE(row_ok) << tags[i] << std::hex << ": digest 0x" << got[i].digest
                        << " vs 0x" << w.digest << std::hexfloat
                        << ", saturation " << got[i].saturation_rate << " vs "
                        << w.saturation_rate << ", latency " << got[i].latency
                        << " vs " << w.latency;
    ok = ok && row_ok;
  }
  if (!ok) {
    std::printf("const PinnedPatternStep kPatternSteps[] = {\n");
    for (std::size_t i = 0; i < got.size(); ++i)
      std::printf("    {\"%s\",\n     0x%016llxull, %a, %a},\n",
                  tags[i].c_str(),
                  static_cast<unsigned long long>(got[i].digest),
                  got[i].saturation_rate, got[i].latency);
    std::printf("};\n");
  }
}

TEST(FaultFuzz, RandomFaultsKeepConservationAndFiniteSolves) {
  const topo::ButterflyFatTree ft = bft2();
  const topo::Hypercube hc(3);
  const std::vector<const topo::Topology*> topos{&ft, &hc};
  const std::vector<traffic::TrafficSpec> specs{
      traffic::TrafficSpec::uniform(),
      traffic::TrafficSpec::hotspot(0.2),
      traffic::TrafficSpec::transpose(),
  };
  std::uint64_t seed = 1097;
  for (const topo::Topology* t : topos) {
    for (const traffic::TrafficSpec& spec : specs) {
      if (!spec.check(t->num_processors()).empty()) continue;
      for (const int k : {1, 2, 3}) {
        fuzz_one(*t, spec, k, ++seed,
                 t->name() + "/" + spec.name() + "/k=" + std::to_string(k));
      }
    }
  }
}

}  // namespace
}  // namespace wormnet
