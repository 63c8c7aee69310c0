// Tests for core::build_traffic_model — the traffic-aware route-enumeration
// builder.  Three layers of checks:
//  * conservation: for every topology x pattern, the enumerated per-channel
//    rates satisfy Kirchhoff flow conservation (switch in-rate == out-rate,
//    processor injection == row weight, ejection == column weight);
//  * parity: under TrafficSpec::uniform() the builder reproduces the
//    hand-derived fat-tree and hypercube channel rates and latencies;
//  * pattern physics: hotspot ejection follows the closed form and drags the
//    saturation point below the uniform model's; permutations unload the
//    network the way the simulator measures.
#include "core/traffic_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "obs/metrics.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/symmetry.hpp"

namespace wormnet::core {
namespace {

std::vector<traffic::TrafficSpec> patterns_for(int n) {
  std::vector<traffic::TrafficSpec> all{
      traffic::TrafficSpec::uniform(),
      traffic::TrafficSpec::hotspot(0.2),
      traffic::TrafficSpec::bit_complement(),
      traffic::TrafficSpec::transpose(),
      traffic::TrafficSpec::nearest_neighbor(0.5),
  };
  std::vector<int> shift(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) shift[static_cast<std::size_t>(s)] = (s + 1) % n;
  all.push_back(traffic::TrafficSpec::permutation(shift));
  std::vector<traffic::TrafficSpec> usable;
  for (traffic::TrafficSpec& spec : all) {
    if (spec.check(n).empty()) usable.push_back(spec);
  }
  return usable;
}

/// Kirchhoff conservation of the enumerated unit-rate flows:
///  * every switch forwards exactly what it receives;
///  * every processor injects its row weight and absorbs its column weight;
///  * network-wide, injected == ejected.
void expect_flow_conservation(const topo::Topology& topo,
                              const traffic::TrafficSpec& spec) {
  const GeneralModel net = build_traffic_model(topo, spec);
  const topo::ChannelTable ct(topo);
  const int procs = topo.num_processors();
  const traffic::TrafficMatrix m = spec.materialize(procs);
  const std::string tag = net.model_name;

  std::vector<double> in_rate(static_cast<std::size_t>(topo.num_nodes()), 0.0);
  std::vector<double> out_rate(static_cast<std::size_t>(topo.num_nodes()), 0.0);
  for (int ch = 0; ch < ct.size(); ++ch) {
    const topo::DirectedChannel& dc = ct.at(ch);
    const double rate = net.graph.at(ch).rate_per_link;
    out_rate[static_cast<std::size_t>(dc.src_node)] += rate;
    in_rate[static_cast<std::size_t>(dc.dst_node)] += rate;
  }
  double injected = 0.0;
  double ejected = 0.0;
  for (int node = 0; node < topo.num_nodes(); ++node) {
    if (topo.is_processor(node)) {
      EXPECT_NEAR(out_rate[static_cast<std::size_t>(node)], m.row_sum(node), 1e-9)
          << tag << " injection at PE " << node;
      EXPECT_NEAR(in_rate[static_cast<std::size_t>(node)], m.col_sum(node), 1e-9)
          << tag << " ejection at PE " << node;
      injected += out_rate[static_cast<std::size_t>(node)];
      ejected += in_rate[static_cast<std::size_t>(node)];
    } else {
      EXPECT_NEAR(in_rate[static_cast<std::size_t>(node)],
                  out_rate[static_cast<std::size_t>(node)], 1e-9)
          << tag << " switch " << node << " does not conserve flow";
    }
  }
  EXPECT_NEAR(injected, ejected, 1e-9) << tag;
}

TEST(TrafficModel, FlowConservationAcrossTopologiesAndPatterns) {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(3);
  const topo::Mesh mesh(3, 2);
  for (const topo::Topology* topo :
       std::initializer_list<const topo::Topology*>{&ft, &hc, &mesh}) {
    for (const traffic::TrafficSpec& spec : patterns_for(topo->num_processors())) {
      expect_flow_conservation(*topo, spec);
    }
  }
}

/// Every field of a built model, as bits, in a fixed order.
std::vector<std::uint64_t> model_bits(const GeneralModel& m) {
  std::vector<std::uint64_t> bits;
  const auto put = [&](double x) {
    bits.push_back(std::bit_cast<std::uint64_t>(x));
  };
  const auto put_int = [&](int x) {
    bits.push_back(static_cast<std::uint64_t>(x));
  };
  for (int c = 0; c < m.graph.size(); ++c) {
    const ChannelClass& k = m.graph.at(c);
    for (const int x : {k.servers, k.lanes, k.buffer_depth, int{k.terminal}})
      put_int(x);
    for (const double x : {k.bandwidth, k.link_latency, k.ca2, k.rate_per_link,
                           k.self_frac})
      put(x);
    for (const Transition& t : k.next) {
      put_int(t.target);
      put(t.weight);
      put(t.route_prob);
    }
  }
  for (const int c : m.channel_class_of) put_int(c);
  for (const int c : m.injection_classes) put_int(c);
  for (const double w : m.injection_class_weights) put(w);
  put(m.mean_distance);
  put(m.unroutable_fraction);
  return bits;
}

bool same_classes(const topo::SymmetryClasses& a,
                  const topo::SymmetryClasses& b) {
  if (a.class_rep.size() != b.class_rep.size()) return false;
  for (std::size_t c = 0; c < a.class_rep.size(); ++c) {
    const topo::DirectedChannel& x = a.class_rep[c];
    const topo::DirectedChannel& y = b.class_rep[c];
    if (x.src_node != y.src_node || x.src_port != y.src_port ||
        x.dst_node != y.dst_node || x.dst_port != y.dst_port)
      return false;
  }
  return a.channel_class == b.channel_class && a.class_size == b.class_size &&
         a.orbit_rep == b.orbit_rep && a.orbit_size == b.orbit_size &&
         a.class_of_key == b.class_of_key &&
         a.num_proc_orbits == b.num_proc_orbits &&
         a.num_channel_classes == b.num_channel_classes;
}

TEST(TrafficModel, ParallelBuildBitwiseIdenticalToSerialEverywhere) {
  // The sharded parallel builder must reproduce the serial builder's result
  // BIT FOR BIT for every topology x pattern cell this suite covers: shard
  // boundaries depend only on the processor count and the reduction runs in
  // shard order, so worker count cannot move a single ulp.
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(3);
  const topo::Mesh mesh(3, 2);
  TrafficBuildOptions serial;
  serial.threads = 1;
  TrafficBuildOptions parallel;
  parallel.threads = 4;
  TrafficBuildOptions shared_pool;  // threads = 0: the default shared pool
  for (const topo::Topology* topo :
       std::initializer_list<const topo::Topology*>{&ft, &hc, &mesh}) {
    for (const traffic::TrafficSpec& spec : patterns_for(topo->num_processors())) {
      const GeneralModel a = build_traffic_model(*topo, spec, {}, serial);
      const GeneralModel b = build_traffic_model(*topo, spec, {}, parallel);
      const GeneralModel c = build_traffic_model(*topo, spec, {}, shared_pool);
      const std::string tag = a.model_name;
      EXPECT_EQ(c.mean_distance, a.mean_distance) << tag;
      for (int ch = 0; ch < a.graph.size(); ++ch) {
        EXPECT_EQ(c.graph.at(ch).rate_per_link, a.graph.at(ch).rate_per_link)
            << tag << " (shared pool) ch " << ch;
      }
      ASSERT_EQ(a.graph.size(), b.graph.size()) << tag;
      for (int ch = 0; ch < a.graph.size(); ++ch) {
        const ChannelClass& ca = a.graph.at(ch);
        const ChannelClass& cb = b.graph.at(ch);
        EXPECT_EQ(ca.rate_per_link, cb.rate_per_link) << tag << " ch " << ch;
        ASSERT_EQ(ca.next.size(), cb.next.size()) << tag << " ch " << ch;
        for (std::size_t t = 0; t < ca.next.size(); ++t) {
          EXPECT_EQ(ca.next[t].target, cb.next[t].target) << tag;
          EXPECT_EQ(ca.next[t].weight, cb.next[t].weight) << tag;
          EXPECT_EQ(ca.next[t].route_prob, cb.next[t].route_prob) << tag;
        }
      }
      EXPECT_EQ(a.mean_distance, b.mean_distance) << tag;
      EXPECT_EQ(a.injection_classes, b.injection_classes) << tag;
    }
  }

  // Collapsed builds past the cutoff, on both paths: BFT(5) on the orbit
  // graph, Hypercube(8) and Mesh(16,2) node by node.  The model and the
  // class index under it must be the same bits at every width.
  const topo::ButterflyFatTree ft5(5);
  const topo::Hypercube hc8(8);
  const topo::Mesh mesh16(16, 2);
  struct Collapsible {
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
    const char* path;
  };
  for (const Collapsible& cell :
       {Collapsible{&ft5, traffic::TrafficSpec::uniform(), "path=quotient"},
        Collapsible{&ft5, traffic::TrafficSpec::hotspot(0.1, 100),
                    "path=quotient"},
        Collapsible{&hc8, traffic::TrafficSpec::uniform(), "path=node"},
        Collapsible{&mesh16, traffic::TrafficSpec::uniform(), "path=node"}}) {
    ASSERT_GT(cell.topo->num_processors(),
              TrafficBuildOptions::kSerialCutoffProcs);
    std::vector<int> pins;
    ASSERT_TRUE(cell.spec.symmetric(pins));
    const std::string tag = cell.topo->name() + " " + cell.spec.name();
    std::vector<std::uint64_t> want_model;
    topo::SymmetryClasses want_sym;
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
      TrafficBuildOptions build;
      build.collapse = CollapseMode::Auto;
      build.threads = threads;
      const double before = obs::Registry::global().value(
          "wormnet_collapsed_builds_total", cell.path);
      const std::vector<std::uint64_t> model =
          model_bits(build_traffic_model(*cell.topo, cell.spec, {}, build));
      EXPECT_EQ(obs::Registry::global().value("wormnet_collapsed_builds_total",
                                              cell.path),
                before + 1.0)
          << tag << " threads=" << threads;
      topo::SymmetryClasses sym;
      ASSERT_TRUE(topo::topology_symmetry(*cell.topo, pins, sym, threads))
          << tag;
      if (threads == 1) {
        want_model = model;
        want_sym = std::move(sym);
        continue;
      }
      EXPECT_EQ(model, want_model) << tag << " threads=" << threads;
      EXPECT_TRUE(same_classes(sym, want_sym)) << tag << " threads=" << threads;
    }
  }
}

TEST(TrafficModel, SerialCutoffBoundaryIsBitwiseInvisible) {
  // threads = 0 runs serially at or below kSerialCutoffProcs and on the
  // shared pool above it.  The 7-cube (128 PEs) sits exactly ON the cutoff
  // and the 8-cube (256 PEs) just past it; both sides must be bitwise the
  // threads = 1 build, so the fast-path switch can never move a result.
  ASSERT_EQ(TrafficBuildOptions::kSerialCutoffProcs, 128);
  TrafficBuildOptions serial;
  serial.threads = 1;
  TrafficBuildOptions fallback;  // threads = 0: auto, cutoff applies
  fallback.threads = 0;
  for (int dims : {7, 8}) {
    const topo::Hypercube hc(dims);
    const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
    const GeneralModel a = build_traffic_model(hc, spec, {}, serial);
    const GeneralModel b = build_traffic_model(hc, spec, {}, fallback);
    const std::string tag = a.model_name + " dims=" + std::to_string(dims);
    ASSERT_EQ(a.graph.size(), b.graph.size()) << tag;
    EXPECT_EQ(a.mean_distance, b.mean_distance) << tag;
    for (int ch = 0; ch < a.graph.size(); ++ch) {
      EXPECT_EQ(a.graph.at(ch).rate_per_link, b.graph.at(ch).rate_per_link)
          << tag << " ch " << ch;
      EXPECT_EQ(a.graph.at(ch).self_frac, b.graph.at(ch).self_frac)
          << tag << " ch " << ch;
    }
  }
}

TEST(TrafficModel, MeshKirchhoffUnderNonUniformPatterns) {
  // The generic sweep above relies on spec.check() filtering, which silently
  // drops transpose whenever the mesh's processor count isn't square — a
  // skipped cell nobody notices.  Pin the mesh's genuinely heterogeneous DOR
  // channel rates under the skewed patterns explicitly, on the 3x3 grid
  // (radix 3, 2 dimensions) where transpose is defined.
  const topo::Mesh mesh(3, 2);
  const std::vector<traffic::TrafficSpec> specs{
      traffic::TrafficSpec::transpose(),
      traffic::TrafficSpec::nearest_neighbor(0.7),
  };
  for (const traffic::TrafficSpec& spec : specs) {
    ASSERT_TRUE(spec.check(mesh.num_processors()).empty()) << spec.name();
    expect_flow_conservation(mesh, spec);
    // The enumerated graph must also validate and solve at a light load.
    const GeneralModel net = build_traffic_model(mesh, spec);
    EXPECT_TRUE(net.graph.validate().empty()) << spec.name();
    SolveOptions opts;
    opts.worm_flits = 16.0;
    const LatencyEstimate est = model_latency(net, 0.002, opts);
    EXPECT_TRUE(est.stable) << spec.name();
    EXPECT_GT(est.latency, 0.0) << spec.name();
  }
}

TEST(TrafficModel, MeshTransposeUnloadsTheDiagonal) {
  // Physics of the covered pattern, not just conservation: under transpose
  // on a square mesh every diagonal PE falls back to d = s+1 (spec rule), so
  // off-diagonal PEs exchange with their mirror and the row/column channel
  // rates stay symmetric under the transpose map.
  const topo::Mesh mesh(3, 2);
  const GeneralModel net =
      build_traffic_model(mesh, traffic::TrafficSpec::transpose());
  const topo::ChannelTable ct(mesh);
  const int procs = mesh.num_processors();
  const traffic::TrafficMatrix m =
      traffic::TrafficSpec::transpose().materialize(procs);
  // Each PE sends exactly one message stream and receives exactly one.
  for (int p = 0; p < procs; ++p) {
    EXPECT_NEAR(m.row_sum(p), 1.0, 1e-12);
    EXPECT_NEAR(net.graph.at(ct.from(p, 0)).rate_per_link, 1.0, 1e-9);
    EXPECT_NEAR(net.graph.at(ct.into(p, 0)).rate_per_link, m.col_sum(p), 1e-9);
  }
}

TEST(TrafficModel, UniformReproducesHandDerivedFatTreeRates) {
  topo::ButterflyFatTree ft(3);
  const GeneralModel net =
      build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const topo::ChannelTable ct(ft);
  FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  for (int ch = 0; ch < ct.size(); ++ch) {
    const topo::DirectedChannel& dc = ct.at(ch);
    const int from_level = ft.node_level(dc.src_node);
    const int to_level = ft.node_level(dc.dst_node);
    const double rate = net.graph.at(ch).rate_per_link;
    const int level = to_level > from_level ? from_level : to_level;
    EXPECT_NEAR(rate, model.rate_up(level, 1.0), 1e-12)
        << "channel at level " << level;
  }
}

TEST(TrafficModel, UniformMatchesCollapsedBuildersToMachinePrecision) {
  // Exact-conditional collapsed fat-tree and the route-enumerated uniform
  // model are two encodings of the same flows; latencies must agree to
  // near machine precision.
  topo::ButterflyFatTree ft(3);
  const GeneralModel enumerated =
      build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const GeneralModel collapsed =
      build_fattree_collapsed(3, 2, /*exact_conditionals=*/true);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  for (double lambda0 : {0.0005, 0.002}) {
    const LatencyEstimate a = model_latency(enumerated, lambda0, opts);
    const LatencyEstimate b = model_latency(collapsed, lambda0, opts);
    ASSERT_TRUE(a.stable && b.stable);
    EXPECT_NEAR(a.latency, b.latency, 1e-9 * b.latency) << "lambda0=" << lambda0;
  }
  topo::Hypercube hc(4);
  const GeneralModel cube =
      build_traffic_model(hc, traffic::TrafficSpec::uniform());
  const GeneralModel cube_collapsed =
      build_traffic_model_collapsed(hc, traffic::TrafficSpec::uniform());
  for (double lambda0 : {0.001, 0.004}) {
    const LatencyEstimate a = model_latency(cube, lambda0, opts);
    const LatencyEstimate b = model_latency(cube_collapsed, lambda0, opts);
    ASSERT_TRUE(a.stable && b.stable);
    EXPECT_NEAR(a.latency, b.latency, 1e-9 * b.latency) << "lambda0=" << lambda0;
  }
}

TEST(TrafficModel, HotspotEjectionRateMatchesClosedForm) {
  // Column sum at the hotspot: (P-1)·f + (1-f) at unit injection rate.
  topo::ButterflyFatTree ft(2);
  const topo::ChannelTable ct(ft);
  const int procs = ft.num_processors();
  for (double f : {0.1, 0.3}) {
    const GeneralModel net =
        build_traffic_model(ft, traffic::TrafficSpec::hotspot(f));
    const int ej = ct.into(0, 0);
    EXPECT_NEAR(net.graph.at(ej).rate_per_link, (procs - 1) * f + (1.0 - f), 1e-9)
        << "f=" << f;
    EXPECT_TRUE(net.graph.at(ej).terminal);
  }
}

TEST(TrafficModel, HotspotSaturatesBelowUniform) {
  topo::ButterflyFatTree ft(2);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const GeneralModel uniform =
      build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);
  const GeneralModel hotspot =
      build_traffic_model(ft, traffic::TrafficSpec::hotspot(0.1), opts);
  const double sat_u = model_saturation_rate(uniform, opts);
  const double sat_h = model_saturation_rate(hotspot, opts);
  EXPECT_GT(sat_h, 0.0);
  EXPECT_LT(sat_h, sat_u);
  // The skewed ejection channel is the binding constraint: at unit λ₀ it
  // carries (P-1)f + (1-f), so it saturates near 1/(rate·s_f) — far below
  // the uniform saturation.  Check the order of magnitude.
  const int procs = ft.num_processors();
  const double ej_rate = (procs - 1) * 0.1 + 0.9;
  EXPECT_LT(sat_h, 1.05 / (ej_rate * opts.worm_flits));
}

TEST(TrafficModel, BitComplementCrossesTheRoot) {
  // Every bit-complement pair straddles the root: the traffic-weighted mean
  // distance is exactly the diameter, and level-1 sibling turns never occur.
  for (int levels : {2, 3}) {
    topo::ButterflyFatTree ft(levels);
    const GeneralModel net =
        build_traffic_model(ft, traffic::TrafficSpec::bit_complement());
    EXPECT_NEAR(net.mean_distance, 2.0 * levels, 1e-12);
  }
}

TEST(TrafficModel, PermutationLeavesChannelsUnusedButValid) {
  // The shift permutation loads only a sliver of the hypercube; unused
  // channels carry zero rate and the graph still validates/solves.
  topo::Hypercube hc(3);
  const int procs = hc.num_processors();
  std::vector<int> shift(static_cast<std::size_t>(procs));
  for (int s = 0; s < procs; ++s) shift[static_cast<std::size_t>(s)] = (s + 1) % procs;
  const GeneralModel net =
      build_traffic_model(hc, traffic::TrafficSpec::permutation(shift));
  EXPECT_TRUE(net.graph.validate().empty());
  int unused = 0;
  for (int ch = 0; ch < net.graph.size(); ++ch) {
    if (net.graph.at(ch).rate_per_link == 0.0) ++unused;
  }
  EXPECT_GT(unused, 0);
  SolveOptions opts;
  opts.worm_flits = 16.0;
  const LatencyEstimate est = model_latency(net, 0.001, opts);
  EXPECT_TRUE(est.stable);
  EXPECT_GT(est.latency, 0.0);
}

TEST(TrafficModel, SilentMatrixRowsAreExcludedFromInjection) {
  topo::Hypercube hc(2);
  const int procs = hc.num_processors();
  traffic::TrafficMatrix m(procs);
  // PE 0 is a pure sink: every other PE sends to it only.
  for (int s = 1; s < procs; ++s) m.set(s, 0, 1.0);
  const GeneralModel net = build_traffic_model(hc, traffic::TrafficSpec::matrix(m));
  EXPECT_EQ(static_cast<int>(net.injection_classes.size()), procs - 1);
  const topo::ChannelTable ct(hc);
  EXPECT_NEAR(net.graph.at(ct.into(0, 0)).rate_per_link,
              static_cast<double>(procs - 1), 1e-12);
  EXPECT_DOUBLE_EQ(net.graph.at(ct.from(0, 0)).rate_per_link, 0.0);
  SolveOptions opts;
  opts.worm_flits = 8.0;
  EXPECT_TRUE(model_latency(net, 0.002, opts).stable);
}

TEST(TrafficModel, LocalityShortensTheWeightedMeanDistance) {
  topo::ButterflyFatTree ft(3);
  const GeneralModel uniform =
      build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const GeneralModel local =
      build_traffic_model(ft, traffic::TrafficSpec::nearest_neighbor(0.8));
  EXPECT_LT(local.mean_distance, uniform.mean_distance);
  EXPECT_NEAR(uniform.mean_distance, ft.mean_distance(), 1e-12);
}

TEST(TrafficModel, OptionsAndNamingPropagate) {
  topo::Hypercube hc(2);
  SolveOptions opts;
  opts.worm_flits = 32.0;
  opts.ablation.multi_server = false;
  const GeneralModel net =
      build_traffic_model(hc, traffic::TrafficSpec::hotspot(0.2), opts);
  EXPECT_DOUBLE_EQ(net.opts.worm_flits, 32.0);
  EXPECT_FALSE(net.opts.ablation.multi_server);
  EXPECT_NE(net.model_name.find("hotspot"), std::string::npos);
  EXPECT_NE(net.model_name.find(hc.name()), std::string::npos);
}

// Regression: snap_residues once snapped delta-retune residues against ONE
// global epsilon scaled by the hottest channel's rate, so a legitimate tiny
// flow riding next to a hot flow (rates spanning orders of magnitude) was
// silently zeroed — dropping Kirchhoff mass.  The epsilon is channel-local
// now; this matrix reproduces the old failure: a 15-messages/cycle hotspot
// ejection (old global eps 1.6e-8) next to an 8e-9 flow on its own link.
TEST(TrafficModel, DeltaRetuneKeepsTinyFlowsNextToHotOnes) {
  topo::Hypercube hc(4);
  const int procs = hc.num_processors();
  traffic::TrafficMatrix m1(procs);
  for (int s = 1; s < procs; ++s) m1.set(s, 0, 1.0);  // hotspot into PE 0
  const double tiny = 8e-9;
  m1.set(1, 3, tiny);  // rides the otherwise idle 1->3 dimension-1 link
  m1.normalize_rows();

  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::matrix(m1));

  // Locate the router-to-router channel 1 -> 3 (carries only the tiny flow:
  // every other pair routes toward PE 0, which never sets a bit).
  const topo::ChannelTable ct(hc);
  const int r1 = hc.neighbor(1, 0);
  const int r3 = hc.neighbor(3, 0);
  int tiny_ch = topo::kNoChannel;
  for (int p = 0; p < hc.num_ports(r1); ++p) {
    if (hc.neighbor(r1, p) == r3) tiny_ch = ct.from(r1, p);
  }
  ASSERT_NE(tiny_ch, topo::kNoChannel);
  const double tiny_rate = tiny / (1.0 + tiny);  // row-normalized weight
  ASSERT_NEAR(rm.model().graph.at(tiny_ch).rate_per_link, tiny_rate,
              tiny_rate * 1e-9);

  // Retune an unrelated pair: redirect sender 5 from the hotspot to PE 2 —
  // a two-changed-pair delta whose residue snapping must not collapse the
  // tiny channel's rate.
  traffic::TrafficMatrix m2 = m1;
  m2.set(5, 0, 0.0);
  m2.set(5, 2, 1.0);
  const auto report = rm.retune_traffic(traffic::TrafficSpec::matrix(m2));
  EXPECT_FALSE(report.rebuilt);
  EXPECT_GT(rm.model().graph.at(tiny_ch).rate_per_link, 0.0);
  EXPECT_NEAR(rm.model().graph.at(tiny_ch).rate_per_link, tiny_rate,
              tiny_rate * 1e-9);

  // And the whole retuned model lands on the cold rebuild, channel by
  // channel — the Kirchhoff-mass contract the global epsilon broke.
  const GeneralModel cold =
      build_traffic_model(hc, traffic::TrafficSpec::matrix(m2));
  ASSERT_EQ(rm.model().graph.size(), cold.graph.size());
  for (int id = 0; id < cold.graph.size(); ++id) {
    EXPECT_NEAR(rm.model().graph.at(id).rate_per_link,
                cold.graph.at(id).rate_per_link,
                1e-12 * (1.0 + cold.graph.at(id).rate_per_link))
        << "channel " << id;
  }
}

// Regression: util::double_bits once digested -0.0 and +0.0 as distinct
// words, so a model whose signed delta arithmetic left a negative zero on
// an idle channel produced a different content digest than the
// value-identical rebuilt model — splitting memo/cache entries that must
// collide (SweepEngine keys, QueryEngine variants).
TEST(TrafficModel, ContentDigestIgnoresSignedZeroRates) {
  topo::Hypercube hc(2);
  GeneralModel a = build_traffic_model(hc, traffic::TrafficSpec::uniform());
  GeneralModel b = build_traffic_model(hc, traffic::TrafficSpec::uniform());
  // An injection channel never routes through itself: its self-flow is an
  // exact zero on both sides.  Force the negative-zero representation.
  ASSERT_FALSE(a.injection_classes.empty());
  const int ch = a.injection_classes.front();
  ASSERT_EQ(b.graph.at(ch).rate_per_link, a.graph.at(ch).rate_per_link);
  a.graph.mutable_at(ch).rate_per_link = -0.0;
  b.graph.mutable_at(ch).rate_per_link = 0.0;
  EXPECT_EQ(a.content_digest(), b.content_digest());
}

}  // namespace
}  // namespace wormnet::core
