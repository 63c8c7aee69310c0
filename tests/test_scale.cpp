// Tests for the symmetry-collapsed traffic-model builder — the 100k–1M
// endpoint scaling path.  Four layers of checks:
//  * parity: across topology x pattern x lanes x arrival process, the
//    collapsed quotient reproduces the dense per-channel model to machine
//    precision (per-channel rate/self_frac/ca2 fold, latency, saturation);
//  * symmetry detection: orbit counts for the catalog topologies, including
//    the cases where pins or patterns must DISABLE the quotient;
//  * rejection: a user-declared partition that is no routing symmetry builds
//    (structure is consistent) but check_collapsed_parity names the first
//    class whose members disagree;
//  * scale smoke: a 262,144-processor fat-tree builds and solves through the
//    collapsed path in test time, agreeing with the §3 closed-form collapsed
//    builder.
#include "core/traffic_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/fattree_graph.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/symmetry.hpp"

namespace wormnet::core {
namespace {

void expect_rel(double actual, double expected, double rel,
                const std::string& tag) {
  EXPECT_NEAR(actual, expected,
              rel * std::max(std::abs(actual), std::abs(expected)) + 1e-15)
      << tag;
}

/// The full parity contract for one (topology, spec, lanes, process) cell:
/// the Auto path must actually take the quotient, every dense channel must
/// match its class to machine precision, and the solved observables must
/// agree with the dense model's.
void expect_collapsed_parity(topo::Topology& topo,
                             const traffic::TrafficSpec& spec, int lanes,
                             const arrivals::ArrivalSpec* process) {
  topo.set_uniform_lanes(lanes);
  GeneralModel collapsed = build_traffic_model_collapsed(topo, spec);
  GeneralModel dense = build_traffic_model(topo, spec);
  // Appends rather than an operator+ chain: GCC 12's -Wrestrict trips a
  // false positive on string temporaries concatenated in one expression.
  std::string tag = collapsed.model_name;
  tag += " lanes=";
  tag += std::to_string(lanes);
  if (process != nullptr) {
    tag += ' ';
    tag += process->name();
  }
  ASSERT_EQ(collapsed.model_name.rfind("traffic-sym(", 0), 0u)
      << tag << ": Auto did not take the symmetric quotient";
  ASSERT_LT(collapsed.graph.size(), dense.graph.size()) << tag;
  if (process != nullptr) {
    collapsed.set_injection_process(*process, 0.01);
    dense.set_injection_process(*process, 0.01);
  }

  // Quotient fold: every dense channel carries its class's values.
  ASSERT_EQ(static_cast<int>(collapsed.channel_class_of.size()),
            dense.graph.size())
      << tag;
  for (int ch = 0; ch < dense.graph.size(); ++ch) {
    const int c = collapsed.channel_class_of[static_cast<std::size_t>(ch)];
    ASSERT_GE(c, 0) << tag;
    ASSERT_LT(c, collapsed.graph.size()) << tag;
    const ChannelClass& q = collapsed.graph.at(c);
    const ChannelClass& d = dense.graph.at(ch);
    const std::string ctag = tag + " ch " + d.label;
    EXPECT_EQ(q.servers, d.servers) << ctag;
    EXPECT_EQ(q.lanes, d.lanes) << ctag;
    EXPECT_EQ(q.terminal, d.terminal) << ctag;
    expect_rel(q.rate_per_link, d.rate_per_link, 1e-12, ctag + " rate");
    expect_rel(q.self_frac, d.self_frac, 1e-12, ctag + " self_frac");
    expect_rel(q.ca2, d.ca2, 1e-12, ctag + " ca2");
  }
  expect_rel(collapsed.mean_distance, dense.mean_distance, 1e-12,
             tag + " mean_distance");

  // Solved observables: the quotient recurrence is the dense recurrence
  // folded, so latency and saturation agree far beyond the solver tolerance.
  const double sat_dense = model_saturation_rate(dense, dense.opts);
  const double sat_collapsed =
      model_saturation_rate(collapsed, collapsed.opts);
  expect_rel(sat_collapsed, sat_dense, 1e-9, tag + " saturation");
  for (double f : {0.2, 0.5, 0.8}) {
    const LatencyEstimate a = dense.evaluate(f * sat_dense);
    const LatencyEstimate b = collapsed.evaluate(f * sat_dense);
    ASSERT_TRUE(a.stable) << tag << " f=" << f;
    ASSERT_TRUE(b.stable) << tag << " f=" << f;
    expect_rel(b.latency, a.latency, 1e-9,
               tag + " latency at f=" + std::to_string(f));
    expect_rel(b.inj_wait, a.inj_wait, 1e-9,
               tag + " inj_wait at f=" + std::to_string(f));
  }

  // The built-in validator agrees too.
  EXPECT_EQ(check_collapsed_parity(topo, spec, collapsed), "") << tag;
  topo.set_uniform_lanes(1);
}

TEST(CollapsedParity, FatTreeUniformAndHotspot) {
  topo::ButterflyFatTree ft2(2);
  topo::ButterflyFatTree ft3(3);
  const arrivals::ArrivalSpec batch = arrivals::ArrivalSpec::batch(4.0);
  for (int lanes : {1, 2}) {
    expect_collapsed_parity(ft2, traffic::TrafficSpec::uniform(), lanes, nullptr);
    expect_collapsed_parity(ft2, traffic::TrafficSpec::uniform(), lanes, &batch);
    // A hotspot pins its target: the quotient refines by LCA distance to the
    // hotspot instead of collapsing away.
    expect_collapsed_parity(ft2, traffic::TrafficSpec::hotspot(0.2, 5), lanes,
                            nullptr);
    expect_collapsed_parity(ft2, traffic::TrafficSpec::hotspot(0.2, 5), lanes,
                            &batch);
  }
  expect_collapsed_parity(ft3, traffic::TrafficSpec::uniform(), 1, nullptr);
  expect_collapsed_parity(ft3, traffic::TrafficSpec::hotspot(0.3, 17), 1,
                          nullptr);
}

TEST(CollapsedParity, HypercubeUniform) {
  topo::Hypercube h3(3);
  topo::Hypercube h4(4);
  const arrivals::ArrivalSpec batch = arrivals::ArrivalSpec::batch(4.0);
  for (int lanes : {1, 2}) {
    expect_collapsed_parity(h3, traffic::TrafficSpec::uniform(), lanes, nullptr);
    expect_collapsed_parity(h4, traffic::TrafficSpec::uniform(), lanes, nullptr);
  }
  expect_collapsed_parity(h4, traffic::TrafficSpec::uniform(), 1, &batch);
}

TEST(CollapsedParity, MeshUniformAndCenterHotspot) {
  topo::Mesh mesh(3, 2);
  const arrivals::ArrivalSpec batch = arrivals::ArrivalSpec::batch(4.0);
  for (int lanes : {1, 2}) {
    expect_collapsed_parity(mesh, traffic::TrafficSpec::uniform(), lanes,
                            nullptr);
    // Node 4 is the 3x3 center, fixed by every axis reflection, so the
    // hotspot keeps the full reflection group.
    expect_collapsed_parity(mesh, traffic::TrafficSpec::hotspot(0.2, 4), lanes,
                            nullptr);
  }
  expect_collapsed_parity(mesh, traffic::TrafficSpec::uniform(), 1, &batch);
}

TEST(SymmetryDetection, FatTreeOrbitCounts) {
  const topo::ButterflyFatTree ft(3);  // 64 processors
  const topo::ChannelTable ct(ft);
  topo::SymmetryClasses sym;
  ASSERT_TRUE(topo::topology_symmetry(ft, {}, sym));
  // Uniform: every processor is equivalent and the channels fold to the
  // paper's 2n classes — injection/up per climb level plus down per level.
  EXPECT_EQ(sym.num_proc_orbits, 1);
  EXPECT_EQ(sym.num_channel_classes, 2 * 3);
  EXPECT_FALSE(sym.trivial(ft.num_processors()));

  // Pinning a hotspot refines processors by LCA level to the pin:
  // {the pin itself} + one orbit per climb level = levels + 1.
  topo::SymmetryClasses pinned;
  ASSERT_TRUE(topo::topology_symmetry(ft, {5}, pinned));
  EXPECT_EQ(pinned.num_proc_orbits, 3 + 1);
  EXPECT_GT(pinned.num_channel_classes, sym.num_channel_classes);
  EXPECT_FALSE(pinned.trivial(ft.num_processors()));
}

TEST(SymmetryDetection, HypercubeOrbitCounts) {
  const topo::Hypercube hc(4);
  const topo::ChannelTable ct(hc);
  topo::SymmetryClasses sym;
  ASSERT_TRUE(topo::topology_symmetry(hc, {}, sym));
  EXPECT_EQ(sym.num_proc_orbits, 1);
  // dims + 2 classes (injection, ejection, one per dimension) — NOT 2·dims:
  // e-cube routing is only equivariant under XOR translations, which fold
  // the two directions of a dimension together but can NOT split a
  // dimension's channels by source bit.  A finer-than-orbit partition would
  // break the representative-destination algorithm (the dest-0 pass puts all
  // of dimension d's flow on the src-bit-1 channels), so the detector must
  // return exactly the group orbits.
  EXPECT_EQ(sym.num_channel_classes, 4 + 2);

  // A pinned processor kills every XOR translation: no usable symmetry.
  topo::SymmetryClasses pinned;
  EXPECT_FALSE(topo::topology_symmetry(hc, {3}, pinned));
}

TEST(SymmetryDetection, MeshReflectionOrbits) {
  const topo::Mesh mesh(3, 2);
  const topo::ChannelTable ct(mesh);
  topo::SymmetryClasses sym;
  ASSERT_TRUE(topo::topology_symmetry(mesh, {}, sym));
  // The 3x3 grid under per-axis reflections: corners, x-edge midpoints,
  // y-edge midpoints, center.
  EXPECT_EQ(sym.num_proc_orbits, 4);
  EXPECT_LT(sym.num_channel_classes, ct.size());

  // The center is fixed by every reflection; a corner by none.
  topo::SymmetryClasses center;
  ASSERT_TRUE(topo::topology_symmetry(mesh, {4}, center));
  EXPECT_EQ(center.num_proc_orbits, 4);
  topo::SymmetryClasses corner;
  EXPECT_FALSE(topo::topology_symmetry(mesh, {0}, corner));
}

TEST(CollapsedRejection, MisassignedChannelFailsParity) {
  // The genuine reflection quotient of the 3x3 mesh under a center hotspot
  // passes the parity check.  Remap ONE channel into a class whose members
  // carry a different rate and the partition is no routing symmetry any
  // more: check_collapsed_parity must say so rather than let the quotient
  // silently average the channel into the wrong class.
  const topo::Mesh mesh(3, 2);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.3, 4);
  const GeneralModel genuine = build_traffic_model_collapsed(mesh, spec);
  ASSERT_FALSE(genuine.channel_class_of.empty());
  EXPECT_EQ(check_collapsed_parity(mesh, spec, genuine), "");

  GeneralModel broken = genuine;
  const int from = broken.channel_class_of.front();
  const double rate = broken.graph.at(from).rate_per_link;
  int to = -1;
  for (int c = 0; c < broken.graph.size() && to < 0; ++c)
    if (std::abs(broken.graph.at(c).rate_per_link - rate) > 1e-6 * rate) to = c;
  ASSERT_GE(to, 0);
  broken.channel_class_of.front() = to;

  const std::string verdict = check_collapsed_parity(mesh, spec, broken);
  ASSERT_FALSE(verdict.empty());
  EXPECT_NE(verdict.find("not a routing symmetry"), std::string::npos)
      << verdict;
}

TEST(CollapseStrategy, AutoPicksTheRightPath) {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(4);
  const topo::Mesh mesh(3, 2);

  // Symmetric spec + symmetric topology: quotient.
  EXPECT_EQ(build_traffic_model_collapsed(ft, traffic::TrafficSpec::uniform())
                .model_name.rfind("traffic-sym(", 0),
            0u);

  // Patterns tied to processor numbering never claim the symmetry.
  const GeneralModel nn = build_traffic_model_collapsed(
      ft, traffic::TrafficSpec::nearest_neighbor(0.5));
  EXPECT_EQ(nn.model_name.rfind("traffic(", 0), 0u);
  EXPECT_TRUE(nn.channel_class_of.empty());

  // A hotspot pin breaks the hypercube's translation group: dense fallback.
  EXPECT_EQ(build_traffic_model_collapsed(hc, traffic::TrafficSpec::hotspot(0.2))
                .model_name.rfind("traffic(", 0),
            0u);
  // ... and a corner hotspot breaks every mesh reflection.
  EXPECT_EQ(
      build_traffic_model_collapsed(mesh, traffic::TrafficSpec::hotspot(0.2, 0))
          .model_name.rfind("traffic(", 0),
      0u);
}

TEST(CollapseStrategy, SparseSeedingIsBitwiseDense) {
  // Fixed-destination patterns seed from per-destination source lists under
  // Dense and Auto alike (no symmetry claims them).  The result must be
  // BITWISE the full-scan model — seeding order is identical, only the O(N)
  // zero-weight source scan per destination is skipped.  The full-scan
  // reference is the same permutation written as a 0/1 matrix (not a
  // fixed-destination spec): its pair weights and row sums are exactly 1.
  const topo::ButterflyFatTree ft(2);
  const topo::Mesh mesh(3, 2);
  std::vector<int> shift(static_cast<std::size_t>(mesh.num_processors()));
  for (int s = 0; s < mesh.num_processors(); ++s)
    shift[static_cast<std::size_t>(s)] = (s + 1) % mesh.num_processors();

  struct Cell {
    const topo::Topology* topo;
    traffic::TrafficSpec spec;
    CollapseMode mode;
  };
  const std::vector<Cell> cells{
      {&ft, traffic::TrafficSpec::bit_complement(), CollapseMode::Auto},
      {&ft, traffic::TrafficSpec::transpose(), CollapseMode::Dense},
      {&mesh, traffic::TrafficSpec::permutation(shift), CollapseMode::Auto},
  };
  for (const Cell& cell : cells) {
    const int n = cell.topo->num_processors();
    ASSERT_GE(cell.spec.fixed_destination(0, n), 0);
    traffic::TrafficMatrix m(n);
    for (int s = 0; s < n; ++s) m.set(s, cell.spec.fixed_destination(s, n), 1.0);
    const traffic::TrafficSpec scan_spec = traffic::TrafficSpec::matrix(m);
    ASSERT_LT(scan_spec.fixed_destination(0, n), 0);

    TrafficBuildOptions build;
    build.collapse = cell.mode;
    const GeneralModel sparse =
        build_traffic_model(*cell.topo, cell.spec, {}, build);
    const GeneralModel dense = build_traffic_model(*cell.topo, scan_spec);
    const std::string tag = sparse.model_name;
    EXPECT_TRUE(sparse.channel_class_of.empty()) << tag;
    ASSERT_EQ(sparse.graph.size(), dense.graph.size()) << tag;
    EXPECT_EQ(sparse.mean_distance, dense.mean_distance) << tag;
    EXPECT_EQ(sparse.injection_classes, dense.injection_classes) << tag;
    for (int ch = 0; ch < dense.graph.size(); ++ch) {
      const ChannelClass& a = sparse.graph.at(ch);
      const ChannelClass& b = dense.graph.at(ch);
      EXPECT_EQ(a.rate_per_link, b.rate_per_link) << tag << " ch " << ch;
      EXPECT_EQ(a.self_frac, b.self_frac) << tag << " ch " << ch;
      ASSERT_EQ(a.next.size(), b.next.size()) << tag << " ch " << ch;
      for (std::size_t t = 0; t < a.next.size(); ++t) {
        EXPECT_EQ(a.next[t].target, b.next[t].target) << tag;
        EXPECT_EQ(a.next[t].weight, b.next[t].weight) << tag;
        EXPECT_EQ(a.next[t].route_prob, b.next[t].route_prob) << tag;
      }
    }
  }
}

TEST(ScaleSmoke, QuarterMillionProcessorFatTreeSolvesInTestTime) {
  // levels = 9 → 4^9 = 262,144 processors, ~3.7M directed channels.  The
  // dense builder would need 262k full route-DAG passes; the collapsed path
  // runs ONE (uniform has a single destination orbit) and folds everything
  // to 2·levels classes.  This is the scaling headline as a test: build,
  // solve, and cross-check against the §3 closed-form collapsed builder
  // (exact conditionals), all inside the scale label's time budget.
  const int levels = 9;
  const topo::ButterflyFatTree ft(levels);
  ASSERT_EQ(ft.num_processors(), 262144);

  const GeneralModel net =
      build_traffic_model_collapsed(ft, traffic::TrafficSpec::uniform());
  ASSERT_EQ(net.model_name.rfind("traffic-sym(", 0), 0u);
  EXPECT_EQ(net.graph.size(), 2 * levels);
  EXPECT_TRUE(net.graph.acyclic());

  const GeneralModel reference =
      build_fattree_collapsed(levels, 2, /*exact_conditionals=*/true);
  expect_rel(net.mean_distance, reference.mean_distance, 1e-9,
             "mean distance vs closed form");
  const double sat = model_saturation_rate(net, net.opts);
  const double sat_ref = model_saturation_rate(reference, reference.opts);
  expect_rel(sat, sat_ref, 1e-6, "saturation vs closed form");
  for (double f : {0.2, 0.5, 0.8}) {
    const LatencyEstimate a = net.evaluate(f * sat);
    const LatencyEstimate b = reference.evaluate(f * sat);
    ASSERT_TRUE(a.stable && b.stable) << "f=" << f;
    ASSERT_TRUE(std::isfinite(a.latency));
    expect_rel(a.latency, b.latency, 1e-9,
               "latency vs closed form at f=" + std::to_string(f));
  }
}

TEST(ScaleSmoke, LargeHotspotFatTreeBuildsCollapsed) {
  // Hotspot at scale: the pin refines the quotient (levels + 1 destination
  // orbits, one rep pass each) but the build stays O(orbits · channels).
  const topo::ButterflyFatTree ft(7);  // 16,384 processors
  const GeneralModel net =
      build_traffic_model_collapsed(ft, traffic::TrafficSpec::hotspot(0.1, 123));
  ASSERT_EQ(net.model_name.rfind("traffic-sym(", 0), 0u);
  ASSERT_LT(net.graph.size(), 256);
  // The hotspot ejection bundle concentrates ~f·N of the unit flow, so
  // saturation sits orders of magnitude below the uniform network's —
  // evaluate relative to the model's own λ₀*.
  const double sat = model_saturation_rate(net, net.opts);
  ASSERT_GT(sat, 0.0);
  const LatencyEstimate est = net.evaluate(0.5 * sat);
  ASSERT_TRUE(est.stable);
  EXPECT_TRUE(std::isfinite(est.latency));
  EXPECT_GT(est.latency, 0.0);
}

}  // namespace
}  // namespace wormnet::core
