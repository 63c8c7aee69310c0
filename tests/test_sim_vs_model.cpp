// Integration tests: the analytical model must track the simulator across
// topologies and load levels — the paper's central claim ("experimental
// results agree very closely over a wide range of load rate").
//
// Tolerances: the model idealizes away the simulator's one-cycle channel
// hand-off, so agreement tightens at low load and loosens near saturation;
// we accept 5% in the linear region and 20% at 70% of saturation.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet {
namespace {

double run_sim(const topo::Topology& topo, double load_flits, int worm_flits,
               std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.load_flits = load_flits;
  cfg.worm_flits = worm_flits;
  cfg.seed = seed;
  cfg.warmup_cycles = 8'000;
  cfg.measure_cycles = 40'000;
  cfg.max_cycles = 600'000;
  cfg.channel_stats = false;
  const sim::SimResult r = sim::simulate(topo, cfg);
  EXPECT_TRUE(r.completed) << topo.name() << " load=" << load_flits;
  return r.latency.mean();
}

class FatTreeAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(FatTreeAgreement, LatencyWithinTolerance) {
  const auto [levels, worm, frac] = GetParam();
  topo::ButterflyFatTree ft(levels);
  core::FatTreeModel model(
      {.levels = levels, .worm_flits = static_cast<double>(worm)});
  const double load = model.saturation_load() * frac;
  const double model_latency = model.evaluate_load(load).latency;
  const double sim_latency = run_sim(ft, load, worm, 1234 + levels);
  const double tol = frac <= 0.5 ? 0.05 : 0.20;
  EXPECT_NEAR(sim_latency, model_latency, model_latency * tol)
      << "levels=" << levels << " worm=" << worm << " frac=" << frac;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FatTreeAgreement,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(16, 32),
                       ::testing::Values(0.25, 0.5, 0.7)));

TEST(HypercubeAgreement, ModelTracksSimulation) {
  topo::Hypercube hc(4);
  const core::GeneralModel net = core::build_traffic_model_collapsed(
      hc, traffic::TrafficSpec::uniform());
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const double sat = core::model_saturation_rate(net, opts) * 16.0;
  for (double frac : {0.3, 0.6}) {
    const double load = sat * frac;
    const double model_latency =
        core::model_latency(net, load / 16.0, opts).latency;
    const double sim_latency = run_sim(hc, load, 16, 77);
    EXPECT_NEAR(sim_latency, model_latency, model_latency * 0.15)
        << "frac=" << frac;
  }
}

TEST(MeshAgreement, ModelTracksSimulation) {
  topo::Mesh m(4, 2);
  const core::GeneralModel net =
      core::build_traffic_model(m, traffic::TrafficSpec::uniform());
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const double sat = core::model_saturation_rate(net, opts) * 16.0;
  for (double frac : {0.3, 0.6}) {
    const double load = sat * frac;
    const double model_latency =
        core::model_latency(net, load / 16.0, opts).latency;
    const double sim_latency = run_sim(m, load, 16, 99);
    EXPECT_NEAR(sim_latency, model_latency, model_latency * 0.15)
        << "frac=" << frac;
  }
}

TEST(ThroughputAgreement, OverloadThroughputNearModelSaturation) {
  topo::ButterflyFatTree ft(3);
  core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  sim::SimConfig cfg;
  cfg.arrivals = sim::ArrivalProcess::Overload;
  cfg.worm_flits = 16;
  cfg.seed = 5;
  cfg.warmup_cycles = 10'000;
  cfg.measure_cycles = 30'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  const double model_sat = model.saturation_load();
  // Same capacity within 15% (the model's Eq. 26 point vs closed-loop max).
  EXPECT_NEAR(r.throughput_flits_per_pe, model_sat, model_sat * 0.15);
}

TEST(ComponentAgreement, InjectionWaitAndServiceTrackModel) {
  // Not just total latency: the per-component decomposition (W̄⟨0,1⟩ and
  // x̄⟨0,1⟩ of Eq. 25) must match the simulator's measured decomposition.
  topo::ButterflyFatTree ft(3);
  core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  const double load = model.saturation_load() * 0.5;
  sim::SimConfig cfg;
  cfg.load_flits = load;
  cfg.worm_flits = 16;
  cfg.seed = 6;
  cfg.warmup_cycles = 8'000;
  cfg.measure_cycles = 40'000;
  cfg.max_cycles = 600'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  ASSERT_TRUE(r.completed);
  const core::LatencyEstimate ev = model.evaluate_load(load);
  EXPECT_NEAR(r.inj_service.mean(), ev.inj_service, ev.inj_service * 0.08);
  // Queue waits are small absolute numbers at half load; compare loosely.
  EXPECT_NEAR(r.queue_wait.mean(), ev.inj_wait, std::max(0.5, ev.inj_wait * 0.6));
}

}  // namespace
}  // namespace wormnet
