// Integration tests: the analytical model must track the simulator across
// topologies and load levels — the paper's central claim ("experimental
// results agree very closely over a wide range of load rate").
//
// Tolerances: the model idealizes away the simulator's one-cycle channel
// hand-off, so agreement tightens at low load and loosens near saturation;
// we accept 5% in the linear region and 20% at 70% of saturation.
//
// The cells are the "paper" slice of the accuracy map
// (harness/accuracy_map.hpp): every simulation below runs in one SimEngine
// campaign on first use, each with its own fixed seed and windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "accuracy_slice.hpp"

namespace wormnet {
namespace {

const AccuracySlice& slice() {
  static const AccuracySlice s("paper");
  return s;
}

class FatTreeAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(FatTreeAgreement, LatencyWithinTolerance) {
  const auto [levels, worm, frac] = GetParam();
  std::string label = "FatTree" + std::to_string(levels);
  label += "Worm";
  label += std::to_string(worm);
  const harness::AccuracyPoint& p = slice().point(label, frac);
  EXPECT_TRUE(p.sim.completed) << label << " frac=" << frac;
  const double model_latency = p.model.latency;
  const double sim_latency = p.sim.latency.mean();
  const double tol = p.load.bound;  // 5% up to half load, 20% at 70%
  EXPECT_NEAR(sim_latency, model_latency, model_latency * tol)
      << "levels=" << levels << " worm=" << worm << " frac=" << frac;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FatTreeAgreement,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(16, 32),
                       ::testing::Values(0.25, 0.5, 0.7)));

// The general model on two non-tree topologies: the collapsed hypercube and
// the per-channel mesh, at 30% and 60% of saturation.
void expect_tracks_simulation(const char* label) {
  for (const harness::AccuracyPoint& p : slice().row(label).points) {
    EXPECT_TRUE(p.sim.completed) << label << " frac=" << p.load.frac;
    const double model_latency = p.model.latency;
    EXPECT_NEAR(p.sim.latency.mean(), model_latency, model_latency * p.load.bound)
        << "frac=" << p.load.frac;
  }
}

TEST(HypercubeAgreement, ModelTracksSimulation) {
  expect_tracks_simulation("Hypercube4");
}

TEST(MeshAgreement, ModelTracksSimulation) { expect_tracks_simulation("Mesh4x2"); }

TEST(ThroughputAgreement, OverloadThroughputNearModelSaturation) {
  const harness::AccuracyRow& row = slice().row("FatTree3Worm16");
  ASSERT_TRUE(row.cell.has_probe());
  const double model_sat = row.saturation_rate * 16.0;
  // Same capacity within 15% (the model's Eq. 26 point vs closed-loop max).
  EXPECT_NEAR(row.overload.throughput_flits_per_pe, model_sat, model_sat * 0.15);
}

TEST(ComponentAgreement, InjectionWaitAndServiceTrackModel) {
  // Not just total latency: the per-component decomposition (W̄⟨0,1⟩ and
  // x̄⟨0,1⟩ of Eq. 25) must match the simulator's measured decomposition.
  const harness::AccuracyPoint& p = slice().point("FatTree3Components", 0.5);
  const sim::SimResult& r = p.sim;
  ASSERT_TRUE(r.completed);
  const core::LatencyEstimate& ev = p.model;
  EXPECT_NEAR(r.inj_service.mean(), ev.inj_service, ev.inj_service * 0.08);
  // Queue waits are small absolute numbers at half load; compare loosely.
  EXPECT_NEAR(r.queue_wait.mean(), ev.inj_wait, std::max(0.5, ev.inj_wait * 0.6));
}

}  // namespace
}  // namespace wormnet
