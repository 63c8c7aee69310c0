// Model-vs-simulator conformance harness.
//
// The paper's central claim is that the analytical model tracks the
// flit-level simulation "very closely over a wide range of load rate".
// Before this suite, that claim was enforced only by ad-hoc checks for the
// fat-tree under uniform traffic (test_sim_vs_model.cpp); here it becomes a
// TABLE: every covered topology x pattern x lane-count cell is evaluated at
// 20% / 50% / 80% of the cell's own model saturation and the relative
// latency error |model - sim| / sim must stay inside the row's bound.
//
// Bound structure (the acceptance contract of the virtual-channel PR):
//  * below 80% load (the 20% and 50% points) every covered cell holds
//    within 15% — most hold far tighter, and the tier bounds encode that
//    (10% at 20% load, 15% at 50%);
//  * at 80% load the model's idealizations (no per-hop arbitration cycle,
//    additive multiplexing stretch) compound near the knee, so each row
//    carries its own measured-and-margined bound; the raw errors are
//    recorded in EXPERIMENTS.md.
//
// Every cell uses a fixed seed, so the suite is deterministic: a bound
// violation is a code regression, not noise.
//
// Execution: the table is the "uniform" slice of the accuracy map
// (harness/accuracy_map.hpp) — 54 latency runs and 18 overload runs as ONE
// harness::SimEngine campaign, computed lazily on first use and shared by
// every test.  The map builds one live topology per (topology, lanes)
// configuration (9, not 72) and fans the runs across the thread pool; each
// run keeps its cell's own seed and config, so the measured numbers are
// bit-identical to running each cell by hand.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "accuracy_slice.hpp"

namespace wormnet {
namespace {

const AccuracySlice& slice() {
  static const AccuracySlice s("uniform");
  return s;
}

class Conformance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Conformance, LatencyWithinCellBounds) {
  const harness::AccuracyRow& row = slice().rows()[GetParam()];
  ASSERT_GT(row.saturation_rate, 0.0);
  check_points(row, row.model_name + " lanes=" + std::to_string(row.cell.lanes));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, Conformance, ::testing::Range<std::size_t>(0, slice().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return slice().label(info.param);
    });

// The saturation points themselves must agree: the model's Eq. 26 rate vs
// the simulator's overload throughput, per lane count.  Looser than the
// latency bounds (one is an asymptote, the other a closed-loop measurement)
// but tight enough to catch a broken lane model.
TEST(ConformanceSaturation, ModelSaturationTracksOverloadThroughputPerLane) {
  for (const harness::AccuracyRow& row : slice().rows()) {
    const double model_sat = row.saturation_rate * 16.0;
    const double sim_sat = row.overload.throughput_flits_per_pe;
    EXPECT_NEAR(model_sat, sim_sat, 0.30 * sim_sat)
        << row.model_name << " lanes=" << row.cell.lanes;
  }
}

}  // namespace
}  // namespace wormnet
