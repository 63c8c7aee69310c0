// Bursty-arrivals model-vs-simulator conformance (the arrivals subsystem's
// acceptance contract): for Batch and MMPP-2 injection on the level-3
// butterfly fat-tree (N = 64) and the 4-cube (N = 16), the bursty-aware
// model — QNA C_a² propagation + Allen–Cunneen G/G/m waits + the intra-batch
// residual — must track the simulator driven by the SAME ArrivalSpec within
// 20% relative latency error at 20% and 50% of the model's own saturation.
//
// The companion table (bench/ext_bursty_arrivals.cpp, recorded in
// EXPERIMENTS.md) shows the measured errors are far tighter (≤ ~10%), and —
// the point of the subsystem — that the Poisson-assumption model is ~70%
// optimistic under batch traffic at the same loads, which this suite pins
// with a lower bound on the Poisson model's undershoot.
//
// Every cell uses a fixed seed; the table is the "bursty" slice of the
// accuracy map (harness/accuracy_map.hpp), run like the main conformance
// table as one shared SimEngine campaign computed lazily on first use.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "accuracy_slice.hpp"
#include "core/general_model.hpp"
#include "core/traffic_model.hpp"

namespace wormnet {
namespace {

const AccuracySlice& slice() {
  static const AccuracySlice s("bursty");
  return s;
}

class BurstyConformance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BurstyConformance, LatencyWithin20PercentAt20And50OfSaturation) {
  const harness::AccuracyRow& row = slice().rows()[GetParam()];
  ASSERT_GT(row.saturation_rate, 0.0);
  check_points(row, row.model_name + "/" + row.cell.arrivals.name());
}

TEST_P(BurstyConformance, PoissonModelIsOptimisticUnderBatchTraffic) {
  // The motivating claim: assuming Poisson under batch injection undershoots
  // the simulated latency by far more than the bursty model's error band.
  const harness::AccuracyRow& row = slice().rows()[GetParam()];
  if (row.cell.arrivals.batch_residual() == 0.0) return;  // batch cells only
  // The same model left untuned (C_a² = 1), at the bursty model's loads.
  harness::AccuracyFabrics fabrics;
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel poisson =
      core::build_traffic_model(fabrics.of(row.cell), row.cell.traffic, opts);
  for (const harness::AccuracyPoint& p : row.points) {
    const double sim_latency = p.sim.latency.mean();
    EXPECT_LT(poisson.evaluate(p.lambda0).latency, 0.6 * sim_latency)
        << row.cell.label << " frac=" << p.load.frac;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, BurstyConformance, ::testing::Range<std::size_t>(0, slice().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return slice().label(info.param);
    });

}  // namespace
}  // namespace wormnet
