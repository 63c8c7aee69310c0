// Tests for the experiment harness.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/fattree_model.hpp"
#include "harness/accuracy_map.hpp"
#include "topo/butterfly_fattree.hpp"

namespace wormnet::harness {
namespace {

core::FatTreeModel fattree_model(int levels, double worm_flits) {
  return core::FatTreeModel({.levels = levels, .worm_flits = worm_flits});
}

SweepConfig small_sweep() {
  SweepConfig cfg;
  cfg.loads = {0.01, 0.03, 0.05};
  cfg.worm_flits = 16;
  cfg.seed = 42;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 15'000;
  cfg.max_cycles = 200'000;
  return cfg;
}

TEST(Harness, CompareLatencyProducesOneRowPerLoad) {
  topo::ButterflyFatTree ft(2);
  const core::FatTreeModel model = fattree_model(2, 16.0);
  const auto rows = compare_latency(ft, model, small_sweep());
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].load, small_sweep().loads[i]);
    EXPECT_TRUE(rows[i].model_stable);
    EXPECT_GT(rows[i].sim_messages, 0);
    EXPECT_GT(rows[i].sim_latency, 16.0);
    EXPECT_GT(rows[i].model_latency, 16.0);
  }
}

TEST(Harness, ModelAndSimAgreeInHarnessRun) {
  topo::ButterflyFatTree ft(2);
  const core::FatTreeModel model = fattree_model(2, 16.0);
  const auto rows = compare_latency(ft, model, small_sweep());
  const double mape = mean_abs_pct_error(rows);
  EXPECT_TRUE(std::isfinite(mape));
  EXPECT_LT(mape, 10.0);  // percent
}

TEST(Harness, CompareLatencyAcceptsSharedEngine) {
  // Re-running the same sweep through one engine must reuse every model
  // point (cache hits) and reproduce the rows exactly.
  topo::ButterflyFatTree ft(2);
  const core::FatTreeModel model = fattree_model(2, 16.0);
  SweepEngine engine;
  const auto a = compare_latency(ft, model, small_sweep(), &engine);
  const std::uint64_t misses_after_first = engine.cache_misses();
  const auto b = compare_latency(ft, model, small_sweep(), &engine);
  EXPECT_EQ(engine.cache_misses(), misses_after_first);
  EXPECT_GE(engine.cache_hits(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model_latency, b[i].model_latency);
    EXPECT_EQ(a[i].sim_latency, b[i].sim_latency);
  }
}

TEST(Harness, ComparisonTableShape) {
  topo::ButterflyFatTree ft(2);
  const core::FatTreeModel model = fattree_model(2, 16.0);
  const auto rows = compare_latency(ft, model, small_sweep());
  const util::Table t = comparison_table(rows);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.col_index("load(flits/cyc)"), 0);
  EXPECT_GE(t.col_index("sim_latency"), 0);
  // Numeric round-trip.
  EXPECT_NEAR(t.num(0, 0), 0.01, 1e-12);
  EXPECT_NEAR(t.num(1, t.col_index("model_latency")), rows[1].model_latency, 1e-9);
}

TEST(Harness, ModelOnlySweepHasNoSimData) {
  const core::FatTreeModel model = fattree_model(3, 16.0);
  const auto rows = model_only_sweep(model, small_sweep());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_TRUE(std::isnan(r.sim_latency));
    EXPECT_EQ(r.sim_messages, 0);
    EXPECT_TRUE(std::isfinite(r.model_latency));
  }
}

TEST(Harness, MapeIgnoresSaturatedPoints) {
  std::vector<ComparisonRow> rows(2);
  rows[0].model_latency = 100.0;
  rows[0].sim_latency = 110.0;
  rows[0].model_stable = true;
  rows[0].sim_messages = 10;
  rows[1].model_latency = std::numeric_limits<double>::infinity();
  rows[1].model_stable = false;
  rows[1].sim_messages = 10;
  rows[1].sim_latency = 500.0;
  EXPECT_NEAR(mean_abs_pct_error(rows), 10.0 / 110.0 * 100.0, 1e-9);
}

TEST(Harness, ThroughputComparisonRatioNearOne) {
  topo::ButterflyFatTree ft(2);
  core::FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  const ThroughputRow row =
      compare_throughput(ft, model.saturation_load(), 16, 7, 5'000, 15'000);
  EXPECT_GT(row.sim_overload_throughput, 0.0);
  EXPECT_GT(row.ratio, 0.7);
  EXPECT_LT(row.ratio, 1.3);
}

TEST(Harness, SeedVariationPropagatesToPoints) {
  // Different base seeds must give different simulated latencies.
  topo::ButterflyFatTree ft(2);
  const core::FatTreeModel model = fattree_model(2, 16.0);
  SweepConfig a = small_sweep();
  SweepConfig b = small_sweep();
  b.seed = 4242;
  const auto ra = compare_latency(ft, model, a);
  const auto rb = compare_latency(ft, model, b);
  EXPECT_NE(ra[0].sim_latency, rb[0].sim_latency);
  // Model side is deterministic and identical.
  EXPECT_DOUBLE_EQ(ra[0].model_latency, rb[0].model_latency);
}

TEST(Harness, FractionLoadsCoverKneeAndPastSaturation) {
  const auto loads = fraction_loads(1.0);
  ASSERT_EQ(loads.size(), 12u);
  EXPECT_DOUBLE_EQ(loads.front(), 0.1);
  EXPECT_GT(loads.back(), 1.0);
  const auto stable_only = fraction_loads(1.0, /*include_past_saturation=*/false);
  ASSERT_EQ(stable_only.size(), 10u);
  EXPECT_LT(stable_only.back(), 1.0);
}

// The accuracy map's table: the latency points and overload probes of each
// conformance suite are pinned, so a cell cannot drop out of (or slip into)
// a suite unnoticed, and every (suite, label, frac) names one point.
TEST(AccuracyMap, TableShapeIsPinned) {
  std::map<std::string, std::pair<int, int>> shape;  // suite → (points, probes)
  std::set<std::tuple<std::string, std::string, double>> keys;
  for (const AccuracyCell& c : accuracy_cells()) {
    shape[c.suite].first += static_cast<int>(c.points.size());
    shape[c.suite].second += c.has_probe() ? 1 : 0;
    for (const LoadPoint& p : c.points)
      EXPECT_TRUE(keys.emplace(c.suite, c.label, p.frac).second)
          << c.suite << " " << c.label << " frac=" << p.frac;
  }
  const std::map<std::string, std::pair<int, int>> want = {
      {"uniform", {54, 18}}, {"hetero", {36, 12}}, {"fault", {8, 0}},
      {"bursty", {8, 0}},    {"m_parent", {4, 0}}, {"paper", {17, 1}},
  };
  EXPECT_EQ(shape, want);
  EXPECT_EQ(keys.size(), 127u);
}

}  // namespace
}  // namespace wormnet::harness
