// One suite's slice of the accuracy map (harness/accuracy_map.hpp), shared
// by the model-vs-simulation conformance tests.  The cells are read when
// the parameterized cases are registered (their labels name the cases); the
// rows run the slice as one SimEngine campaign on first use and serve every
// test of the binary.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/accuracy_map.hpp"

namespace wormnet {

class AccuracySlice {
 public:
  /// Aborts on a suite tag that names no cell (accuracy_suite's
  /// precondition), so a mistyped tag cannot instantiate zero cases.
  explicit AccuracySlice(std::string_view suite)
      : cells_(harness::accuracy_suite(suite)) {}

  std::size_t size() const { return cells_.size(); }
  const std::string& label(std::size_t i) const { return cells_[i].label; }

  const std::vector<harness::AccuracyRow>& rows() const {
    if (!rows_) {
      harness::SimEngine engine;
      rows_ = harness::run_accuracy_map(cells_, engine);
    }
    return *rows_;
  }

  const harness::AccuracyRow& row(std::string_view label) const {
    for (const harness::AccuracyRow& r : rows())
      if (r.cell.label == label) return r;
    throw std::out_of_range("no accuracy cell " + std::string(label));
  }

  const harness::AccuracyPoint& point(std::string_view label, double frac) const {
    for (const harness::AccuracyPoint& p : row(label).points)
      if (p.load.frac == frac) return p;
    throw std::out_of_range("no load point " + std::to_string(frac) + " in " +
                            std::string(label));
  }

 private:
  std::vector<harness::AccuracyCell> cells_;
  mutable std::optional<std::vector<harness::AccuracyRow>> rows_;
};

/// The latency contract of a conformance cell: at every load point the model
/// is stable, the simulator completes unsaturated with tagged messages, and
/// |model − sim| / sim is within the point's bound.
inline void check_points(const harness::AccuracyRow& row, const std::string& tag) {
  for (const harness::AccuracyPoint& p : row.points) {
    ASSERT_TRUE(p.model.stable) << tag << " frac=" << p.load.frac;
    ASSERT_TRUE(p.sim.completed) << tag << " frac=" << p.load.frac;
    ASSERT_FALSE(p.sim.saturated) << tag << " frac=" << p.load.frac;
    ASSERT_GT(p.sim.latency.count(), 0);

    const double sim_latency = p.sim.latency.mean();
    const double rel_err = std::abs(p.model.latency - sim_latency) / sim_latency;
    EXPECT_LE(rel_err, p.load.bound)
        << tag << " frac=" << p.load.frac << ": model=" << p.model.latency
        << " sim=" << sim_latency;
  }
}

}  // namespace wormnet
