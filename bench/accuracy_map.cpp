// ACCURACY MAP — every model-vs-simulation cell the conformance suites
// check, run as one campaign and printed as one table.
//
// One row per load point: the cell's suite and label, the point's fraction
// of the model's saturation rate λ₀*, the model's λ₀* and latency, the
// simulator's mean latency and its standard error, the relative error
// (model − sim) / sim and the bound the cell's suite asserts.  Cells with a
// closed-loop overload probe add one row with the simulator's saturation
// throughput (flits/cycle/PE).  Doubles print as the shortest string that
// reads back to the same bits, so two runs diff exactly.  The cells, seeds
// and bounds are harness::accuracy_cells() (src/harness/accuracy_map.cpp).
//
//   ./accuracy_map
#include <charconv>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

std::string exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  bench::reject_unknown_flags(args);

  harness::SimEngine engine;
  const std::vector<harness::AccuracyRow> rows =
      harness::run_accuracy_map(harness::accuracy_cells(), engine);

  util::Table t({"suite", "cell", "frac", "model sat", "model latency",
                 "sim mean", "sim sem", "error", "bound", "overload thr"});
  const std::string none = "-";
  for (const harness::AccuracyRow& row : rows) {
    for (const harness::AccuracyPoint& p : row.points) {
      const double sim = p.sim.latency.mean();
      t.add_row({row.cell.suite, row.cell.label, exact(p.load.frac),
                 exact(row.saturation_rate), exact(p.model.latency), exact(sim),
                 exact(p.sim.latency.sem()), exact((p.model.latency - sim) / sim),
                 exact(p.load.bound), none});
    }
    if (row.cell.has_probe()) {
      t.add_row({row.cell.suite, row.cell.label, std::string("overload"),
                 exact(row.saturation_rate), none, none, none, none, none,
                 exact(row.overload.throughput_flits_per_pe)});
    }
  }
  harness::print_experiment("ACCURACY MAP: model vs simulation, every conformance cell", t);
  return 0;
}
