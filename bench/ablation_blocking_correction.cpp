// ABL-BP — ablation of the paper's novelty (2): the wormhole blocking-
// probability correction P(i|j) of Eq. 9/10, which discounts the M/G/m
// wait by the probability that the worms in service came from OTHER input
// links (a link occupied by a worm cannot present another arrival).
//
// Success criteria:
//  * with the correction, the model tracks simulation;
//  * without it (P = 1, the plain store-and-forward reuse of queueing
//    results), the model over-predicts latency at every load and
//    under-predicts capacity.
//
//   ./ablation_blocking_correction [--levels=5] [--worm=16] [--quick]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 5));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  harness::SweepConfig sweep = bench::sweep_defaults(args, worm);
  bench::reject_unknown_flags(args);

  core::FatTreeModelOptions with{.levels = levels,
                                 .worm_flits = static_cast<double>(worm)};
  core::FatTreeModelOptions without = with;
  without.ablation.blocking_correction = false;

  core::FatTreeModel model_with(with), model_without(without);
  harness::SweepEngine engine;
  sweep.loads = bench::fraction_loads(engine.saturation_load(model_with),
                                      /*include_past_saturation=*/false);

  topo::ButterflyFatTree ft(levels);
  const auto rows_with = harness::compare_latency(ft, model_with, sweep, &engine);
  const auto rows_without =
      harness::model_only_sweep(model_without, sweep, &engine);

  util::Table t({"load(flits/cyc)", "sim L", "corrected model L",
                 "uncorrected model L", "corrected err %", "uncorrected err %"});
  t.set_precision(0, 4);
  for (std::size_t i = 0; i < rows_with.size(); ++i) {
    const auto& a = rows_with[i];
    const auto& b = rows_without[i];
    const double ea = 100.0 * (a.model_latency - a.sim_latency) / a.sim_latency;
    const double eb = 100.0 * (b.model_latency - a.sim_latency) / a.sim_latency;
    t.add_row({a.load, a.sim_latency, a.model_latency,
               b.model_stable ? util::Cell{b.model_latency}
                              : util::Cell{std::string("inf")},
               ea, b.model_stable ? util::Cell{eb} : util::Cell{}});
  }
  harness::print_experiment(
      "ABL-BP: wormhole blocking-probability correction (Eq. 9/10) on vs off", t);
  std::printf("model saturation: corrected %.5f vs uncorrected %.5f flits/cyc/PE\n",
              engine.saturation_load(model_with),
              engine.saturation_load(model_without));
  return 0;
}
