// ABL-MS — ablation of the paper's novelty (1): modeling the redundant
// up-link pair as ONE two-server M/G/2 channel (Hokstad) instead of two
// independent single-server M/G/1 channels.
//
// Success criteria:
//  * the M/G/2 treatment tracks simulation;
//  * the M/G/1-split treatment over-predicts latency and under-predicts
//    saturation (it misses the pooling effect: a worm blocked on one link
//    can take the other).
//
//   ./ablation_queue_model [--levels=5] [--worm=16] [--quick]
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

  core::FatTreeModelOptions full{.levels = levels,
                                 .worm_flits = static_cast<double>(worm)};
  core::FatTreeModelOptions split = full;
  split.ablation.multi_server = false;

  core::FatTreeModel model_full(full), model_split(split);
  harness::SweepEngine engine;
  sweep.loads = bench::fraction_loads(engine.saturation_load(model_full),
                                      /*include_past_saturation=*/false);

  topo::ButterflyFatTree ft(levels);
  const auto rows_full = harness::compare_latency(ft, model_full, sweep, &engine);
  const auto rows_split = harness::model_only_sweep(model_split, sweep, &engine);

  util::Table t({"load(flits/cyc)", "sim L", "M/G/2 model L", "M/G/1-split L",
                 "M/G/2 err %", "M/G/1 err %"});
  t.set_precision(0, 4);
  for (std::size_t i = 0; i < rows_full.size(); ++i) {
    const auto& f = rows_full[i];
    const auto& s = rows_split[i];
    const double e2 = 100.0 * (f.model_latency - f.sim_latency) / f.sim_latency;
    const double e1 = 100.0 * (s.model_latency - f.sim_latency) / f.sim_latency;
    t.add_row({f.load, f.sim_latency, f.model_latency,
               s.model_stable ? util::Cell{s.model_latency}
                              : util::Cell{std::string("inf")},
               e2, s.model_stable ? util::Cell{e1} : util::Cell{}});
  }
  harness::print_experiment(
      "ABL-MS: multi-server (M/G/2) vs independent-link (M/G/1) up-channel model",
      t);
  std::printf("model saturation: M/G/2 %.5f vs M/G/1-split %.5f flits/cyc/PE\n",
              engine.saturation_load(model_full), engine.saturation_load(model_split));
  return 0;
}
