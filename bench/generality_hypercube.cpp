// GEN-HC — "These ideas can also be applied to other networks" (paper §1/§4):
// the general channel-graph model instantiated for the binary hypercube
// under e-cube routing — the Draper & Ghosh setting the paper builds on —
// validated against the same flit-level simulator.
//
// Success criterion: single-digit-percent model error in the stable region
// for n = 6..10 (64..1024 processors), without any hypercube-specific model
// code: the symmetry-collapsed traffic builder folds the cube to its dims + 2
// channel classes (injection, one per dimension, ejection) from the
// topology's declared symmetry alone.
//
//   ./generality_hypercube [--dims=6,8,10] [--worm=16] [--quick]
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const auto dims_list = args.get_int_list("dims", {6, 8, 10});
  const int worm = static_cast<int>(args.get_int("worm", 16));
  harness::SweepConfig base = bench::sweep_defaults(args, worm);
  bench::reject_unknown_flags(args);

  std::vector<core::GeneralModel> models;
  models.reserve(dims_list.size());
  for (long dims : dims_list) {
    models.push_back(core::build_traffic_model_collapsed(
        topo::Hypercube(static_cast<int>(dims)), traffic::TrafficSpec::uniform()));
    models.back().opts.worm_flits = worm;
  }

  harness::SweepEngine engine;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const core::GeneralModel& net = models[i];
    topo::Hypercube hc(static_cast<int>(dims_list[i]));
    const double sat = engine.saturation_load(net);

    harness::SweepConfig sweep = base;
    sweep.loads = {sat * 0.2, sat * 0.4, sat * 0.6, sat * 0.8, sat * 0.9};
    const auto rows = harness::compare_latency(hc, net, sweep, &engine);
    harness::print_experiment(
        "GEN-HC: " + hc.name() + ", " + std::to_string(worm) +
            "-flit worms (model saturation " + std::to_string(sat) +
            " flits/cyc/PE)",
        harness::comparison_table(rows));
    std::printf("mean |model-sim| latency error: %.2f%%\n",
                harness::mean_abs_pct_error(rows));
  }
  return 0;
}
