// GEN-MESH — the general model on a network with NO symmetry shortcut: the
// k-ary 2-mesh under dimension-order routing, whose center channels carry
// more traffic than its edges.  The model here is the per-physical-channel
// graph produced by exact flow propagation (core::build_traffic_model under
// uniform traffic) — several hundred coupled channel classes — solved by the
// same backward sweep.
//
// This stands in for the paper's k-ary n-cube context (Dally); see
// DESIGN.md "Substitutions" for why the mesh (deadlock-free DOR, acyclic
// channel dependencies) is the faithful choice.
//
// Success criterion: model tracks simulation within ~10% through the knee
// on 8x8 and 16x16 meshes.
//
//   ./generality_mesh [--radix=8,16] [--worm=16] [--quick]
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const auto radix_list = args.get_int_list("radix", {8, 16});
  const int worm = static_cast<int>(args.get_int("worm", 16));
  harness::SweepConfig base = bench::sweep_defaults(args, worm);
  bench::reject_unknown_flags(args);

  std::vector<std::unique_ptr<topo::Mesh>> meshes;
  std::vector<core::GeneralModel> models;
  for (long radix : radix_list) {
    meshes.push_back(std::make_unique<topo::Mesh>(static_cast<int>(radix), 2));
    models.push_back(core::build_traffic_model(*meshes.back(),
                                               traffic::TrafficSpec::uniform()));
    models.back().opts.worm_flits = worm;
  }

  harness::SweepEngine engine;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const core::GeneralModel& net = models[i];
    const topo::Mesh& mesh = *meshes[i];
    const double sat = engine.saturation_load(net);

    harness::SweepConfig sweep = base;
    sweep.loads = {sat * 0.2, sat * 0.4, sat * 0.6, sat * 0.8, sat * 0.9};
    const auto rows = harness::compare_latency(mesh, net, sweep, &engine);
    harness::print_experiment(
        "GEN-MESH: " + mesh.name() + ", " + std::to_string(worm) +
            "-flit worms, per-channel model with " +
            std::to_string(net.graph.size()) + " channel classes (saturation " +
            std::to_string(sat) + " flits/cyc/PE)",
        harness::comparison_table(rows));
    std::printf("mean |model-sim| latency error: %.2f%%\n",
                harness::mean_abs_pct_error(rows));
  }
  return 0;
}
