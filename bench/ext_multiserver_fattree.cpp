// EXT-MSERVER — the paper's §4 anticipated extension: "the framework can be
// extended for networks that require queuing models with more than two
// servers."  We build fat-trees with m = 1..4 parent links per switch
// (m = 2 is the paper's butterfly fat-tree), model them with the M/G/m
// kernel, and validate each against simulation.
//
// Success criteria, with the values the full (non --quick) run prints at
// seed 1:
//  * capacity grows with m, and the model's saturation prediction tracks
//    the simulator's overload throughput for every m: model/sim is
//    0.944-1.005 at levels 2 and 0.923-1.026 at levels 3;
//  * mid-load latency (60% of each m's model saturation): the model sits
//    below the simulator for every m, by 9.3 / 3.3 / 5.7% for m = 1..3 at
//    levels 2 and 4.5 / 4.0 / 8.2% at levels 3 — but by 12.0% (levels 2)
//    and 10.9% (levels 3) at m = 4, outside single digits.  That m = 4 gap
//    is an open correctness item (ROADMAP): either the M/G/m blocking term
//    at large m or the simulator's one-cycle arbitration hand-off.  The
//    --quick windows are too short to read errors from (m = 2 reads
//    -12.7% there).
//
//   ./ext_multiserver_fattree [--levels=3] [--worm=16] [--quick]
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "topo/butterfly_fattree.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const bool quick = args.get_bool("quick", false);
  const long warmup = args.get_int("warmup", quick ? 4'000 : 10'000);
  const long measure = args.get_int("measure", quick ? 10'000 : 30'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::reject_unknown_flags(args);

  util::Table t({"parents m", "model sat (flits/cyc/PE)", "sim overload",
                 "model/sim", "latency@60%: model", "sim", "err %"});
  t.set_precision(0, 0);
  t.set_precision(1, 5);
  t.set_precision(2, 5);
  t.set_precision(3, 3);

  std::vector<core::FatTreeModel> models;
  for (int m = 1; m <= 4; ++m)
    models.emplace_back(core::FatTreeModelOptions{
        .levels = levels, .worm_flits = static_cast<double>(worm), .parents = m});

  harness::SweepEngine engine;
  for (const core::FatTreeModel& model : models) {
    const int m = model.options().parents;
    topo::ButterflyFatTree ft(levels, m);
    const double sat = engine.saturation_load(model);
    const harness::ThroughputRow thr = harness::compare_throughput(
        ft, sat, worm, seed, warmup, measure);

    const double load = sat * 0.6;
    sim::SimConfig cfg;
    cfg.load_flits = load;
    cfg.worm_flits = worm;
    cfg.seed = seed + static_cast<std::uint64_t>(m);
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = measure;
    cfg.max_cycles = 20 * measure;
    cfg.channel_stats = false;
    const sim::SimResult r = sim::simulate(ft, cfg);
    const double model_latency = engine.evaluate_load(model, load).latency;
    t.add_row({static_cast<double>(m), sat, thr.sim_overload_throughput, thr.ratio,
               model_latency, r.latency.mean(),
               100.0 * (model_latency - r.latency.mean()) / r.latency.mean()});
  }
  harness::print_experiment(
      "EXT-MSERVER: M/G/m fat-trees (m parent links), model vs simulation, N=" +
          std::to_string(static_cast<long>(util::ipow(4, levels))),
      t);
  return 0;
}
