// custom_network_model — apply the paper's §2 general model to a network
// the authors never analyzed, straight through the public API.
//
// We model a two-stage "dance-hall" network: 8 processors on the left, each
// with an injection channel into one of 2 first-stage switches; both
// switches forward across 2 parallel middle links (a two-server bundle,
// like the fat-tree's up-link pair) to a second stage that fans out to 8
// ejection channels.  The example shows:
//   * hand-building a ChannelGraph with multi-server bundles,
//   * solving it across a load sweep,
//   * checking it against the flit-level simulator on the closest
//     simulable equivalent (a 2-level fat-tree exercises the same two-
//     server construct).
#include <cstdio>
#include <iostream>

#include "wormnet.hpp"

int main() {
  using namespace wormnet;
  const double sf = 16.0;

  // --- Build: inj -> middle(two-server) -> eject. -----------------------
  core::GeneralModel net;
  core::ChannelClass eject;
  eject.label = "eject";
  eject.servers = 1;
  eject.rate_per_link = 1.0;  // every PE absorbs what it injects
  eject.terminal = true;
  const int ej = net.graph.add_channel(eject);

  core::ChannelClass middle;
  middle.label = "middle";
  middle.servers = 2;          // two parallel links, one FCFS pool
  middle.rate_per_link = 2.0;  // 4 PEs per side share 2 links at unit rate
  const int mid = net.graph.add_channel(middle);

  core::ChannelClass inj;
  inj.label = "inj";
  inj.servers = 1;
  inj.rate_per_link = 1.0;
  const int in = net.graph.add_channel(inj);

  // A message crosses the middle stage, then lands on one of 8 ejection
  // channels (weight 1 into the class; any SPECIFIC output with R = 1/8).
  // Transitions go in class by class, so the middle stage's comes first.
  net.graph.add_transition(mid, ej, 1.0, 1.0 / 8.0);
  net.graph.add_transition(in, mid, 1.0, 1.0);
  net.injection_classes = {in};
  net.mean_distance = 3.0;  // inj + middle + eject
  net.model_name = "dance-hall";
  net.opts.worm_flits = sf;

  std::printf("custom two-stage network under the general wormhole model\n");
  std::printf("(middle stage = two-server bundle, the paper's M/G/2 construct)\n\n");

  // As a NetworkModel, the hand-built graph plugs straight into the engine.
  harness::SweepEngine engine;
  const double sat = engine.saturation_rate(net);
  std::printf("saturation: %.5f messages/cycle/PE (%.4f flits/cycle/PE)\n\n",
              sat, sat * sf);

  util::Table t({"lambda0", "latency", "W_inj", "x_inj", "middle rho"});
  for (double frac : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    const double lambda0 = sat * frac;
    const core::SolveResult res = net.solve(lambda0);
    const core::LatencyEstimate est = net.evaluate(lambda0);
    t.add_row({lambda0, est.latency, est.inj_wait, est.inj_service,
               res.utilization(mid)});
  }
  t.set_precision(0, 5);
  t.print(std::cout);

  // --- Ablation: what if we ignored the pooling of the two middle links?
  core::GeneralModel naive = net;
  naive.opts.ablation.multi_server = false;
  const double sat_naive = engine.saturation_rate(naive);
  std::printf("\nwith the two-server pool modeled as independent M/G/1 links,"
              " predicted saturation drops from %.5f to %.5f (-%.1f%%)\n",
              sat, sat_naive, 100.0 * (1.0 - sat_naive / sat));

  // --- Cross-check the construct against the simulator. ------------------
  // The 16-processor fat-tree's level-1 switches feed exactly such a
  // two-server bundle; compare model vs simulation there.
  topo::ButterflyFatTree ft(2);
  core::GeneralModel ftnet = core::build_fattree_collapsed(2);
  ftnet.opts.worm_flits = sf;
  const double ft_sat = engine.saturation_rate(ftnet);
  sim::SimConfig cfg;
  cfg.load_flits = ft_sat * 0.6 * sf;
  cfg.worm_flits = static_cast<int>(sf);
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 30'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  const core::LatencyEstimate est = engine.evaluate(ftnet, ft_sat * 0.6);
  std::printf("\nsanity (16-PE fat-tree at 60%% load): model %.2f cycles,"
              " simulator %.2f cycles\n",
              est.latency, r.latency.mean());
  return 0;
}
