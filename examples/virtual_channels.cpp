// virtual_channels — lane-count capacity planning with the SweepEngine's
// lane axis.
//
// "My fat-tree saturates under a 10% hotspot.  How many virtual channels
// (lanes) per link buy how much headroom, and when do extra lanes stop
// paying?"  Lanes multiplex independent one-flit latches over one physical
// flit/cycle: each added lane relieves head-of-line blocking (an L-fold
// discount of the Eq. 9/10 blocking probability) but shares the same wire
// (the multiplexing stretch).  The lane-aware model answers the whole
// trade-off table in milliseconds; the flit-level simulator (which
// allocates real per-lane latches with round-robin bandwidth arbitration)
// is only needed to validate the corner you pick.
//
//   ./virtual_channels [--levels=3] [--worm=16] [--hotspot=0.1]
//                      [--lanes=1,2,3,4,6,8] [--budget=1.5]
#include <cstdio>
#include <iostream>
#include <memory>

#include "wormnet.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const double hotspot = args.get_double("hotspot", 0.1);
  const auto lane_ints = args.get_int_list("lanes", {1, 2, 3, 4, 6, 8});
  const double budget_factor = args.get_double("budget", 1.5);
  harness::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(worm);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(hotspot);

  std::vector<double> lanes;
  for (auto l : lane_ints) lanes.push_back(static_cast<double>(l));

  // The lane axis: one pattern-aware model per lane count, each swept at
  // fractions of its OWN saturation.
  harness::SweepEngine engine;
  const std::vector<harness::FamilyMember> family = engine.sweep_family(
      [&](double L) {
        ft.set_uniform_lanes(static_cast<int>(L));
        return std::make_unique<core::GeneralModel>(
            core::build_traffic_model(ft, spec, opts));
      },
      lanes, {0.5, 0.8});

  const double zero_load = worm + ft.mean_distance() - 1.0;
  const double budget = budget_factor * zero_load;

  util::Table t({"lanes", "saturation(flits/cyc/PE)", "gain vs 1 lane",
                 "L @ 50% sat", "L @ 80% sat", "max load under budget"});
  t.set_precision(0, 0);
  const double base_sat = family.front().saturation_rate * worm;
  for (const harness::FamilyMember& fm : family) {
    const double sat = fm.saturation_rate * worm;
    // Largest load with latency under the budget, by bisection through the
    // engine's memo cache.
    double lo = 0.0;
    double hi = sat;
    for (int i = 0; i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      const core::LatencyEstimate ev = engine.evaluate_load(*fm.model, mid);
      if (ev.stable && ev.latency <= budget)
        lo = mid;
      else
        hi = mid;
    }
    t.add_row({fm.parameter, sat, 100.0 * (sat / base_sat - 1.0),
               fm.points[0].est.latency, fm.points[1].est.latency, lo});
  }

  std::printf("lane-count capacity planning: butterfly fat-tree N=%ld, "
              "hotspot f=%.2f, worm=%d flits\n(latency budget: %.1fx the "
              "zero-load latency = %.1f cycles; gain column in %%)\n\n",
              util::ipow(4, levels), hotspot, worm, budget_factor, budget);
  t.print(std::cout);
  std::printf(
      "\nreading the table: the second lane buys most of the head-of-line\n"
      "relief; past the knee the shared flit/cycle of wire claws it back —\n"
      "pick the smallest L at the saturation plateau (lanes cost silicon).\n"
      "Validate the chosen corner with the simulator: the same topology\n"
      "object drives it after set_uniform_lanes(L).\n");
  return 0;
}
