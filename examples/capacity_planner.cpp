// capacity_planner — a task the analytical model is uniquely good at.
//
// "How much uniform traffic can each network size sustain while keeping
// average latency under a budget?"  Answering this with simulation takes a
// bisection of multi-second runs per cell; the model answers the whole
// table in milliseconds.  This is the paper's practical payoff: use the
// validated model for design-space exploration, not the simulator.
//
//   ./capacity_planner [--budget=2.0] [--worms=16,32,64] [--max-levels=6]
//
// The budget is a multiple of the zero-load latency (e.g. 2.0 means "stay
// under twice the uncontended latency").
#include <cstdio>
#include <iostream>

#include "wormnet.hpp"

namespace {

// Largest load whose model latency stays under `budget_cycles`, found by
// bisection against the (monotone) latency curve.  Works on ANY NetworkModel
// — the polymorphic interface is what makes this planner topology-agnostic.
double max_load_under_budget(const wormnet::core::NetworkModel& model,
                             wormnet::harness::SweepEngine& engine,
                             double budget_cycles) {
  double lo = 0.0;
  double hi = engine.saturation_load(model);
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const wormnet::core::LatencyEstimate ev = engine.evaluate_load(model, mid);
    if (ev.stable && ev.latency <= budget_cycles)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const double budget_factor = args.get_double("budget", 2.0);
  const auto worms = args.get_int_list("worms", {16, 32, 64});
  const int max_levels = static_cast<int>(args.get_int("max-levels", 6));

  util::Table table({"N", "worm(flits)", "zero-load L", "budget L",
                     "max load(flits/cyc)", "saturation", "% of saturation"});
  table.set_precision(0, 0);
  table.set_precision(1, 0);
  table.set_precision(2, 1);
  table.set_precision(3, 1);
  table.set_precision(4, 5);
  table.set_precision(5, 5);
  table.set_precision(6, 1);

  // One closed-form model per table cell.  The engine's memo keys on model
  // content, not addresses, so the models' lifetimes do not matter to it.
  std::vector<core::FatTreeModel> models;
  for (int levels = 1; levels <= max_levels; ++levels)
    for (long worm : worms)
      models.emplace_back(core::FatTreeModelOptions{
          .levels = levels, .worm_flits = static_cast<double>(worm)});

  harness::SweepEngine engine;
  for (const core::FatTreeModel& model : models) {
    const double worm = model.worm_flits();
    const double zero_load = worm + model.mean_distance() - 1.0;
    const double budget = budget_factor * zero_load;
    const double max_load = max_load_under_budget(model, engine, budget);
    const double sat = engine.saturation_load(model);
    table.add_row({static_cast<double>(model.num_processors()),
                   static_cast<double>(worm), zero_load, budget, max_load, sat,
                   100.0 * max_load / sat});
  }
  std::printf("max sustainable uniform load keeping average latency <= %.1fx"
              " the zero-load latency\n\n",
              budget_factor);
  table.print(std::cout);
  std::printf("\n(an entire design-space table computed analytically; every cell"
              " would be a bisection of simulations otherwise)\n");
  return 0;
}
