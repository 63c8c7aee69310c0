// latency_distribution — beyond the paper's mean-latency curves: full
// latency distributions from the simulator, per ARRIVAL PROCESS, with tail
// percentiles per load.
//
// The analytical model predicts means (Eq. 2, plus the bursty-arrivals
// C_a² extension); this example shows what the mean hides — the P99 grows
// much faster than the mean near saturation, and burstier injection
// (batch, MMPP-2) fattens the tail long before it moves the mean much.
// That gap is exactly what latency-SLO capacity planning has to price in.
//
// All runs execute as ONE harness::SimEngine campaign (shared SimNetwork,
// fanned across the thread pool); the model column comes from the same
// traffic-aware model retuned per process via set_injection_process.
//
//   ./latency_distribution [--levels=3] [--worm=16] [--seed=17]
#include <cstdio>
#include <iostream>
#include <optional>

#include "wormnet.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  harness::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(worm);
  const core::GeneralModel base =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);

  const std::vector<arrivals::ArrivalSpec> processes = {
      arrivals::ArrivalSpec::poisson(),
      arrivals::ArrivalSpec::batch(4.0),
      arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0),
  };
  const double fracs[] = {0.2, 0.4, 0.6, 0.8, 0.9};

  // One campaign: per process, one histogram-collecting cell per load
  // fraction of THAT process's model saturation.
  harness::SweepEngine sweeps;
  harness::SimEngine engine;
  std::vector<core::GeneralModel> models;  // one per process, for the model column
  models.reserve(processes.size());
  std::vector<harness::SimCell> cells;
  for (const arrivals::ArrivalSpec& process : processes) {
    models.push_back(base);
    models.back().set_injection_process(process);
    const double sat = sweeps.saturation_load(models.back());
    for (double frac : fracs) {
      harness::SimCell cell;
      cell.topology = &ft;
      cell.cfg.load_flits = sat * frac;
      cell.cfg.worm_flits = worm;
      cell.cfg.seed = seed;
      cell.cfg.arrival_process = process;
      cell.cfg.warmup_cycles = 8'000;
      cell.cfg.measure_cycles = 40'000;
      cell.cfg.max_cycles = 500'000;
      cell.cfg.latency_histogram = true;
      cell.cfg.histogram_max = 4096.0;
      cell.cfg.channel_stats = false;
      cell.label = process.name();
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<harness::SimCellResult> results = engine.run_cells(cells);

  std::optional<util::Histogram> knee_hist;  // burstiest process at 90%
  for (std::size_t p = 0; p < processes.size(); ++p) {
    std::printf("%s%s, %s arrivals (eff Ca^2 = %.2f), %d-flit worms\n",
                p == 0 ? "" : "\n", ft.name().c_str(),
                processes[p].name().c_str(), processes[p].effective_ca2(), worm);
    util::Table t({"load(flits/cyc)", "model mean", "sim mean", "P50", "P95",
                   "P99", "max"});
    t.set_precision(0, 4);
    for (std::size_t f = 0; f < std::size(fracs); ++f) {
      const harness::SimCellResult& cell = results[p * std::size(fracs) + f];
      const sim::SimResult& r = cell.runs.front();
      const double load = cells[p * std::size(fracs) + f].cfg.load_flits;
      const util::Histogram& h = *r.latency_hist;
      t.add_row({load, sweeps.evaluate_load(models[p], load).latency,
                 r.latency.mean(), h.quantile(0.50), h.quantile(0.95),
                 h.quantile(0.99), r.latency.max()});
      if (fracs[f] == 0.9 && p + 1 == processes.size()) knee_hist = h;
    }
    t.print(std::cout);
  }

  if (knee_hist) {
    std::printf("\n%s latency histogram at 90%% of its saturation:\n%s",
                processes.back().name().c_str(), knee_hist->ascii(48).c_str());
  }
  std::printf(
      "\n(the model predicts the mean; the P95/P99 columns quantify the tail\n"
      " above it, which burstier arrival processes fatten fastest)\n");
  return 0;
}
