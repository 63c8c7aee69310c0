// EXT-BURSTY — bursty message injection through the arrivals subsystem:
// model-vs-simulation accuracy per arrival process, and the cost of
// assuming Poisson when the workload is not.
//
// For N = 64 (fat-tree levels 3) and N = 256 (levels 4) under uniform and
// 10%-hotspot traffic, this bench sweeps the arrival-process catalog
// (Poisson, deterministic, compound-Poisson batches, MMPP-2) and reports,
// per process:
//  * the bursty-aware model's saturation load (the QNA C_a² propagation of
//    core::build_traffic_model + the Allen–Cunneen G/G/m wait of
//    queueing::ChannelSolver, retuned per process via set_injection_ca2);
//  * latency agreement at 20% and 50% of that model's own saturation
//    against a simulator driven by the SAME ArrivalSpec objects;
//  * what the untuned Poisson model (C_a² = 1) predicts at the same loads —
//    the "Poisson optimism" column: under MMPP hotspot traffic the Poisson
//    model undershoots the simulated latency long before Poisson
//    saturation, which is the whole point of the subsystem.
//
//   ./ext_bursty_arrivals [--levels=3,4] [--worm=16] [--quick] [--seed=1]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  std::vector<std::int64_t> levels_list = args.get_int_list("levels", {3, 4});
  if (quick && !args.has("levels")) levels_list = {3};
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const long warmup = args.get_int("warmup", quick ? 4'000 : 8'000);
  const long measure = args.get_int("measure", quick ? 12'000 : 40'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::reject_unknown_flags(args);

  struct PatternCase {
    const char* name;
    traffic::TrafficSpec spec;
  };
  const PatternCase patterns[] = {
      {"uniform", traffic::TrafficSpec::uniform()},
      {"hotspot-10%", traffic::TrafficSpec::hotspot(0.1)},
  };
  const std::vector<arrivals::ArrivalSpec> processes = {
      arrivals::ArrivalSpec::deterministic(),
      arrivals::ArrivalSpec::poisson(),
      arrivals::ArrivalSpec::batch(4.0),
      arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0),
  };
  const double fracs[] = {0.2, 0.5};

  harness::SweepEngine engine;
  harness::SimEngine sims;
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(worm);

  for (std::int64_t levels : levels_list) {
    const long n_procs = util::ipow(4, static_cast<int>(levels));
    topo::ButterflyFatTree ft(static_cast<int>(levels));
    for (const PatternCase& pc : patterns) {
      // ONE routed model per (N, pattern); each family member is an
      // O(channels) C_a² retune of a copy — the burstiness axis never
      // re-runs the O(N²·hops) route enumeration.
      const core::GeneralModel base = core::build_traffic_model(ft, pc.spec, opts);
      const std::vector<harness::FamilyMember> family = engine.sweep_burstiness(
          [&](const arrivals::ArrivalSpec& p) {
            auto m = std::make_unique<core::GeneralModel>(base);
            m->set_injection_process(p);
            return m;
          },
          processes, {fracs[0], fracs[1]});

      // Simulation side as one campaign: per process, a latency run at each
      // fraction of ITS model's saturation, driven by the same ArrivalSpec.
      std::vector<harness::SimCell> cells;
      for (std::size_t i = 0; i < processes.size(); ++i) {
        for (double frac : fracs) {
          harness::SimCell cell;
          cell.topology = &ft;
          cell.cfg.load_flits =
              family[i].saturation_rate * frac * static_cast<double>(worm);
          cell.cfg.worm_flits = worm;
          cell.cfg.seed = seed + 1000 * static_cast<std::uint64_t>(i);
          cell.cfg.traffic = pc.spec;
          cell.cfg.arrival_process = processes[i];
          cell.cfg.warmup_cycles = warmup;
          cell.cfg.measure_cycles = measure;
          cell.cfg.max_cycles = 40 * measure;
          cell.cfg.channel_stats = false;
          cell.label = processes[i].name();
          cells.push_back(std::move(cell));
        }
      }
      const std::vector<harness::SimCellResult> outs = sims.run_cells(cells);

      std::printf("\nN=%ld %s, %d-flit worms\n", n_procs, pc.name, worm);
      // "eff Ca^2" is the variability parameter the model consumes
      // (ArrivalSpec::effective_ca2): the interval SCV for renewal
      // processes, the limiting index of dispersion for MMPP-2.
      util::Table t({"process", "eff Ca^2", "sat load", "model@20%", "sim@20%",
                     "err@20%", "model@50%", "sim@50%", "err@50%",
                     "poisson-model err@50%"});
      for (std::size_t i = 0; i < processes.size(); ++i) {
        const harness::FamilyMember& fm = family[i];
        std::vector<util::Cell> row;
        row.reserve(10);  // also sidesteps a GCC 12 variant-move false
                          // positive in -Wmaybe-uninitialized
        row.push_back(std::string(processes[i].name()));
        row.push_back(fm.parameter);
        row.push_back(fm.saturation_rate * worm);
        double sim50 = 0.0;
        for (std::size_t f = 0; f < 2; ++f) {
          const sim::SimResult& r = outs[2 * i + f].runs.front();
          const double model = fm.points[f].est.latency;
          row.push_back(model);
          if (r.saturated || r.latency.count() == 0) {
            row.push_back(std::string("sat"));
            row.push_back(std::string("-"));
          } else {
            const double sim = r.latency.mean();
            if (f == 1) sim50 = sim;
            row.push_back(sim);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (model - sim) / sim);
            row.push_back(std::string(buf));
          }
        }
        // The optimism column: the UNTUNED (C_a² = 1) model at this
        // process's 50% load vs this process's simulated latency.
        if (sim50 > 0.0) {
          const double poisson_model =
              engine.evaluate(base, fm.saturation_rate * fracs[1]).latency;
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%+.1f%%",
                        100.0 * (poisson_model - sim50) / sim50);
          row.push_back(std::string(buf));
        } else {
          row.push_back(std::string("-"));
        }
        t.add_row(std::move(row));
      }
      t.print(std::cout);
    }
  }
  std::printf(
      "\n(err = (model - sim)/sim at fractions of each process's own model\n"
      " saturation; the last column evaluates the Poisson-assumption model\n"
      " at the same load — its optimism grows with Ca^2.)\n");
  return 0;
}
