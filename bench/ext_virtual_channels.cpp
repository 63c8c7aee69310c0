// EXT-VC — virtual channels (multi-lane storage) on the butterfly fat-tree:
// the Stergiou-style extension where each physical link multiplexes L
// independent one-flit lanes sharing one flit/cycle of bandwidth.
//
// For N = 64 and N = 256 under uniform and 10%-hotspot traffic, this bench
// sweeps the lane count and reports, per L:
//  * the lane-aware model's saturation load (P/L blocking discount,
//    M/G/(m·L) lane-pool waits, multiplexing stretch — channel_solver.hpp);
//  * the simulator's overload throughput (per-lane latches, round-robin
//    bandwidth arbitration);
//  * latency agreement at fractions of the model's saturation.
//
// Measured behavior (numbers recorded in EXPERIMENTS.md):
//  * the second lane buys the bulk of the saturation headroom (most of the
//    head-of-line blocking relief), matching Stergiou's multi-lane MIN
//    observation;
//  * beyond L ≈ 2–4 the gain flattens or reverses: every added lane shares
//    the same flit/cycle, so the multiplexing penalty catches up with the
//    blocking relief — an interior optimum the lane-aware model reproduces;
//  * under hotspot the relief is strictly positive in both model and sim
//    (blocked hot-destination worms no longer seal whole tree levels).
//
//   ./ext_virtual_channels [--levels=3,4] [--lanes=1,2,4] [--worm=16] [--quick]
#include <cstdio>
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
  const std::vector<std::int64_t> lane_list = args.get_int_list("lanes", {1, 2, 4});
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const long warmup = args.get_int("warmup", quick ? 3'000 : 8'000);
  const long measure = args.get_int("measure", quick ? 8'000 : 25'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::reject_unknown_flags(args);

  struct PatternCase {
    const char* name;
    traffic::TrafficSpec spec;
  };
  const PatternCase cases[] = {
      {"uniform", traffic::TrafficSpec::uniform()},
      {"hotspot-10%", traffic::TrafficSpec::hotspot(0.1)},
  };

  harness::SweepEngine engine;
  harness::SimEngine sims;
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(worm);

  for (std::int64_t levels : levels_list) {
    const long n_procs = util::ipow(4, static_cast<int>(levels));
    for (const PatternCase& pc : cases) {
      // One lane-axis family per (N, pattern): the factory rebuilds the
      // traffic model with the topology's uniform lane count changed.
      topo::ButterflyFatTree ft(static_cast<int>(levels));
      std::vector<double> lanes;
      for (std::int64_t l : lane_list) lanes.push_back(static_cast<double>(l));
      const std::vector<harness::FamilyMember> family = engine.sweep_family(
          [&](double L) {
            ft.set_uniform_lanes(static_cast<int>(L));
            return std::make_unique<core::GeneralModel>(
                core::build_traffic_model(ft, pc.spec, opts));
          },
          lanes, {0.2, 0.5, 0.8});

      // Simulation side of the family as ONE SimEngine campaign: per lane
      // count an overload probe and a 50%-of-saturation latency run.  A
      // SimNetwork snapshots lane counts at construction, so each L gets
      // its own live topology object for the campaign.
      std::vector<std::unique_ptr<topo::ButterflyFatTree>> lane_topos;
      std::vector<harness::SimCell> cells;
      for (const harness::FamilyMember& fm : family) {
        const int L = static_cast<int>(fm.parameter);
        lane_topos.push_back(
            std::make_unique<topo::ButterflyFatTree>(static_cast<int>(levels)));
        lane_topos.back()->set_uniform_lanes(L);
        const topo::Topology* topo = lane_topos.back().get();

        harness::SimCell ovl;
        ovl.topology = topo;
        ovl.cfg.arrivals = sim::ArrivalProcess::Overload;
        ovl.cfg.worm_flits = worm;
        ovl.cfg.seed = seed;
        ovl.cfg.traffic = pc.spec;
        ovl.cfg.warmup_cycles = warmup;
        ovl.cfg.measure_cycles = measure;
        ovl.cfg.channel_stats = false;
        cells.push_back(std::move(ovl));

        harness::SimCell mid;
        mid.topology = topo;
        mid.cfg.load_flits = fm.points[1].load_flits;
        mid.cfg.worm_flits = worm;
        mid.cfg.seed = seed + 17 * static_cast<std::uint64_t>(L);
        mid.cfg.traffic = pc.spec;
        mid.cfg.warmup_cycles = warmup;
        mid.cfg.measure_cycles = 4 * measure;
        mid.cfg.max_cycles = 60 * measure;
        mid.cfg.channel_stats = false;
        cells.push_back(std::move(mid));
      }
      const std::vector<harness::SimCellResult> outs = sims.run_cells(cells);

      util::Table t({"lanes", "model sat", "sim overload", "model/sim",
                     "model L@50%", "sim L@50%", "err@50%"});
      for (std::size_t i = 0; i < family.size(); ++i) {
        const harness::FamilyMember& fm = family[i];
        const int L = static_cast<int>(fm.parameter);
        const sim::SimResult& ovl = outs[2 * i].runs.front();
        const sim::SimResult& mid = outs[2 * i + 1].runs.front();

        const double model_sat = fm.saturation_rate * worm;
        const double model50 = fm.points[1].est.latency;
        std::vector<util::Cell> row{static_cast<double>(L), model_sat,
                                    ovl.throughput_flits_per_pe,
                                    model_sat / ovl.throughput_flits_per_pe,
                                    model50};
        if (mid.saturated || mid.latency.count() == 0) {
          row.push_back(std::string("sat"));
          row.push_back(std::string("-"));
        } else {
          const double sim50 = mid.latency.mean();
          row.push_back(sim50);
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%+.1f%%",
                        100.0 * (model50 - sim50) / sim50);
          row.push_back(std::string(buf));
        }
        t.add_row(std::move(row));
      }
      harness::print_experiment(
          "EXT-VC: saturation and latency vs lane count, N=" +
              std::to_string(n_procs) + ", " + std::string(pc.name) +
              " (saturation in flits/cycle/PE; latencies at 50% of each "
              "member's model saturation)",
          t);
    }
  }
  std::printf(
      "(lane 2 buys most of the head-of-line relief; past L~2-4 the shared\n"
      " flit/cycle of physical bandwidth claws the gain back — the interior\n"
      " optimum both columns reproduce.  See EXPERIMENTS.md for recorded runs)\n");
  return 0;
}
