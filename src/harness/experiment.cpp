#include "harness/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::harness {

std::vector<ComparisonRow> compare_latency(const topo::Topology& topo,
                                           const core::NetworkModel& model,
                                           const SweepConfig& cfg,
                                           SweepEngine* engine,
                                           SimEngine* sims) {
  WORMNET_EXPECTS(!cfg.loads.empty());
  // Model side: model_only_sweep's rows.  Its private engine, if any, dies
  // inside that call, before the simulation campaign below spins up.
  std::vector<ComparisonRow> rows = model_only_sweep(model, cfg, engine);

  // Simulation side: one SimEngine campaign — every load point an
  // independent deterministic cell over ONE shared SimNetwork.
  std::vector<SimCell> cells(cfg.loads.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimCell& cell = cells[i];
    cell.topology = &topo;
    cell.cfg.load_flits = cfg.loads[i];
    cell.cfg.worm_flits = cfg.worm_flits;
    cell.cfg.seed = cfg.seed + static_cast<std::uint64_t>(i);
    cell.cfg.warmup_cycles = cfg.warmup_cycles;
    cell.cfg.measure_cycles = cfg.measure_cycles;
    cell.cfg.max_cycles = cfg.max_cycles;
    cell.cfg.channel_stats = false;
  }
  std::unique_ptr<SimEngine> local_sims;
  if (!sims) local_sims = std::make_unique<SimEngine>(SimEngine::Options{cfg.threads});
  const std::vector<SimCellResult> outs =
      (sims ? *sims : *local_sims).run_cells(cells);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sim::SimResult& r = outs[i].runs.front();
    ComparisonRow& row = rows[i];
    row.sim_latency = r.latency.mean();
    row.sim_sem = r.latency.sem();
    row.sim_inj_wait = r.queue_wait.mean();
    row.sim_inj_service = r.inj_service.mean();
    row.sim_messages = r.latency.count();
    row.sim_saturated = r.saturated;
  }
  return rows;
}

std::vector<ComparisonRow> model_only_sweep(const core::NetworkModel& model,
                                            const SweepConfig& cfg,
                                            SweepEngine* engine) {
  std::unique_ptr<SweepEngine> local;
  if (!engine) local = std::make_unique<SweepEngine>(SweepEngine::Options{cfg.threads});
  SweepEngine& eng = engine ? *engine : *local;

  const std::vector<SweepPoint> points = eng.sweep_load(model, cfg.loads);
  std::vector<ComparisonRow> rows(cfg.loads.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const core::LatencyEstimate& est = points[i].est;
    rows[i].load = cfg.loads[i];
    rows[i].model_latency = est.latency;
    rows[i].model_inj_wait = est.inj_wait;
    rows[i].model_inj_service = est.inj_service;
    rows[i].model_stable = est.stable;
    rows[i].sim_latency = util::kNaN;
  }
  return rows;
}

util::Table comparison_table(const std::vector<ComparisonRow>& rows) {
  util::Table t({"load(flits/cyc)", "model_latency", "sim_latency", "sim_sem",
                 "model_Winj", "sim_Winj", "model_xinj", "sim_xinj", "messages",
                 "note"});
  t.set_precision(0, 4);
  for (const ComparisonRow& r : rows) {
    std::string note;
    if (!r.model_stable) note += "model:sat ";
    if (r.sim_saturated) note += "sim:sat";
    t.add_row({r.load,
               r.model_stable ? util::Cell{r.model_latency} : util::Cell{std::string("inf")},
               r.sim_messages > 0 ? util::Cell{r.sim_latency} : util::Cell{},
               r.sim_messages > 0 ? util::Cell{r.sim_sem} : util::Cell{},
               r.model_stable ? util::Cell{r.model_inj_wait} : util::Cell{},
               r.sim_messages > 0 ? util::Cell{r.sim_inj_wait} : util::Cell{},
               r.model_stable ? util::Cell{r.model_inj_service} : util::Cell{},
               r.sim_messages > 0 ? util::Cell{r.sim_inj_service} : util::Cell{},
               static_cast<double>(r.sim_messages),
               note.empty() ? util::Cell{} : util::Cell{note}});
  }
  t.set_precision(8, 0);
  return t;
}

double mean_abs_pct_error(const std::vector<ComparisonRow>& rows) {
  double sum = 0.0;
  int n = 0;
  for (const ComparisonRow& r : rows) {
    if (!r.model_stable || r.sim_saturated || r.sim_messages == 0) continue;
    if (!std::isfinite(r.model_latency) || !std::isfinite(r.sim_latency)) continue;
    sum += std::abs(r.model_latency - r.sim_latency) / r.sim_latency * 100.0;
    ++n;
  }
  return n > 0 ? sum / n : util::kNaN;
}

ThroughputRow compare_throughput(const topo::Topology& topo,
                                 double model_saturation_load, int worm_flits,
                                 std::uint64_t seed, long warmup_cycles,
                                 long measure_cycles) {
  sim::SimConfig sc;
  sc.arrivals = sim::ArrivalProcess::Overload;
  sc.worm_flits = worm_flits;
  sc.seed = seed;
  sc.warmup_cycles = warmup_cycles;
  sc.measure_cycles = measure_cycles;
  sc.channel_stats = false;
  const sim::SimResult r = sim::simulate(topo, sc);
  ThroughputRow row;
  row.model_saturation_load = model_saturation_load;
  row.sim_overload_throughput = r.throughput_flits_per_pe;
  row.ratio = row.sim_overload_throughput > 0.0
                  ? row.model_saturation_load / row.sim_overload_throughput
                  : util::kNaN;
  return row;
}

void print_experiment(const std::string& title, const util::Table& table) {
  std::cout << "\n=== " << title << " ===\n";
  table.print(std::cout);
  std::cout << "--- csv ---\n";
  table.print_csv(std::cout);
  std::cout.flush();
}

std::vector<double> fraction_loads(double saturation_load,
                                   bool include_past_saturation) {
  std::vector<double> loads;
  for (double f : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.875, 0.95})
    loads.push_back(saturation_load * f);
  if (include_past_saturation) {
    loads.push_back(saturation_load * 1.05);
    loads.push_back(saturation_load * 1.15);
  }
  return loads;
}

SweepConfig sweep_defaults(const util::Args& args, int worm_flits) {
  SweepConfig cfg;
  cfg.worm_flits = worm_flits;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool quick = args.get_bool("quick", false);
  cfg.warmup_cycles = args.get_int("warmup", quick ? 4'000 : 12'000);
  cfg.measure_cycles = args.get_int("measure", quick ? 10'000 : 40'000);
  cfg.max_cycles = args.get_int("max-cycles", quick ? 60'000 : 250'000);
  return cfg;
}

void reject_unknown_flags(const util::Args& args) {
  const auto unused = args.unused();
  if (unused.empty()) return;
  std::fprintf(stderr, "unknown flag(s):");
  for (const auto& u : unused) std::fprintf(stderr, " --%s", u.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace wormnet::harness
