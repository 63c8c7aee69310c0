// observability_demo — one Registry snapshot spanning every layer.
//
// The observability contract of this repository is that the solver, the
// flit-level simulator and the resident query engine all publish into ONE
// obs::Registry, so a single snapshot() describes a whole run end-to-end.
// This demo exercises that contract:
//
//  1. solves an N = 64 fat-tree analytically (below and above saturation,
//     so the SolveTelemetry root-cause shows up) and publishes the solve;
//  2. runs a small simulation campaign with per-channel stats and the
//     worm-lifecycle trace enabled, and publishes the run;
//  3. answers a mixed what-if session through the QueryEngine and publishes
//     its cost-class / cache metrics;
//  4. dumps the combined snapshot as JSON, CSV and Prometheus text, and the
//     phase + worm spans as Chrome trace-event JSON (load the file in
//     chrome://tracing or ui.perfetto.dev).
//
// --overhead instead runs the 18-cell conformance-shaped overload campaign
// twice — observability off, then on (tracing + log sink + publication) —
// and reports the wall-clock delta (the EXPERIMENTS.md "OBS" numbers).
//
//   ./observability_demo [--levels=3] [--queries=60] [--threads=0]
//                        [--out=wormnet_obs] [--overhead]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "wormnet.hpp"

namespace {

using namespace wormnet;

/// The 18 overload probes of the accuracy map's uniform suite (the
/// topology x pattern x lanes grid of test_model_vs_sim_conformance.cpp):
/// the campaign the <2%-overhead acceptance number is measured on.
double run_conformance_campaign(bool publish, obs::Registry* reg) {
  harness::AccuracyFabrics fabrics;
  std::vector<harness::SimCell> cells;
  for (const harness::AccuracyCell& c : harness::accuracy_suite("uniform"))
    cells.push_back(harness::probe_sim_cell(c, fabrics.of(c)));

  const auto t0 = std::chrono::steady_clock::now();
  harness::SimEngine engine;
  const std::vector<harness::SimCellResult> results = engine.run_cells(cells);
  if (publish && reg != nullptr) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      obs::publish_sim(*reg, results[i].runs.front(),
                       "conformance_cell_" + std::to_string(i));
    }
    engine.publish_metrics(*reg, "conformance");
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Keep the results observable so neither pass can be optimized away.
  std::int64_t delivered = 0;
  for (const auto& r : results) delivered += r.runs.front().delivered_messages;
  std::printf("  campaign: %zu cells, %lld delivered, %.2f s (%s)\n",
              results.size(), static_cast<long long>(delivered), seconds,
              publish ? "observability ON" : "observability OFF");
  return seconds;
}

int run_overhead_mode(int repeats) {
  std::printf("overhead mode: 18-cell conformance campaign, off vs on "
              "(best of %d each)\n", repeats);
  // Warm pass so neither measured pass pays first-touch costs.
  obs::set_tracing(false);
  run_conformance_campaign(false, nullptr);

  // Alternate the modes and keep each mode's best time: scheduling noise
  // between identical passes is of the same order as the effect measured,
  // and minima are the standard way to strip it.
  obs::Registry reg;
  obs::CountingLogSink sink(reg);
  double t_off = 1e300, t_on = 1e300;
  for (int i = 0; i < repeats; ++i) {
    obs::set_tracing(false);
    obs::set_log_sink(nullptr);
    t_off = std::min(t_off, run_conformance_campaign(false, nullptr));

    obs::set_log_sink(&sink);
    obs::set_tracing(true);
    t_on = std::min(t_on, run_conformance_campaign(true, &reg));
  }
  obs::set_tracing(false);
  obs::set_log_sink(nullptr);

  const double overhead = (t_on - t_off) / t_off * 100.0;
  std::printf("\nobservability off: %.3f s\n", t_off);
  std::printf("observability on:  %.3f s  (%zu metrics, %zu trace events)\n",
              t_on, reg.size(), obs::default_trace().size());
  std::printf("overhead: %+.2f%%  (acceptance bound: < 2%%)\n", overhead);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int num_queries = static_cast<int>(args.get_int("queries", 60));
  const unsigned threads = static_cast<unsigned>(args.get_int("threads", 0));
  const std::string out = args.get("out", "wormnet_obs");
  const bool overhead = args.get_bool("overhead", false);
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  harness::reject_unknown_flags(args);

  if (overhead) return run_overhead_mode(repeats);

  // Everything below lands in ONE registry; spans land in the default trace.
  obs::Registry reg;
  obs::CountingLogSink sink(reg);
  obs::set_log_sink(&sink);
  obs::set_tracing(true);

  topo::ButterflyFatTree ft(levels);
  std::printf("observability demo: butterfly fat-tree, N = %d\n\n",
              ft.num_processors());

  // -- Layer 1: the analytical solver ------------------------------------
  core::SolveOptions sopts;
  sopts.worm_flits = 16.0;
  const core::GeneralModel model =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), sopts);
  const core::SolvePlan plan(model, sopts);
  const double sat = plan.saturation_rate();
  const core::SolveResult mid = plan.solve(0.5 * sat);
  obs::publish_solve(reg, mid, "fattree_mid");
  const core::SolveResult over = plan.solve(1.5 * sat);
  obs::publish_solve(reg, over, "fattree_over");
  std::printf("solver: λ₀* = %.5f; at 0.5·λ₀* max ρ = %.3f; at 1.5·λ₀* "
              "saturated by class %d (%s)\n",
              sat, mid.telemetry.max_utilization,
              over.telemetry.first_saturated_class,
              over.telemetry.saturation_cause);

  // -- Layer 2: the flit-level simulator ---------------------------------
  harness::SimCell cell;
  cell.topology = &ft;
  cell.cfg.load_flits = 0.5 * sat * 16.0;
  cell.cfg.worm_flits = 16;
  cell.cfg.seed = 42;
  cell.cfg.warmup_cycles = 2000;
  cell.cfg.measure_cycles = 8000;
  cell.cfg.channel_stats = true;             // per-channel export
  cell.cfg.trace = &obs::default_trace();    // worm-lifecycle events (pid 2)
  cell.label = "fattree_half_sat";
  harness::SimEngine sim_engine({threads, true});
  const harness::SimCellResult sim_out = sim_engine.run_cell(cell);
  obs::publish_sim(reg, sim_out.runs.front(), "fattree_half_sat");
  sim_engine.publish_metrics(reg, "demo");
  std::printf("simulator: %lld messages delivered, mean latency %.2f cycles, "
              "%zu channels exported\n",
              static_cast<long long>(sim_out.runs.front().delivered_messages),
              sim_out.runs.front().latency.mean(),
              sim_out.runs.front().channels.size());

  // -- Layer 3: the resident what-if engine ------------------------------
  harness::QueryEngine::Options qopts;
  qopts.threads = threads;
  harness::QueryEngine qe(ft, traffic::TrafficSpec::uniform(), qopts);
  std::vector<harness::WhatIfQuery> session;
  for (int i = 0; i < num_queries; ++i) {
    harness::WhatIfQuery q;
    q.lambda0 = 0.25 * sat * (1 + i % 3);
    if (i % 5 == 1) q.traffic = traffic::TrafficSpec::hotspot(0.1);
    if (i % 5 == 2) q.load_scale = 1.2;
    if (i % 5 == 3) q.lanes = 4;
    session.push_back(q);
  }
  const auto answers = qe.run_batch(session);
  qe.run_batch(session);  // replay — exercises the memo path
  qe.publish_metrics(reg, "whatif");
  std::printf("query engine: %llu served (%llu memoized) at %.0f queries/s\n\n",
              static_cast<unsigned long long>(qe.queries_served()),
              static_cast<unsigned long long>(qe.served_memoized()),
              qe.batch_seconds() > 0.0
                  ? static_cast<double>(qe.queries_served()) / qe.batch_seconds()
                  : 0.0);
  (void)answers;

  obs::set_log_sink(nullptr);
  obs::set_tracing(false);

  // -- The coherent snapshot ---------------------------------------------
  const obs::Snapshot snap = reg.snapshot();
  int solver = 0, simulator = 0, query = 0;
  for (const auto& e : snap.entries) {
    if (e.name.rfind("wormnet_solve", 0) == 0) ++solver;
    if (e.name.rfind("wormnet_sim", 0) == 0) ++simulator;
    if (e.name.rfind("wormnet_query", 0) == 0 ||
        e.name.rfind("wormnet_sweep", 0) == 0)
      ++query;
  }
  std::printf("one snapshot, every layer: %zu series total "
              "(%d solver, %d simulator, %d query/sweep)\n",
              snap.entries.size(), solver, simulator, query);
  if (solver == 0 || simulator == 0 || query == 0) {
    std::printf("ERROR: a layer is missing from the snapshot\n");
    return 1;
  }

  struct Dump {
    const char* suffix;
    std::string text;
  };
  const Dump dumps[] = {{".metrics.json", obs::to_json(snap)},
                        {".metrics.csv", obs::to_csv(snap)},
                        {".metrics.prom", obs::to_prometheus(snap)}};
  for (const Dump& d : dumps) {
    const std::string path = out + d.suffix;
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(d.text.data(), 1, d.text.size(), f);
      std::fclose(f);
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), d.text.size());
    }
  }
  const std::string trace_path = out + ".trace.json";
  if (obs::default_trace().write(trace_path)) {
    std::printf("wrote %s (%zu events) — open in chrome://tracing\n",
                trace_path.c_str(), obs::default_trace().size());
  }
  return 0;
}
