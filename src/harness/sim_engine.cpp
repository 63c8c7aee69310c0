#include "harness/sim_engine.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace wormnet::harness {

namespace {

/// Aggregate a sample per replication, in replication order (the order is
/// fixed, so the Welford accumulation is deterministic).
template <typename GetSample>
Aggregate aggregate_runs(const std::vector<sim::SimResult>& runs,
                         const GetSample& sample_of) {
  util::RunningStats stats;
  for (const sim::SimResult& r : runs) {
    const double v = sample_of(r);
    if (std::isfinite(v)) stats.add(v);
  }
  Aggregate a;
  a.n = static_cast<int>(stats.count());
  a.mean = stats.mean();
  a.stddev = stats.stddev();
  a.ci95 = a.n >= 2 ? 1.96 * stats.sem() : std::numeric_limits<double>::quiet_NaN();
  return a;
}

void fill_aggregates(SimCellResult& out) {
  out.latency = aggregate_runs(out.runs, [](const sim::SimResult& r) {
    return r.latency.count() > 0 ? r.latency.mean()
                                 : std::numeric_limits<double>::quiet_NaN();
  });
  out.queue_wait = aggregate_runs(out.runs, [](const sim::SimResult& r) {
    return r.queue_wait.count() > 0 ? r.queue_wait.mean()
                                    : std::numeric_limits<double>::quiet_NaN();
  });
  out.throughput = aggregate_runs(out.runs, [](const sim::SimResult& r) {
    return r.throughput_flits_per_pe;
  });
  out.all_completed = !out.runs.empty();
  out.any_saturated = false;
  out.any_truncated = false;
  for (const sim::SimResult& r : out.runs) {
    if (!r.completed) out.all_completed = false;
    if (r.saturated) out.any_saturated = true;
    if (r.truncated) out.any_truncated = true;
  }
}

}  // namespace

SimEngine::SimEngine(Options opts) : opts_(opts) {
  if (opts_.parallel) pool_ = std::make_unique<util::ThreadPool>(opts_.threads);
}

SimEngine::~SimEngine() = default;

unsigned SimEngine::threads() const { return pool_ ? pool_->size() : 1u; }

std::vector<SimCellResult> SimEngine::run_cells(const std::vector<SimCell>& cells) {
  WORMNET_SPAN("sim_campaign", "campaign");
  // One immutable SimNetwork per DISTINCT topology, built serially up front
  // (construction order is the cells' order, so the build is deterministic
  // too); workers only ever read them — the immutability contract of
  // sim::SimNetwork makes that safe without locks.
  std::unordered_map<const topo::Topology*, std::unique_ptr<sim::SimNetwork>> nets;
  for (const SimCell& cell : cells) {
    WORMNET_EXPECTS(cell.topology != nullptr);
    WORMNET_EXPECTS(cell.replications >= 1);
    // Fail fast HERE, on the calling thread: a config rejected inside a
    // pool worker would escape ThreadPool::worker_loop and std::terminate
    // the process instead of surfacing as a catchable error.  Campaign
    // cells are never scripted, so the zero-warmup open-loop rule the
    // Simulator defers until run() is also decidable now.
    if (std::string problem = cell.cfg.validate(); !problem.empty()) {
      throw std::invalid_argument("wormnet: campaign cell '" + cell.label +
                                  "': " + problem);
    }
    if (std::string problem = cell.cfg.validate_open_loop(); !problem.empty()) {
      throw std::invalid_argument("wormnet: campaign cell '" + cell.label +
                                  "': " + problem);
    }
    // Fault events reference the topology, so only the engine (not
    // SimConfig::validate) can check them — and it must, eagerly, for the
    // same reason as above.
    if (std::string problem = sim::check_fault_events(*cell.topology, cell.cfg);
        !problem.empty()) {
      throw std::invalid_argument("wormnet: campaign cell '" + cell.label +
                                  "': " + problem);
    }
    WORMNET_EXPECTS(cell.cycle_budget >= 0);
    auto it = nets.find(cell.topology);
    if (it == nets.end()) {
      nets.emplace(cell.topology,
                   std::make_unique<sim::SimNetwork>(*cell.topology));
      ++networks_built_;
    }
  }

  std::vector<SimCellResult> results(cells.size());
  struct Job {
    std::size_t cell;
    int rep;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results[c].label = cells[c].label;
    results[c].runs.resize(static_cast<std::size_t>(cells[c].replications));
    for (int r = 0; r < cells[c].replications; ++r) jobs.push_back({c, r});
  }

  // Fan the (cell, replication) jobs out.  Each job is a pure function of
  // its cell's config and replication index (seed = cfg.seed + rep) and
  // writes only its own pre-sized slot, so the schedule cannot change any
  // result bit — the same argument as SweepEngine's, tested the same way.
  const auto run_job = [&](std::int64_t j) {
    const Job& job = jobs[static_cast<std::size_t>(j)];
    const SimCell& cell = cells[job.cell];
    sim::SimConfig cfg = cell.cfg;
    cfg.seed += static_cast<std::uint64_t>(job.rep);
    sim::Simulator simulator(*nets.at(cell.topology), cfg);
    sim::SimResult& slot = results[job.cell].runs[static_cast<std::size_t>(job.rep)];
    if (cell.cycle_budget > 0) {
      // Engine-level watchdog: a run that outlives its budget is reported
      // truncated with whatever it measured, instead of wedging the worker.
      simulator.advance(cell.cycle_budget);
      slot = simulator.partial_result();
    } else {
      slot = simulator.run();
    }
  };
  if (pool_ && jobs.size() > 1) {
    util::parallel_for(*pool_, static_cast<std::int64_t>(jobs.size()), run_job);
  } else {
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(jobs.size()); ++j)
      run_job(j);
  }

  // Aggregate serially, in cell order.
  for (SimCellResult& r : results) fill_aggregates(r);
  cells_run_ += cells.size();
  replications_run_ += jobs.size();
  return results;
}

void SimEngine::publish_metrics(obs::Registry& reg,
                                std::string_view label) const {
  std::string l = "engine=";
  l += label;
  reg.gauge("wormnet_sim_networks_built", l)
      .set(static_cast<double>(networks_built_));
  reg.gauge("wormnet_sim_cells_run", l).set(static_cast<double>(cells_run_));
  reg.gauge("wormnet_sim_replications_run", l)
      .set(static_cast<double>(replications_run_));
  reg.gauge("wormnet_sim_threads", l).set(static_cast<double>(threads()));
}

SimCellResult SimEngine::run_cell(const SimCell& cell) {
  std::vector<SimCellResult> results = run_cells({cell});
  return std::move(results.front());
}

}  // namespace wormnet::harness
