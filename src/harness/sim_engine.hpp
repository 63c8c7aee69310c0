// wormnet/harness/sim_engine.hpp
//
// The simulation twin of SweepEngine: a campaign runner that fans
// independent (topology, SimConfig) cells — and seed-replications within a
// cell — across the shared util::ThreadPool, with per-cell aggregation
// (mean / 95% CI across replications) and a shared-SimNetwork guarantee.
//
// Why an engine instead of a for-loop:
//  * every sim-heavy bench and the conformance suite used to run Simulator
//    instances strictly serially; the engine is the one place that owns the
//    fan-out, so a campaign's wall time scales with the core count;
//  * sim::SimNetwork is immutable after construction (see network.hpp's
//    contract), so the engine builds it ONCE per distinct topology and
//    shares it across every cell and worker that uses that topology —
//    at N = 1024 the network build is itself worth sharing;
//  * determinism is a hard contract, tested exactly like SweepEngine's:
//    a campaign's results are a pure function of the cell list.  Each
//    replication seeds its own Simulator with cfg.seed + rep, jobs share no
//    mutable state, every job writes only its own result slot, and
//    aggregation runs serially in cell/replication order afterwards — so
//    thread count and scheduling cannot change any bit of any result.
//
// Lifetime: cells reference their topologies by pointer; the pointed-to
// topologies must stay alive and UNMUTATED (including set_uniform_lanes)
// for the duration of run_cells().  Campaigns that vary lane counts build
// one topology object per lane configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "topo/topology.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::obs {
class Registry;
}

namespace wormnet::harness {

/// One campaign cell: a topology × configuration pair, replicated
/// `replications` times with seeds cfg.seed, cfg.seed + 1, …
struct SimCell {
  const topo::Topology* topology = nullptr;
  sim::SimConfig cfg;
  int replications = 1;
  std::string label;  ///< carried through to the result for reporting
  /// Per-replication cycle budget: 0 (default) runs to completion; > 0
  /// advances at most this many cycles and, if the run has not terminated
  /// by then, reports the partial metrics with SimResult::truncated set —
  /// the engine-level watchdog that turns a non-terminating degraded run
  /// into a classified cell outcome instead of a hung campaign.
  long cycle_budget = 0;
};

/// Burstiness axis for simulation campaigns: one cell per arrival process,
/// each a copy of `base` with cfg.arrival_process swapped in and labeled by
/// the process name (prefixed with base.label when set).  SimConfig carries
/// the spec, so the cells run through run_cells like any others — the
/// SweepEngine::sweep_burstiness twin for the simulator side.
std::vector<SimCell> burstiness_cells(
    const SimCell& base, const std::vector<arrivals::ArrivalSpec>& processes);

/// Mean and spread of one statistic across a cell's replications.
/// ci95 is the normal-approximation half-width 1.96·s/√n (NaN when n < 2,
/// 0 is never faked); with one replication `mean` is just that run's value.
struct Aggregate {
  int n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;
};

/// One cell's outcome: every replication's full SimResult (in seed order)
/// plus cross-replication aggregates of the headline statistics.
struct SimCellResult {
  std::string label;
  std::vector<sim::SimResult> runs;  ///< one per replication, seed order

  Aggregate latency;     ///< of per-run mean tagged latency (cycles)
  Aggregate queue_wait;  ///< of per-run mean injection wait (cycles)
  Aggregate throughput;  ///< of per-run delivered flits/cycle/PE

  bool all_completed = false;  ///< every replication completed
  bool any_saturated = false;  ///< at least one replication saturated
  bool any_truncated = false;  ///< some replication hit the cell's budget
};

/// Parallel deterministic simulation-campaign executor.
class SimEngine {
 public:
  struct Options {
    unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
    bool parallel = true;  ///< false: run on the calling thread, in order
  };

  SimEngine() : SimEngine(Options{}) {}
  explicit SimEngine(Options opts);
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Run the whole campaign; one result per cell, same order.  Results are
  /// bitwise-identical for every thread count (see the header comment).
  std::vector<SimCellResult> run_cells(const std::vector<SimCell>& cells);

  /// Convenience: run one cell (its replications still fan out).
  SimCellResult run_cell(const SimCell& cell);

  /// Number of worker threads backing parallel campaigns (1 when serial).
  unsigned threads() const;

  /// SimNetworks constructed across this engine's lifetime — observability
  /// for the shared-network guarantee (cells over one topology share one).
  std::uint64_t networks_built() const { return networks_built_; }

  /// Replications run across this engine's lifetime.
  std::uint64_t replications_run() const { return replications_run_; }

  /// Publish networks-built / cells / replications / thread-count gauges
  /// into `reg` under labels "engine=<label>" (one-shot; idempotent).
  void publish_metrics(obs::Registry& reg, std::string_view label) const;

 private:
  Options opts_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when serial
  std::uint64_t networks_built_ = 0;
  std::uint64_t cells_run_ = 0;
  std::uint64_t replications_run_ = 0;
};

}  // namespace wormnet::harness
