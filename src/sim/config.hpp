// wormnet/sim/config.hpp
//
// Simulation parameters.  Defaults mirror the paper's experimental setup:
// Poisson message generation, uniformly random destinations, fixed worm
// length, FCFS channel arbitration, destinations that drain one flit per
// cycle.
//
// Destination selection is a traffic::TrafficSpec — the same pattern object
// the analytical builder (core::build_traffic_model) consumes, so simulator
// and model are driven by one description of the workload by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "traffic/traffic_spec.hpp"

namespace wormnet::obs {
class TraceLog;
}

namespace wormnet::sim {

/// Message generation MODE at each processor.  Poisson (the default) is the
/// open-loop mode whose inter-arrival law is SimConfig::arrival_process
/// (Bernoulli arrivals are arrivals::ArrivalSpec::bernoulli() there);
/// Overload is the closed-loop saturation probe (no arrival process at all).
enum class ArrivalProcess {
  Poisson,    ///< open loop, gaps drawn from SimConfig::arrival_process
  Overload,   ///< source always backlogged: measures saturation throughput
};

/// One scripted link-state change: at `cycle`, the undirected link at
/// (node, port) — BOTH directed channels — leaves or re-enters service.
/// Worms holding lanes on a downed link stall in place (wormhole semantics:
/// nothing behind the head moves) and are dropped with their source queue's
/// statistics intact once they sit still for SimConfig::fault_stall_timeout
/// cycles; freed lanes of a downed link are held out of service until the
/// matching up event.  Routing stays the topology's route() — the adaptive
/// in-bundle fallback is the only rerouting, as in a router with static
/// tables — so scripted faults measure transient degradation, while
/// steady-state degraded routing is simulated by building the SimNetwork
/// from a topo::FaultedTopology instead.
struct FaultEvent {
  long cycle = 0;   ///< first cycle the new link state is in force
  int node = -1;    ///< one endpoint of the link (a switch, not a processor)
  int port = -1;    ///< port at `node`
  bool up = false;  ///< false: link goes down; true: link comes back up
};

/// One simulation run's configuration.
struct SimConfig {
  /// Offered load in flits/cycle/processor (Fig. 3's x-axis); the message
  /// rate is λ₀ = load_flits / worm_flits.  Ignored under Overload.
  double load_flits = 0.01;

  /// Worm length s_f in flits.
  int worm_flits = 16;

  /// Arrival mode (see the enum above).
  ArrivalProcess arrivals = ArrivalProcess::Poisson;

  /// Inter-arrival law for open-loop runs (arrivals == Poisson): any
  /// arrivals::ArrivalSpec — Poisson, deterministic, compound-Poisson
  /// batches, MMPP-2/ON-OFF, or trace-driven.  The SAME spec object feeds
  /// the analytical model (ArrivalSpec::ca2 →
  /// core::GeneralModel::set_injection_ca2), so simulator and model agree
  /// on the workload's burstiness by construction.  The default keeps every
  /// existing seeded run bit-identical (assumption 1).
  arrivals::ArrivalSpec arrival_process = arrivals::ArrivalSpec::poisson();

  /// Destination distribution (the paper's assumption 1 by default).  Every
  /// source must carry full injection weight: the simulator generates
  /// arrivals at rate λ₀ at every PE.
  traffic::TrafficSpec traffic = traffic::TrafficSpec::uniform();

  /// RNG seed; two runs with equal config are bit-identical.
  std::uint64_t seed = 1;

  /// Cycles simulated before measurement starts (queue warm-up).
  long warmup_cycles = 10'000;

  /// Length of the measurement window: messages GENERATED inside
  /// [warmup, warmup + measure_cycles) are tagged and their latencies
  /// recorded; throughput counts deliveries inside the same window.
  long measure_cycles = 30'000;

  /// Hard stop.  If tagged messages remain undelivered here, the run is
  /// reported as saturated (offered load exceeded capacity).
  long max_cycles = 400'000;

  /// Abort threshold for the progress watchdog: if no flit moves and no
  /// channel is granted for this many consecutive cycles while worms are
  /// waiting, the simulator aborts — with minimal routing on acyclic
  /// channel-dependency networks this indicates a simulator bug, not a
  /// protocol deadlock.
  long watchdog_cycles = 100'000;

  /// Scripted link-state changes, applied deterministically at their cycles
  /// (sorted internally; equal-cycle events apply in list order).  Empty —
  /// the default — leaves every seeded run bit-identical.  Endpoint validity
  /// is checked against the topology at Simulator construction (see
  /// check_fault_events); injection/ejection links cannot fail.
  std::vector<FaultEvent> fault_events;

  /// Fault-mode drop threshold: an in-flight worm that has not advanced for
  /// this many consecutive cycles is dropped (its lanes released, counted in
  /// SimResult::dropped_worms/dropped_flits).  Generous default so only
  /// fault-wedged worms trip it; must stay below watchdog_cycles so drops
  /// (which count as progress) always preempt the watchdog abort.  Only
  /// consulted when fault_events is non-empty.
  long fault_stall_timeout = 10'000;

  /// Debug switch: force the simulator to execute every idle cycle
  /// explicitly instead of fast-forwarding to the next arrival when the
  /// network is empty.  Fast-forward is semantically invisible — results are
  /// bit-identical either way (tested in test_sim_semantics.cpp) — so this
  /// exists only to prove that claim and to time the optimization.
  bool disable_fast_forward = false;

  /// Collect per-channel grant/busy counters (cheap; a few MB at N=1024).
  bool channel_stats = true;

  /// Opt-in worm-lifecycle event trace (obs/trace.hpp): each delivered
  /// worm emits queue/inject/flight spans (Eq. 1's W_inj / x_inj / flight
  /// decomposition, cycle numbers as the µs timebase, tid = source PE) and
  /// each fault drop an instant event.  Null — the default — is provably
  /// zero-overhead: the only cost is an untaken branch per completion, no
  /// result field ever reads the trace, and seeded goldens stay
  /// bit-identical (tested in test_obs.cpp).  The log must outlive the run.
  obs::TraceLog* trace = nullptr;

  /// Collect the full latency distribution of tagged messages (histogram
  /// with `histogram_bins` bins over [0, histogram_max) cycles) so results
  /// can report tail percentiles, not just the mean the paper plots.
  bool latency_histogram = false;
  double histogram_max = 4096.0;
  int histogram_bins = 512;

  /// Empty string when the configuration is usable, else a human-readable
  /// explanation of the first problem found.  Simulator construction calls
  /// this and throws std::invalid_argument on failure — a negative load,
  /// zero-flit worm or bad arrival spec fails fast instead of silently
  /// producing garbage.  (Zero warmup is additionally rejected at run time
  /// for open-loop measurement runs — scripted runs legitimately use it.)
  std::string validate() const {
    if (load_flits < 0.0) return "sim config: negative load_flits";
    if (worm_flits < 1) return "sim config: worm_flits must be >= 1 flit";
    if (warmup_cycles < 0) return "sim config: negative warmup_cycles";
    if (measure_cycles <= 0) return "sim config: measure_cycles must be > 0";
    if (max_cycles <= 0) return "sim config: max_cycles must be > 0";
    if (watchdog_cycles <= 0) return "sim config: watchdog_cycles must be > 0";
    if (latency_histogram && (histogram_bins < 1 || !(histogram_max > 0.0)))
      return "sim config: latency_histogram needs bins >= 1 and max > 0";
    if (fault_stall_timeout < 1)
      return "sim config: fault_stall_timeout must be >= 1 cycle";
    if (!fault_events.empty() && fault_stall_timeout >= watchdog_cycles)
      return "sim config: fault_stall_timeout must be < watchdog_cycles so "
             "timeout drops preempt the watchdog abort";
    for (const FaultEvent& e : fault_events)
      if (e.cycle < 0) return "sim config: negative fault event cycle";
    if (const std::string problem = arrival_process.check(); !problem.empty())
      return "sim config: " + problem;
    return "";
  }

  /// The zero-warmup rule for open-loop MEASUREMENT runs, kept out of
  /// validate() because scripted runs legitimately use warmup 0 and only
  /// the Simulator knows (at run time) whether a run is scripted.  Both
  /// enforcement sites — Simulator::advance for lone runs and
  /// SimEngine::run_cells for campaigns (eagerly; campaign cells are never
  /// scripted) — call this ONE rule.  Empty string when fine.
  std::string validate_open_loop() const {
    if (arrivals != ArrivalProcess::Overload && load_flits > 0.0 &&
        warmup_cycles == 0) {
      return "sim config: zero warmup_cycles on an open-loop measurement "
             "run biases the latency window — warm the queues up first "
             "(warmup_cycles >= 1)";
    }
    return "";
  }
};

}  // namespace wormnet::sim
