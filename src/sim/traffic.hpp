// wormnet/sim/traffic.hpp
//
// Message generation.  Each processor owns an independent RNG stream (keyed
// by seed and processor id, so results do not depend on event interleaving)
// and produces arrivals either
//  * open-loop — inter-arrival gaps drawn from an arrivals::ArrivalSpec at
//                rate λ₀ (Poisson is the paper's assumption 1 and samples
//                bit-identically to the pre-subsystem code; Bernoulli,
//                deterministic, batch, MMPP-2 and trace gaps share the same
//                machinery), arrivals in continuous time, usable at the
//                next cycle boundary; or
//  * Overload  — a fresh message the moment the source drains (closed-loop
//                saturation probe; no arrival process at all).
//
// Destinations are drawn from a traffic::TrafficSpec and gaps from an
// arrivals::ArrivalSpec — the same objects the analytical model consumes
// (route enumeration and C_a² propagation respectively), so "what the
// simulator does" and "what the model assumes" cannot drift apart.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "sim/config.hpp"
#include "traffic/traffic_spec.hpp"
#include "util/rng.hpp"

namespace wormnet::sim {

/// One pending arrival event.
struct Arrival {
  long cycle = 0;  ///< first cycle the message exists
  int proc = 0;    ///< generating processor
};

/// Generates the per-processor arrival sequence in global cycle order.
class TrafficSource {
 public:
  /// `lambda0` is messages/cycle/processor.  For Overload the rate is
  /// ignored; next_arrival() never fires and callers use make_destination()
  /// plus their own replenish logic.  `spec` must pass check() for
  /// `num_processors` and give every source full injection weight (the
  /// stochastic arrival processes drive every PE at λ₀).  `arrival` is the
  /// inter-arrival law of the open-loop (Poisson) mode; its Poisson default
  /// draws exactly the legacy sequence, keeping all seeded goldens
  /// bit-identical.
  TrafficSource(int num_processors, double lambda0, ArrivalProcess process,
                std::uint64_t seed,
                traffic::TrafficSpec spec = traffic::TrafficSpec::uniform(),
                arrivals::ArrivalSpec arrival = arrivals::ArrivalSpec::poisson());

  /// True if an arrival is due at or before `cycle`.
  bool has_arrival(long cycle) const;

  /// Pop the earliest due arrival (precondition: has_arrival(cycle)).
  Arrival pop_arrival(long cycle);

  /// Destination != src for a message from `src`, drawn from the spec's
  /// distribution using the source's stream.
  int make_destination(int src);

  /// Continuous time of the earliest scheduled arrival, +infinity when no
  /// arrival is scheduled (Overload sources, or λ₀ = 0).  Pure peek: the
  /// simulator's idle-cycle fast-forward jumps to ceil() of this value.
  double next_arrival_time() const;

  /// The destination distribution in force.
  const traffic::TrafficSpec& spec() const { return spec_; }

  /// The inter-arrival law in force (meaningless under Overload).
  const arrivals::ArrivalSpec& arrival_process() const { return arrival_; }

 private:
  void schedule_next(int proc, double from_time);

  int num_procs_;
  double lambda0_;
  ArrivalProcess process_;
  traffic::TrafficSpec spec_;
  arrivals::ArrivalSpec arrival_;
  std::vector<util::Rng> rng_;          // per processor
  std::vector<arrivals::ArrivalState> arrival_state_;  // per processor
  std::vector<double> next_time_;       // per processor, continuous
  // Min-heap of (time, proc) so only due processors are touched per cycle.
  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap_;
};

}  // namespace wormnet::sim
