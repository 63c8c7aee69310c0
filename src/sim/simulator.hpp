// wormnet/sim/simulator.hpp
//
// Flit-level wormhole simulator.
//
// Model of execution
// ------------------
// Time advances in cycles; each directed channel has a one-flit latch (the
// wire plus the input buffer it feeds) and transfers at most one flit per
// cycle.  A worm owns the contiguous chain of channels between its tail and
// head flit; because the source feeds one flit per cycle whenever the worm
// advances, the in-flight flits always occupy a contiguous run of latches
// ending at the head — so a worm's state reduces to counters (allocated
// path, head latch index, flits injected/ejected) and each worm costs O(1)
// per cycle.  When the head blocks, nothing behind it moves: flits are
// "blocked in place", the defining wormhole behavior.
//
// Each cycle runs three phases:
//  1. arrivals  — open-loop message generation (or overload
//                 replenish); a message that reaches the front of its
//                 source queue registers a request for the injection
//                 channel;
//  2. allocate  — every output bundle with free channels grants its FCFS
//                 request queue; the fat-tree's two parent links form one
//                 two-server bundle, and a granted worm gets its randomly
//                 preferred link if free, otherwise the other (the paper's
//                 §3.1 adaptive rule);
//  3. advance   — every unblocked worm shifts one flit forward; heads
//                 arriving at a switch register next-hop requests (usable
//                 the following cycle: one cycle per hop), heads arriving
//                 at the destination begin draining at one flit per cycle
//                 (the paper's assumption 4); the channel under the tail is
//                 released as the tail passes.
//
// An uncontended worm of s_f flits over a D-channel path therefore has
// latency exactly D + s_f - 1, matching the model's zero-load limit.
// Channel hand-off costs one extra cycle (a freed channel is re-granted the
// next cycle), which is the switch-arbitration latency of a real router;
// the analytical model idealizes this away, and EXPERIMENTS.md quantifies
// the resulting model-optimism at high load.
//
// Virtual channels (lanes)
// ------------------------
// When the topology declares lane multiplicities > 1 (SimNetwork::max_lanes()
// > 1), each physical channel carries L independent one-flit lane latches:
// the allocation unit becomes a LANE (a worm holds one lane per channel of
// its path; a bundle's FCFS queue grants any free lane of any member link),
// while the physical link still transfers at most ONE flit per cycle shared
// across its lanes.  Bandwidth is arbitrated per cycle in round-robin order
// over the active worms (the starting worm rotates every cycle): a worm
// advances its whole pipeline one flit — claiming every physical link its
// flits would cross this cycle — or, if any of those links was already
// claimed by an earlier worm in this cycle's rotation, stalls in place for
// the cycle.  Lanes therefore do exactly what they do in hardware: a worm
// blocked further downstream no longer seals the only latch of each link it
// holds, so other worms slip past on the remaining lanes at the cost of
// sharing link bandwidth.  With every lane count at 1 the arbitration
// degenerates to exclusive ownership and the simulator runs the exact
// single-lane semantics above, bit-for-bit (tested against golden traces).
//
// Heterogeneous links and finite buffers
// --------------------------------------
// When the topology declares non-default link attributes
// (SimNetwork::has_link_features()), every run uses the bandwidth-arbitrated
// kernel above regardless of lane count, generalized per channel:
//  * bandwidth 1/k — the link accepts one flit every k cycles (the claim
//    table stores the last transfer cycle and refuses within the period);
//  * link latency ℓ — a head crossing the link stalls the worm ℓ extra
//    cycles (Worm::stall_until) before it can move again;
//  * buffer depth B — a lane accepts at most B consecutive flits at the
//    link's native rate, then refuses for one cycle (the credit round-trip),
//    capping a saturated lane at B flits per B·k + 1 cycles — the effective
//    bandwidth b·B/(B + b) the analytical model uses.
// With every attribute at its default the claim rule is bit-identical to
// the plain lane kernel, and networks that are ALSO single-lane never enter
// it at all, so golden-traced uniform runs are unchanged.
//
// Performance notes (the cycle kernel's contract)
// -----------------------------------------------
//  * Idle-cycle fast-forward: when the network is completely empty (no
//    active worm, no pending allocation) the run loop jumps straight to the
//    next arrival's cycle instead of spinning through no-op cycles.  The
//    jump is clamped so no termination check is skipped, making it
//    bit-invisible: every result field, including cycles_run, is identical
//    to the cycle-by-cycle run (SimConfig::disable_fast_forward exists to
//    prove exactly that, see test_sim_semantics.cpp).
//  * Zero-allocation steady state: all per-cycle containers (bundle request
//    queues, source queues, the dirty-bundle scratch list, worm paths, the
//    worm pool itself) retain their capacity across cycles, so once the run
//    reaches its concurrency high-water mark the cycle loop performs no
//    heap allocations at all (guarded by an operator-new counter in
//    tests/test_perf_guards.cpp).
#pragma once

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"

namespace wormnet::sim {

/// One wormhole simulation run over a SimNetwork.
///
/// Typical use:
///     SimNetwork net(topo);
///     Simulator s(net, cfg);
///     SimResult r = s.run();
///
/// For deterministic scenario tests, script messages explicitly; scripting
/// disables the stochastic source and tags every message:
///     s.add_message(/*cycle=*/0, /*src=*/0, /*dst=*/5);
class Simulator {
 public:
  Simulator(const SimNetwork& net, SimConfig cfg);

  /// Script one message (switches the run into scripted mode).
  void add_message(long cycle, int src, int dst);

  /// Execute the run to completion and return the collected metrics.
  /// Resumable: after advance() has consumed part (or all) of the run,
  /// run() finishes the remainder and returns the same result a single
  /// uninterrupted call would have produced, bit for bit.
  SimResult run();

  /// Instrumentation hook: advance the simulation by at most `cycles`
  /// further cycles (a fast-forward jump counts as the cycles it skips) or
  /// until the run terminates.  Returns true once terminated.  Exists so
  /// the allocation-guard test can warm the run up to steady state, sample
  /// the global allocation counter, and assert the remaining cycles
  /// allocate nothing; normal callers just use run().
  bool advance(long cycles);

  /// The metrics collected so far, finalized over the cycles actually
  /// executed.  After the run terminated this is exactly run()'s result;
  /// before that it is a truncated snapshot (SimResult::truncated set,
  /// completed false) — the partial answer SimEngine reports when a cell's
  /// cycle budget expires on a degraded run that will not terminate.
  SimResult partial_result() const;

  /// Multi-line dump of live state (active worms, held channels, pending
  /// requests) for debugging wedged runs and for the semantics tests.
  std::string debug_state() const;

 private:
  struct Worm {
    int src = -1;
    int dst = -1;
    int length = 0;
    long gen_time = 0;
    long inject_start = -1;
    long src_release = -1;
    std::vector<int> path;   // allocated LANE ids, source to head (lane id ==
                             // channel id when the network is single-lane)
    int head_pos = -1;       // index into path of the latch holding the head
    int injected = 0;        // flits that have left the source
    int ejected = 0;         // flits consumed at the destination
    int freed_upto = 0;      // path[i] released for all i < freed_upto
    long stall_until = -1;   // head link latency: no advance before this cycle
    long last_move = 0;      // cycle of the last grant/advance (fault mode:
                             // the stall-timeout clock)
    bool consuming = false;  // head is in the ejection latch
    bool waiting_alloc = false;
    bool tagged = false;
    bool tombstone = false;  // dropped while a bundle request was pending;
                             // the slot is recycled when grant() pops it
  };

  struct Request {
    int worm = -1;
    int preferred_channel = -1;
    // The route() candidate channels this worm may legally take (the bundle's
    // redundant links, minus any that make no survivor progress under faults).
    // The arbiter's adaptive fallback probes ONLY these; a healthy fat-tree's
    // candidate set is the whole bundle, so the paper's semantics are
    // unchanged there.
    std::array<int, 4> candidates{};
    int num_candidates = 0;
  };

  struct LaneState {
    int owner = -1;       // worm id or -1
    long grant_time = 0;  // cycle of the last grant (for busy accounting)
  };

  struct BundleState {
    int free_count = 0;  // free LANES across the bundle's member channels
    bool dirty = false;
    // Ring, not deque: steady-state push/pop must not touch the heap.
    util::RingQueue<Request> requests;
  };

  struct PendingMsg {
    long gen = 0;
    int dst = -1;
    bool tagged = false;
  };

  struct SourceState {
    util::RingQueue<PendingMsg> queue;
    bool head_registered = false;  // a message of this PE owns/awaits injection
  };

  struct ScriptedMsg {
    long cycle = 0;
    int src = -1;
    int dst = -1;
  };

  // -- lifecycle ----------------------------------------------------------
  int alloc_worm(int src, int dst, long gen, bool tagged);
  void register_injection(int worm_id, long cycle);
  void register_next_hop(int worm_id, int node, long cycle);
  void mark_dirty(int bundle_id);
  int find_free_lane(int channel_id) const;
  void grant(int bundle_id, long cycle);
  void release_lane(Worm& w, int lane_id, long cycle);
  void advance_worm(int worm_id, long cycle);
  void complete_worm(Worm& w, long cycle);

  /// Emit the delivered worm's lifecycle spans into *trace_ (caller checks).
  void trace_worm(const Worm& w, long cycle);
  void on_source_released(int proc, long cycle);
  bool in_window(long cycle) const;

  /// Atomically claim transfer capacity on every physical link the worm's
  /// flits would cross this cycle (lane mode only).  A link with flit
  /// period k (bandwidth 1/k) accepts a claim only k or more cycles after
  /// its previous one, and a lane with finite buffer depth B refuses the
  /// (B+1)-th consecutive native-rate flit — the one-cycle credit
  /// round-trip that caps a full-rate lane at B flits per B·k + 1 cycles.
  /// Returns false — claiming nothing — when any link or lane refuses.
  /// With uniform attributes (period 1, infinite depth) this degenerates to
  /// the original one-claim-per-cycle rule, bit for bit.
  bool claim_bandwidth(const Worm& w, long cycle);

  // -- fault injection (cfg_.fault_events) --------------------------------
  /// Apply every scripted link-state change due at or before `cycle`.  Down:
  /// both directed channels refuse bandwidth claims and their FREE lanes
  /// leave service (owner -2, bundle free_count decremented) so grant()'s
  /// free-lane invariant holds; held lanes stay with their (now stalling)
  /// worms and leave service as they release.  Up: out-of-service lanes
  /// rejoin their bundles.
  void apply_fault_events(long cycle);
  /// Drop every active worm that has not moved for fault_stall_timeout
  /// cycles: release its lanes, count it, tombstone a pending request.
  void check_fault_drops(long cycle);
  void drop_worm(int worm_id, long cycle);
  /// Destination draw with the faulted-topology guard: a sampled pair with
  /// no surviving path is counted in unroutable_messages and discarded
  /// (open-loop demand on dead pairs is NOT carried — matching the model's
  /// unroutable_fraction accounting).  Returns -1 for a discarded draw.
  int sample_destination(int src);
  /// Overload variant: redraw until a routable destination comes up (the
  /// closed loop must inject something); throws after 4096 discards.
  int sample_destination_overload(int src);

  // -- per-cycle phases ---------------------------------------------------
  void step_arrivals(long cycle);
  void phase_allocate(long cycle);
  /// The advance phase keeps two loops on purpose: each one's visit order
  /// is pinned by published numbers.  The single-lane loop walks active_ in
  /// place and swap-removes a completed worm mid-pass, so the moved worm is
  /// visited next — the order the seeded golden traces pin
  /// (VirtualChannelSim.SingleLaneSeededRunsBitIdenticalToGoldenTraces).
  /// The lane loop starts at a cursor that rotates every cycle, claims link
  /// bandwidth per worm and retires completed worms after the pass — the
  /// order the EXPERIMENTS.md lane tables pin.  One merged loop (rotation
  /// and claims in lane mode only, retirement after the pass) moves the
  /// fattree2-uniform golden latency mean from 28.9886 to 28.4893 and adds
  /// a steady-state heap allocation (AllocationGuard).
  void phase_advance(long cycle);        // dispatches on lane_mode_
  void phase_advance_lanes(long cycle);  // round-robin bandwidth arbitration

  /// Idle-cycle fast-forward target: the first future cycle at which
  /// anything can happen (next arrival or scripted message), clamped so no
  /// skipped cycle could have satisfied a termination check.  Precondition:
  /// the network is empty (active_ and dirty_bundles_ both empty) and this
  /// cycle's termination checks all declined.
  long idle_jump_target(long cycle) const;

  /// Post-loop result finalization (throughput, saturation verdict).
  void finalize_result(long final_cycle);

  const SimNetwork& net_;
  SimConfig cfg_;
  TrafficSource traffic_;
  util::Rng route_rng_;  // adaptive up-link preference draws

  // Hoisted run-loop constants (satellite of the perf overhaul: resolving
  // these through net_/topology() per event showed up in profiles).
  const int num_procs_;
  const int* inj_channel_;     // per-processor injection channel ids
  const bool single_lane_;     // max_lanes() == 1: lane id == channel id
  const bool link_features_;   // some channel has non-default attributes
  const bool fault_mode_;      // scripted fault events present
  const bool lane_mode_;       // multi-lane, link features OR fault mode:
                               // use the bandwidth-arbitrated advance kernel
  const bool fast_forward_;    // idle-cycle fast-forward enabled
  obs::TraceLog* const trace_; // opt-in worm-lifecycle trace (null = off):
                               // guarded emissions only, results never read
                               // it, so off is provably zero-overhead

  // Deque, not vector: alloc_worm() can run while advance_worm() holds a
  // reference into the container (source release triggers the next worm's
  // allocation), so element references must survive growth.
  std::deque<Worm> worms_;
  std::vector<int> free_worms_;
  std::vector<int> active_;  // worm ids with at least one allocated channel

  std::vector<LaneState> lane_state_;   // per lane (per channel when L == 1)
  std::vector<BundleState> bundle_state_;
  std::vector<int> dirty_bundles_;
  std::vector<int> alloc_scratch_;  // phase_allocate's swap buffer, reused
  std::vector<SourceState> sources_;

  // Lane mode only: per-physical-channel cycle stamp of the last bandwidth
  // claim and the rotating arbitration cursor.  The claim table is
  // epoch-free: a slot is "claimed" iff it equals the CURRENT cycle, so it
  // is never cleared between cycles — advancing the clock (including a
  // fast-forward jump, which only moves it further) invalidates every stale
  // stamp for free.
  std::vector<long> channel_claim_;
  std::uint64_t rr_cursor_ = 0;
  // Finite-buffer credit state (allocated only when some channel has a
  // finite depth): per lane, the cycle of the last flit accepted and the
  // length of the current native-rate streak.  A streak continues iff the
  // previous flit landed exactly one flit period ago; after depth B flits
  // the lane refuses once (the credit round-trip), breaking the streak.
  std::vector<long> lane_last_flit_;
  std::vector<int> lane_streak_;

  std::vector<ScriptedMsg> scripted_;
  std::size_t scripted_next_ = 0;
  bool scripted_mode_ = false;

  // Fault mode only: the events sorted by cycle, the application cursor and
  // the per-directed-channel down flag claim_bandwidth consults.
  std::vector<FaultEvent> fault_events_;
  std::size_t fault_next_ = 0;
  std::vector<char> link_down_;

  SimResult result_;
  std::int64_t tagged_total_ = 0;
  std::int64_t tagged_done_ = 0;
  long last_progress_ = 0;
  long cycle_ = 0;     // next cycle to execute (advance() resumes here)
  bool done_ = false;  // the run has terminated; result_ is final
  bool config_checked_ = false;  // deferred open-loop config checks ran
};

/// Convenience: simulate `topo` under `cfg` (builds a SimNetwork internally).
SimResult simulate(const topo::Topology& topo, const SimConfig& cfg);

/// Validate cfg.fault_events against `topo`: every endpoint in range and
/// connected, no processor-attached (injection/ejection) link, and the
/// event sequence consistent when replayed in cycle order (down only while
/// up, up only while down).  Empty string when fine.  Simulator
/// construction throws std::invalid_argument on a non-empty answer;
/// SimEngine checks eagerly on the calling thread for the same reason it
/// eagerly validates configs.
std::string check_fault_events(const topo::Topology& topo, const SimConfig& cfg);

}  // namespace wormnet::sim
