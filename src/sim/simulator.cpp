#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::sim {

namespace {

/// Fail-fast configuration gate: a negative load, zero-flit worm or broken
/// arrival spec throws a clear std::invalid_argument instead of silently
/// misbehaving (or aborting through a bare contract macro).
SimConfig validated(SimConfig cfg) {
  if (const std::string problem = cfg.validate(); !problem.empty()) {
    throw std::invalid_argument("wormnet: " + problem);
  }
  return cfg;
}

}  // namespace

Simulator::Simulator(const SimNetwork& net, SimConfig cfg)
    : net_(net),
      cfg_(validated(std::move(cfg))),
      traffic_(net.topology().num_processors(),
               cfg_.load_flits / static_cast<double>(cfg_.worm_flits),
               cfg_.arrivals, cfg_.seed, cfg_.traffic, cfg_.arrival_process),
      route_rng_(util::Rng::stream(cfg_.seed, 0xADA9711CULL)),
      num_procs_(net.topology().num_processors()),
      inj_channel_(net.injection_channels().data()),
      single_lane_(net.max_lanes() == 1),
      link_features_(net.has_link_features()),
      fault_mode_(!cfg_.fault_events.empty()),
      // Fault mode forces the bandwidth-arbitrated kernel: a downed link is
      // just a link that refuses every claim, so one claim-time check covers
      // stalling, and healthy runs (no events) keep their exact kernel.
      lane_mode_(net.max_lanes() > 1 || net.has_link_features() || fault_mode_),
      // Overload sources are never idle after cycle 0, so fast-forward has
      // nothing to skip there; gate it off entirely for clarity.
      fast_forward_(!cfg_.disable_fast_forward &&
                    cfg_.arrivals != ArrivalProcess::Overload),
      trace_(cfg_.trace) {
  if (cfg_.latency_histogram) {
    result_.latency_hist.emplace(0.0, cfg_.histogram_max, cfg_.histogram_bins);
  }
  lane_state_.assign(static_cast<std::size_t>(net.num_lanes()), {});
  // A bundle's grant capacity: every lane of every member channel.
  bundle_state_.assign(static_cast<std::size_t>(net.num_bundles()), {});
  for (int ch = 0; ch < net.num_channels(); ++ch) {
    bundle_state_[static_cast<std::size_t>(net.channel(ch).bundle)].free_count +=
        net.channel_lanes(ch);
  }
  // Statically degraded topologies (a FaultedTopology with no scripted
  // events): dead links still enumerate as channels, so retire their lanes
  // up front — the routing never picks them, but grant()'s same-bundle
  // fallback otherwise could, marching a worm over a failed link.
  for (int ch = 0; ch < net.num_channels(); ++ch) {
    const topo::DirectedChannel& dc = net.channels().at(ch);
    if (net.topology().link_ok(dc.src_node, dc.src_port)) continue;
    const int bundle = net.channel(ch).bundle;
    for (int lane = net.lane_begin(ch); lane < net.lane_begin(ch + 1); ++lane) {
      lane_state_[static_cast<std::size_t>(lane)].owner = -2;
      --bundle_state_[static_cast<std::size_t>(bundle)].free_count;
    }
  }
  sources_.assign(static_cast<std::size_t>(net.topology().num_processors()), {});
  if (lane_mode_)
    channel_claim_.assign(static_cast<std::size_t>(net.num_channels()), -1);
  if (link_features_) {
    bool finite_depth = false;
    for (int ch = 0; ch < net.num_channels() && !finite_depth; ++ch)
      finite_depth = net.channel_buffer_depth(ch) != util::kInfiniteBufferDepth;
    if (finite_depth) {
      // "Never": far enough back that last == cycle - period can't hold.
      lane_last_flit_.assign(static_cast<std::size_t>(net.num_lanes()),
                             std::numeric_limits<long>::min() / 2);
      lane_streak_.assign(static_cast<std::size_t>(net.num_lanes()), 0);
    }
  }
  if (fault_mode_) {
    if (const std::string problem = check_fault_events(net.topology(), cfg_);
        !problem.empty()) {
      throw std::invalid_argument("wormnet: " + problem);
    }
    fault_events_ = cfg_.fault_events;
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.cycle < b.cycle;
                     });
    link_down_.assign(static_cast<std::size_t>(net.num_channels()), 0);
  }
  if (cfg_.channel_stats)
    result_.channels.assign(static_cast<std::size_t>(net.num_channels()), {});
}

void Simulator::add_message(long cycle, int src, int dst) {
  WORMNET_EXPECTS(cycle >= 0);
  WORMNET_EXPECTS(src >= 0 && src < net_.topology().num_processors());
  WORMNET_EXPECTS(dst >= 0 && dst < net_.topology().num_processors());
  WORMNET_EXPECTS(src != dst);
  scripted_.push_back({cycle, src, dst});
  scripted_mode_ = true;
}

bool Simulator::in_window(long cycle) const {
  return cycle >= cfg_.warmup_cycles &&
         cycle < cfg_.warmup_cycles + cfg_.measure_cycles;
}

int Simulator::alloc_worm(int src, int dst, long gen, bool tagged) {
  int id;
  if (!free_worms_.empty()) {
    id = free_worms_.back();
    free_worms_.pop_back();
  } else {
    id = static_cast<int>(worms_.size());
    worms_.emplace_back();
    worms_.back().path.reserve(24);
  }
  Worm& w = worms_[static_cast<std::size_t>(id)];
  w.src = src;
  w.dst = dst;
  w.length = cfg_.worm_flits;
  w.gen_time = gen;
  w.inject_start = -1;
  w.src_release = -1;
  w.path.clear();
  w.head_pos = -1;
  w.injected = 0;
  w.ejected = 0;
  w.freed_upto = 0;
  w.stall_until = -1;
  w.last_move = gen;
  w.consuming = false;
  w.waiting_alloc = false;
  w.tagged = tagged;
  w.tombstone = false;
  return id;
}

void Simulator::mark_dirty(int bundle_id) {
  BundleState& b = bundle_state_[static_cast<std::size_t>(bundle_id)];
  if (!b.dirty) {
    b.dirty = true;
    dirty_bundles_.push_back(bundle_id);
  }
}

void Simulator::register_injection(int worm_id, long cycle) {
  (void)cycle;
  Worm& w = worms_[static_cast<std::size_t>(worm_id)];
  const int inj = inj_channel_[w.src];
  const int bundle = net_.channel(inj).bundle;
  Request req{worm_id, inj};
  req.candidates[0] = inj;
  req.num_candidates = 1;
  bundle_state_[static_cast<std::size_t>(bundle)].requests.push_back(req);
  w.waiting_alloc = true;
  mark_dirty(bundle);
}

void Simulator::register_next_hop(int worm_id, int node, long cycle) {
  (void)cycle;
  Worm& w = worms_[static_cast<std::size_t>(worm_id)];
  const topo::Topology& topo = net_.topology();
  const topo::RouteOptions opts = topo.route(node, w.dst);
  WORMNET_ENSURES(opts.size() >= 1);
  // The paper's adaptive rule: pick one candidate at random as the preferred
  // link; the arbiter falls back to any other free link in the same bundle.
  int pick = 0;
  if (opts.size() > 1)
    pick = static_cast<int>(route_rng_.uniform_int(static_cast<std::uint64_t>(opts.size())));
  Request req{worm_id, net_.channels().from(node, opts[pick])};
  for (int i = 0; i < opts.size(); ++i)
    req.candidates[static_cast<std::size_t>(i)] = net_.channels().from(node, opts[i]);
  req.num_candidates = opts.size();
  // All route candidates must share one bundle (they are the redundant links
  // the multi-server queue models).
  const int bundle = net_.channel(req.candidates[0]).bundle;
  for (int i = 1; i < opts.size(); ++i) {
    const int ch = req.candidates[static_cast<std::size_t>(i)];
    WORMNET_ENSURES(net_.channel(ch).bundle == bundle);
  }
  bundle_state_[static_cast<std::size_t>(bundle)].requests.push_back(req);
  w.waiting_alloc = true;
  mark_dirty(bundle);
}

int Simulator::find_free_lane(int channel_id) const {
  if (single_lane_) {
    // Lane id == channel id: one latch per channel, no range scan — the
    // common case of grant()'s preferred-link probe stays O(1).
    return lane_state_[static_cast<std::size_t>(channel_id)].owner == -1
               ? channel_id
               : -1;
  }
  const int end = net_.lane_begin(channel_id + 1);
  for (int lane = net_.lane_begin(channel_id); lane < end; ++lane) {
    if (lane_state_[static_cast<std::size_t>(lane)].owner == -1) return lane;
  }
  return -1;
}

void Simulator::grant(int bundle_id, long cycle) {
  BundleState& bs = bundle_state_[static_cast<std::size_t>(bundle_id)];
  // One pass over the queued requests: a request whose candidate links are
  // all busy re-queues (in order) rather than blocking the ones behind it —
  // under faults a bundle can hold a free lane only on a link some worm is
  // not allowed to take.
  std::size_t pending = bs.requests.size();
  while (bs.free_count > 0 && pending-- > 0) {
    const Request req = bs.requests.front();
    bs.requests.pop_front();
    Worm& w = worms_[static_cast<std::size_t>(req.worm)];
    if (w.tombstone) {
      // Dropped by the fault-stall timeout while this request was queued;
      // the slot was held back so a recycled id could never be granted a
      // lane it no longer wants.  Recycle it now.
      w.tombstone = false;
      free_worms_.push_back(req.worm);
      continue;
    }
    // A free lane on the preferred link, else the first free lane on any
    // other CANDIDATE link (the paper's adaptive fallback to the redundant
    // link, restricted to links that still reach the destination).
    int lane = find_free_lane(req.preferred_channel);
    for (int i = 0; i < req.num_candidates && lane == -1; ++i)
      lane = find_free_lane(req.candidates[static_cast<std::size_t>(i)]);
    if (lane == -1) {
      bs.requests.push_back(req);  // retried at the bundle's next release
      continue;
    }
    LaneState& ls = lane_state_[static_cast<std::size_t>(lane)];
    ls.owner = req.worm;
    ls.grant_time = cycle;
    // A re-granted lane's buffer drained when the previous tail passed:
    // the new worm starts with full credit.
    if (!lane_streak_.empty()) lane_streak_[static_cast<std::size_t>(lane)] = 0;
    --bs.free_count;
    w.path.push_back(lane);
    w.waiting_alloc = false;
    w.last_move = cycle;
    if (w.path.size() == 1) {
      w.inject_start = cycle;
      active_.push_back(req.worm);
    }
    last_progress_ = cycle;
  }
}

void Simulator::release_lane(Worm& w, int lane_id, long cycle) {
  LaneState& ls = lane_state_[static_cast<std::size_t>(lane_id)];
  WORMNET_ENSURES(ls.owner != -1);
  const int channel_id = net_.lane_channel(lane_id);
  if (!result_.channels.empty()) {
    // Per-PHYSICAL-channel counters; with L > 1 lanes busy_cycles counts
    // lane-held cycles, so overlapping holds can sum past the window length.
    ChannelStat& st = result_.channels[static_cast<std::size_t>(channel_id)];
    const long w_lo = cfg_.warmup_cycles;
    const long w_hi = cfg_.warmup_cycles + cfg_.measure_cycles;
    const long lo = std::max(ls.grant_time, w_lo);
    const long hi = std::min(cycle, w_hi);
    if (hi > lo) st.busy_cycles += hi - lo;
    if (ls.grant_time >= w_lo && ls.grant_time < w_hi) {
      ++st.worms;
      st.flits += w.length;
    }
  }
  if (fault_mode_ && link_down_[static_cast<std::size_t>(channel_id)]) {
    // The link went down while this worm held the lane: hold it out of
    // service (owner -2, not counted free) until the matching up event.
    ls.owner = -2;
  } else {
    ls.owner = -1;
    const int bundle = net_.channel(channel_id).bundle;
    ++bundle_state_[static_cast<std::size_t>(bundle)].free_count;
    mark_dirty(bundle);
  }
  if (channel_id == inj_channel_[w.src]) {
    w.src_release = cycle;
    on_source_released(w.src, cycle);
  }
}

void Simulator::on_source_released(int proc, long cycle) {
  SourceState& s = sources_[static_cast<std::size_t>(proc)];
  if (cfg_.arrivals == ArrivalProcess::Overload && !scripted_mode_) {
    const int dst = sample_destination_overload(proc);
    const int id = alloc_worm(proc, dst, cycle, false);
    register_injection(id, cycle);
    return;
  }
  if (!s.queue.empty()) {
    const PendingMsg m = s.queue.front();
    s.queue.pop_front();
    const int id = alloc_worm(proc, m.dst, m.gen, m.tagged);
    register_injection(id, cycle);
  } else {
    s.head_registered = false;
  }
}

void Simulator::complete_worm(Worm& w, long cycle) {
  if (w.tagged) {
    result_.latency.add(static_cast<double>(cycle - w.gen_time));
    if (result_.latency_hist)
      result_.latency_hist->add(static_cast<double>(cycle - w.gen_time));
    result_.queue_wait.add(static_cast<double>(w.inject_start - w.gen_time));
    result_.inj_service.add(static_cast<double>(w.src_release - w.inject_start));
    result_.distance.add(static_cast<double>(w.path.size()));
    ++tagged_done_;
  }
  if (in_window(cycle)) {
    ++result_.delivered_messages;
    result_.delivered_flits += w.length;
  }
  if (trace_) trace_worm(w, cycle);
}

void Simulator::trace_worm(const Worm& w, long cycle) {
  // Eq. 1's decomposition as nested spans on the cycle timebase (pid 2,
  // tid = source PE): queue = W_inj, inject = x_inj, flight = the rest.
  const std::string name =
      "worm " + std::to_string(w.src) + "->" + std::to_string(w.dst);
  const auto tid = static_cast<std::uint32_t>(w.src);
  trace_->complete(name, "worm", w.gen_time, cycle - w.gen_time, tid, 2);
  if (w.inject_start >= w.gen_time)
    trace_->complete(name + " queue", "worm.queue", w.gen_time,
                     w.inject_start - w.gen_time, tid, 2);
  if (w.src_release >= w.inject_start && w.inject_start >= 0)
    trace_->complete(name + " inject", "worm.inject", w.inject_start,
                     w.src_release - w.inject_start, tid, 2);
  if (w.src_release >= 0 && cycle >= w.src_release)
    trace_->complete(name + " flight", "worm.flight", w.src_release,
                     cycle - w.src_release, tid, 2);
}

void Simulator::advance_worm(int worm_id, long cycle) {
  Worm& w = worms_[static_cast<std::size_t>(worm_id)];
  if (w.consuming) {
    ++w.ejected;
  } else if (w.head_pos + 1 < static_cast<int>(w.path.size())) {
    ++w.head_pos;
    const int head_ch =
        net_.lane_channel(w.path[static_cast<std::size_t>(w.head_pos)]);
    const ChannelInfo& ci = net_.channel(head_ch);
    if (link_features_) {
      // Extra head-traversal latency of the link just entered: the whole
      // worm pipeline holds for ℓ cycles (phase_advance_lanes skips it).
      const int lat = net_.channel_link_latency(head_ch);
      if (lat > 0) w.stall_until = cycle + lat;
    }
    if (ci.dst_is_processor) {
      // Routing delivered the head to its destination PE; draining begins
      // next cycle (assumption 4: one flit per cycle, never blocked).
      WORMNET_ENSURES(ci.dst_node == w.dst);
      w.consuming = true;
    } else {
      register_next_hop(worm_id, ci.dst_node, cycle);
    }
  } else {
    WORMNET_ENSURES(false);  // unblocked worm must be able to move
  }
  if (w.injected < w.length) ++w.injected;
  // Release every lane the tail has passed.
  const int tail_idx = w.head_pos - (w.injected - w.ejected) + 1;
  while (w.freed_upto < tail_idx) {
    release_lane(w, w.path[static_cast<std::size_t>(w.freed_upto)], cycle);
    ++w.freed_upto;
  }
  last_progress_ = cycle;
  w.last_move = cycle;
  if (w.ejected == w.length) complete_worm(w, cycle);
}

void Simulator::step_arrivals(long cycle) {
  // Scripted messages first (deterministic tests).
  while (scripted_next_ < scripted_.size() &&
         scripted_[scripted_next_].cycle <= cycle) {
    const ScriptedMsg& m = scripted_[scripted_next_++];
    ++tagged_total_;
    SourceState& s = sources_[static_cast<std::size_t>(m.src)];
    if (!s.head_registered) {
      s.head_registered = true;
      const int id = alloc_worm(m.src, m.dst, m.cycle, true);
      register_injection(id, cycle);
    } else {
      s.queue.push_back({m.cycle, m.dst, true});
    }
  }
  if (scripted_mode_) return;

  if (cfg_.arrivals == ArrivalProcess::Overload) {
    if (cycle == 0) {
      for (int p = 0; p < num_procs_; ++p) {
        const int id = alloc_worm(p, sample_destination_overload(p), 0, false);
        register_injection(id, cycle);
      }
    }
    return;  // replenish happens in on_source_released()
  }

  while (traffic_.has_arrival(cycle)) {
    const Arrival a = traffic_.pop_arrival(cycle);
    const int dst = sample_destination(a.proc);
    // Demand on a severed pair is not carried (it never enters the network
    // and is not counted as generated) — matching the analytical model's
    // unroutable_fraction accounting exactly.
    if (dst < 0) continue;
    const bool tagged = in_window(a.cycle);
    if (tagged) {
      ++tagged_total_;
      ++result_.generated_messages;
    }
    SourceState& s = sources_[static_cast<std::size_t>(a.proc)];
    if (!s.head_registered) {
      s.head_registered = true;
      const int id = alloc_worm(a.proc, dst, a.cycle, tagged);
      register_injection(id, cycle);
    } else {
      s.queue.push_back({a.cycle, dst, tagged});
    }
  }
}

void Simulator::phase_allocate(long cycle) {
  if (dirty_bundles_.empty()) return;
  // Swap out the dirty list: grants may re-mark bundles (releases happen in
  // phase_advance, registrations in both earlier phases).  The two buffers
  // ping-pong across cycles so neither ever re-allocates in steady state.
  alloc_scratch_.swap(dirty_bundles_);
  for (int b : alloc_scratch_) bundle_state_[static_cast<std::size_t>(b)].dirty = false;
  for (int b : alloc_scratch_) grant(b, cycle);
  alloc_scratch_.clear();
}

void Simulator::phase_advance(long cycle) {
  if (lane_mode_) {
    phase_advance_lanes(cycle);
    return;
  }
  // Single-lane network: every lane latch is exclusively owned, so every
  // unblocked worm advances unconditionally — the paper's exact semantics.
  for (std::size_t i = 0; i < active_.size();) {
    const int id = active_[i];
    Worm& w = worms_[static_cast<std::size_t>(id)];
    if (w.waiting_alloc) {
      ++i;
      continue;
    }
    advance_worm(id, cycle);
    if (w.ejected == w.length) {
      active_[i] = active_.back();
      active_.pop_back();
      free_worms_.push_back(id);
    } else {
      ++i;
    }
  }
}

bool Simulator::claim_bandwidth(const Worm& w, long cycle) {
  // The physical links crossed by a rigid one-flit advance: each in-flight
  // flit at path[i] moves into path[i + 1]; a consuming head leaves the
  // network (no link); a still-injecting source feeds a new flit into
  // path[0] (and while injecting the tail index is always 0).
  const int hi = w.consuming ? w.head_pos : w.head_pos + 1;
  const int tail_idx = w.head_pos - (w.injected - w.ejected) + 1;
  const int lo = (w.injected < w.length) ? 0 : tail_idx + 1;
  const bool credit = !lane_streak_.empty();
  for (int i = lo; i <= hi; ++i) {
    const int lane = w.path[static_cast<std::size_t>(i)];
    const int ch = net_.lane_channel(lane);
    // A downed link refuses every claim: the whole worm stalls in place
    // (rigid advance — nothing behind the head moves), the wormhole way.
    if (fault_mode_ && link_down_[static_cast<std::size_t>(ch)]) return false;
    const int period = net_.channel_period(ch);
    // Stamps never exceed the current cycle, so with period 1 this is the
    // original claimed-this-cycle test bit for bit.
    if (channel_claim_[static_cast<std::size_t>(ch)] > cycle - period)
      return false;
    if (credit) {
      const int depth = net_.channel_buffer_depth(ch);
      if (depth != util::kInfiniteBufferDepth &&
          lane_last_flit_[static_cast<std::size_t>(lane)] == cycle - period &&
          lane_streak_[static_cast<std::size_t>(lane)] >= depth) {
        return false;  // out of credit: one-cycle refusal breaks the streak
      }
    }
  }
  for (int i = lo; i <= hi; ++i) {
    const int lane = w.path[static_cast<std::size_t>(i)];
    const int ch = net_.lane_channel(lane);
    channel_claim_[static_cast<std::size_t>(ch)] = cycle;
    if (credit && net_.channel_buffer_depth(ch) != util::kInfiniteBufferDepth) {
      const int period = net_.channel_period(ch);
      long& last = lane_last_flit_[static_cast<std::size_t>(lane)];
      int& streak = lane_streak_[static_cast<std::size_t>(lane)];
      streak = (last == cycle - period) ? streak + 1 : 1;
      last = cycle;
    }
  }
  return true;
}

void Simulator::apply_fault_events(long cycle) {
  const topo::Topology& topo = net_.topology();
  while (fault_next_ < fault_events_.size() &&
         fault_events_[fault_next_].cycle <= cycle) {
    const FaultEvent& e = fault_events_[fault_next_++];
    const int peer = topo.neighbor(e.node, e.port);
    const int back = topo.neighbor_port(e.node, e.port);
    const int chans[2] = {net_.channels().from(e.node, e.port),
                          net_.channels().from(peer, back)};
    for (const int ch : chans) {
      link_down_[static_cast<std::size_t>(ch)] = e.up ? 0 : 1;
      const int bundle = net_.channel(ch).bundle;
      for (int lane = net_.lane_begin(ch); lane < net_.lane_begin(ch + 1);
           ++lane) {
        LaneState& ls = lane_state_[static_cast<std::size_t>(lane)];
        if (!e.up && ls.owner == -1) {
          // Free lane leaves service with its link, keeping grant()'s
          // invariant (free_count > 0 ⟹ a grantable lane exists) intact.
          ls.owner = -2;
          --bundle_state_[static_cast<std::size_t>(bundle)].free_count;
        } else if (e.up && ls.owner == -2) {
          ls.owner = -1;
          ++bundle_state_[static_cast<std::size_t>(bundle)].free_count;
          mark_dirty(bundle);
        }
      }
    }
  }
}

void Simulator::drop_worm(int worm_id, long cycle) {
  Worm& w = worms_[static_cast<std::size_t>(worm_id)];
  // Release everything still held through the normal path so channel busy
  // accounting (and the source hand-off chain) stays consistent.
  while (w.freed_upto < static_cast<int>(w.path.size())) {
    release_lane(w, w.path[static_cast<std::size_t>(w.freed_upto)], cycle);
    ++w.freed_upto;
  }
  if (w.waiting_alloc) w.tombstone = true;  // a bundle request is pending
  ++result_.dropped_worms;
  result_.dropped_flits += w.length;
  // The message terminated (lost, not delivered): the termination ladder's
  // tagged accounting must still close, without touching latency stats.
  if (w.tagged) ++tagged_done_;
  last_progress_ = cycle;  // a drop is progress — preempts the watchdog
  if (trace_)
    trace_->instant("drop " + std::to_string(w.src) + "->" +
                        std::to_string(w.dst),
                    "worm.drop", cycle, static_cast<std::uint32_t>(w.src), 2);
}

void Simulator::check_fault_drops(long cycle) {
  for (std::size_t i = 0; i < active_.size();) {
    const int id = active_[i];
    Worm& w = worms_[static_cast<std::size_t>(id)];
    if (cycle - w.last_move >= cfg_.fault_stall_timeout) {
      drop_worm(id, cycle);
      active_[i] = active_.back();
      active_.pop_back();
      if (!w.tombstone) free_worms_.push_back(id);
    } else {
      ++i;
    }
  }
}

void Simulator::phase_advance_lanes(long cycle) {
  if (fault_mode_) check_fault_drops(cycle);
  // Round-robin bandwidth arbitration: visit the active worms starting at a
  // cursor that rotates every cycle; each worm either claims capacity on
  // every link its flits would cross and advances rigidly, or stalls in
  // place for this cycle.  With uniform links the first movable worm
  // visited always succeeds; with slow links or finite buffers a worm can
  // be period-, latency- or credit-blocked, but every such block clears
  // within a bounded number of cycles, so the watchdog still holds.
  const std::size_t n = active_.size();
  if (n == 0) return;
  // active_ is stable during the pass (grants happen in phase_allocate,
  // fault drops above, retirement below), so the visit reads it in place.
  const std::size_t start = static_cast<std::size_t>(rr_cursor_++ % n);
  for (std::size_t i = 0; i < n; ++i) {
    const int id = active_[(start + i) % n];
    Worm& w = worms_[static_cast<std::size_t>(id)];
    if (w.waiting_alloc) continue;
    if (w.stall_until > cycle) continue;  // head mid-flight on a slow link
    if (!claim_bandwidth(w, cycle)) continue;
    advance_worm(id, cycle);
  }
  // Retire completed worms after the pass (the pass visits each id once,
  // so a worm completing mid-pass is never re-advanced).
  for (std::size_t i = 0; i < active_.size();) {
    const int id = active_[i];
    const Worm& w = worms_[static_cast<std::size_t>(id)];
    if (w.ejected == w.length && !w.waiting_alloc) {
      active_[i] = active_.back();
      active_.pop_back();
      free_worms_.push_back(id);
    } else {
      ++i;
    }
  }
}

long Simulator::idle_jump_target(long cycle) const {
  long target;
  if (scripted_mode_) {
    // This cycle's termination check declined, so at least one scripted
    // message is pending, and step_arrivals drained everything due: the
    // next one is strictly in the future.
    WORMNET_ENSURES(scripted_next_ < scripted_.size());
    target = scripted_[scripted_next_].cycle;
  } else {
    // The first break opportunity of an idle open-loop run is the last
    // window cycle (all tagged messages are delivered — an idle network has
    // no backlog anywhere); never jump past it.
    const long window_last = cfg_.warmup_cycles + cfg_.measure_cycles - 1;
    target = window_last;
    const double t = traffic_.next_arrival_time();
    if (t < static_cast<double>(window_last)) {
      // An arrival at continuous time t is usable at the first cycle >= t.
      target = static_cast<long>(std::ceil(t));
    }
  }
  // The max_cycles check fires AT max_cycles; land there, never beyond.
  target = std::min(target, cfg_.max_cycles);
  return std::max(target, cycle + 1);
}

bool Simulator::advance(long cycles) {
  WORMNET_EXPECTS(cycles > 0);
  if (done_) return true;
  if (!config_checked_) {
    // Deferred until here because scripted mode is only known after
    // add_message(): an open-loop measurement run with zero warmup tags
    // messages into empty queues from cycle 0 and silently biases every
    // latency statistic, so reject it loudly instead.  The flag is latched
    // only AFTER the check passes — a caller that catches the throw and
    // calls run() again must be rejected again, not silently admitted.
    if (!scripted_mode_) {
      if (const std::string problem = cfg_.validate_open_loop();
          !problem.empty()) {
        throw std::invalid_argument("wormnet: " + problem);
      }
    }
    config_checked_ = true;
  }
  const long window_end = cfg_.warmup_cycles + cfg_.measure_cycles;
  const long stop = (cycles > std::numeric_limits<long>::max() - cycle_)
                        ? std::numeric_limits<long>::max()
                        : cycle_ + cycles;
  while (cycle_ < stop) {
    const long cycle = cycle_;
    // Link-state changes first: arrivals and grants this cycle must see the
    // cycle's link state.  An idle fast-forward can land past several
    // events; applying every due event here preserves semantics because
    // nothing moved in the skipped (empty-network) cycles.
    if (fault_mode_) apply_fault_events(cycle);
    step_arrivals(cycle);
    phase_allocate(cycle);
    phase_advance(cycle);

    if (scripted_mode_) {
      // Scripted runs end when every scripted message has been delivered;
      // they don't wait out the measurement window.
      if (scripted_next_ == scripted_.size() && tagged_done_ == tagged_total_) {
        result_.completed = true;
        finalize_result(cycle);
        return true;
      }
    } else if (cfg_.arrivals == ArrivalProcess::Overload) {
      if (cycle + 1 >= window_end) {
        result_.completed = true;
        finalize_result(cycle);
        return true;
      }
    } else if (cycle + 1 >= window_end && tagged_done_ == tagged_total_) {
      result_.completed = true;
      finalize_result(cycle);
      return true;
    }
    if (cycle >= cfg_.max_cycles) {
      result_.completed = false;
      result_.saturated = true;
      finalize_result(cycle);
      return true;
    }
    if (!active_.empty() && cycle - last_progress_ > cfg_.watchdog_cycles) {
      throw std::runtime_error(
          "wormnet sim watchdog: no progress for " +
          std::to_string(cycle - last_progress_) +
          " cycles with active worms — simulator invariant broken");
    }

    // Idle-cycle fast-forward: with no active worm and no pending grant the
    // network holds nothing anywhere (no queued message, no waiting worm —
    // a waiting worm's bundle would be dirty), so every cycle until the
    // next arrival is a no-op; jump straight to it.  idle_jump_target is
    // clamped so no skipped cycle could have terminated the run, which
    // keeps every result field — including cycles_run — bit-identical to
    // the cycle-by-cycle path (tested with disable_fast_forward).
    long next = cycle + 1;
    if (fast_forward_ && active_.empty() && dirty_bundles_.empty()) {
      // Also clamp to the caller's budget: skipped cycles are no-ops, so
      // stopping a jump short is bit-invisible, and advance(n) honors its
      // "at most n cycles" contract even across a long idle gap.
      next = std::min(idle_jump_target(cycle), stop);
    }
    cycle_ = next;
  }
  return false;
}

void Simulator::finalize_result(long final_cycle) {
  done_ = true;
  cycle_ = final_cycle;
  result_.cycles_run = final_cycle;
  result_.window_cycles = cfg_.measure_cycles;
  result_.throughput_flits_per_pe =
      static_cast<double>(result_.delivered_flits) /
      (static_cast<double>(cfg_.measure_cycles) * static_cast<double>(num_procs_));
  // Saturation verdict for open-loop runs: in steady state the window's
  // deliveries match its generations; a persistent shortfall means the
  // offered load exceeded capacity even if the backlog eventually drained
  // after the sources quieted down.
  if (!scripted_mode_ && cfg_.arrivals != ArrivalProcess::Overload &&
      result_.generated_messages > 50 &&
      result_.delivered_messages <
          static_cast<std::int64_t>(0.9 * static_cast<double>(result_.generated_messages))) {
    result_.saturated = true;
  }
}

int Simulator::sample_destination(int src) {
  const int dst = traffic_.make_destination(src);
  // The default reachable() is constant-true, so healthy topologies take
  // one virtual call here and the draw sequence stays bit-identical.
  if (net_.topology().reachable(src, dst)) return dst;
  ++result_.unroutable_messages;
  return -1;
}

int Simulator::sample_destination_overload(int src) {
  for (int tries = 0; tries < 4096; ++tries) {
    const int dst = sample_destination(src);
    if (dst >= 0) return dst;
  }
  throw std::runtime_error(
      "wormnet sim: processor " + std::to_string(src) +
      " drew 4096 destinations with no surviving path — topology too "
      "degraded for overload traffic");
}

SimResult Simulator::partial_result() const {
  if (done_) return result_;
  SimResult r = result_;
  r.truncated = true;
  r.completed = false;
  r.cycles_run = cycle_;
  r.window_cycles = cfg_.measure_cycles;
  r.throughput_flits_per_pe =
      static_cast<double>(r.delivered_flits) /
      (static_cast<double>(cfg_.measure_cycles) * static_cast<double>(num_procs_));
  return r;
}

SimResult Simulator::run() {
  while (!advance(std::numeric_limits<long>::max())) {
  }
  return result_;
}

std::string Simulator::debug_state() const {
  std::ostringstream out;
  out << "active worms: " << active_.size() << "\n";
  for (int id : active_) {
    const Worm& w = worms_[static_cast<std::size_t>(id)];
    out << "  worm " << id << " src=" << w.src << " dst=" << w.dst
        << " gen=" << w.gen_time << " head_pos=" << w.head_pos
        << " path=" << w.path.size() << " inj=" << w.injected
        << " ej=" << w.ejected << " freed=" << w.freed_upto
        << (w.consuming ? " CONSUMING" : "")
        << (w.waiting_alloc ? " WAITING" : "") << " path=[";
    for (int c : w.path) out << c << " ";
    out << "]\n";
  }
  // Member channels and grant capacity per bundle (diagnostic path only).
  std::vector<std::vector<int>> members(static_cast<std::size_t>(net_.num_bundles()));
  std::vector<int> capacity(static_cast<std::size_t>(net_.num_bundles()), 0);
  for (int ch = 0; ch < net_.num_channels(); ++ch) {
    const auto b = static_cast<std::size_t>(net_.channel(ch).bundle);
    members[b].push_back(ch);
    capacity[b] += net_.channel_lanes(ch);
  }
  for (int b = 0; b < net_.num_bundles(); ++b) {
    const BundleState& bs = bundle_state_[static_cast<std::size_t>(b)];
    if (bs.requests.empty() && bs.free_count == capacity[static_cast<std::size_t>(b)])
      continue;
    out << "  bundle " << b << " free=" << bs.free_count
        << (bs.dirty ? " dirty" : "") << " requests=[";
    for (std::size_t i = 0; i < bs.requests.size(); ++i) {
      const Request& r = bs.requests[i];
      out << "{w" << r.worm << " pref=" << r.preferred_channel << "} ";
    }
    out << "] channels=[";
    for (const int ch : members[static_cast<std::size_t>(b)]) {
      out << ch << ":owners=";
      for (int lane = net_.lane_begin(ch); lane < net_.lane_begin(ch + 1); ++lane) {
        if (lane > net_.lane_begin(ch)) out << "/";
        out << lane_state_[static_cast<std::size_t>(lane)].owner;
      }
      out << " ";
    }
    out << "]\n";
  }
  return out.str();
}

SimResult simulate(const topo::Topology& topo, const SimConfig& cfg) {
  SimNetwork net(topo);
  Simulator sim(net, cfg);
  return sim.run();
}

std::string check_fault_events(const topo::Topology& topo,
                               const SimConfig& cfg) {
  if (cfg.fault_events.empty()) return "";
  std::vector<FaultEvent> events = cfg.fault_events;
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  std::map<std::pair<int, int>, bool> down;  // canonical endpoint → down?
  for (const FaultEvent& e : events) {
    const std::string at = "node " + std::to_string(e.node) + " port " +
                           std::to_string(e.port);
    if (e.node < 0 || e.node >= topo.num_nodes())
      return "sim fault event: node " + std::to_string(e.node) +
             " out of range";
    if (e.port < 0 || e.port >= topo.num_ports(e.node))
      return "sim fault event: port out of range at " + at;
    const int peer = topo.neighbor(e.node, e.port);
    if (peer == topo::kNoNode)
      return "sim fault event: no link at " + at;
    if (topo.is_processor(e.node) || topo.is_processor(peer))
      return "sim fault event: the injection/ejection link at " + at +
             " cannot fail (fail the switch's network links instead)";
    if (!topo.link_ok(e.node, e.port))
      return "sim fault event: the link at " + at +
             " is already failed in the topology (statically degraded links "
             "cannot be scripted — the routing never recovers them)";
    std::pair<int, int> key{e.node, e.port};
    const std::pair<int, int> other{peer, topo.neighbor_port(e.node, e.port)};
    if (other < key) key = other;
    bool& is_down = down[key];
    if (!e.up && is_down)
      return "sim fault event: link at " + at + " is already down at cycle " +
             std::to_string(e.cycle);
    if (e.up && !is_down)
      return "sim fault event: link-up at " + at +
             " for a link that is not down (cycle " + std::to_string(e.cycle) +
             ")";
    is_down = !e.up;
  }
  return "";
}

}  // namespace wormnet::sim
