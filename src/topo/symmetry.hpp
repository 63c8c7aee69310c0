// wormnet/topo/symmetry.hpp
//
// The one channel-class numbering: every symmetry-collapsed model
// (core::build_traffic_model in collapsed mode), and the query engine's link
// orbits, number their classes here.  This is the generalization of the
// trick behind the paper's fat-tree closed form: §3 collapses the
// fat-tree's channels into per-level equivalence classes and solves
// O(levels) recurrences instead of O(N) — here any topology that declares a
// routing-preserving symmetry (Topology::has_symmetry / proc_symmetry_key /
// channel_symmetry_key) gets the same collapse.
//
// A SymmetryClasses value is a pair of partitions with dense ids, numbered
// first-seen in id order (so a representative is its first member):
//  * processors into DESTINATION ORBITS — the builder propagates flow for
//    one representative destination per orbit and scales by the orbit size;
//  * directed channels (topo::ChannelTable ids) into CHANNEL CLASSES — the
//    O(classes) ChannelClass entries of the quotient GeneralModel.
// topology_symmetry reads only the Topology, walking (node, port) in
// ChannelTable id order as 16 fixed node-range chunks merged in order, so
// the result is the serial walk's for any thread count.
//
// Exactness requires the classes to be orbits (constant AND group-closed)
// of a group of automorphisms that commutes with routing and fixes the
// pinned processors; a user-declared partition is taken on trust and should
// be checked with core::check_collapsed_parity at small N.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/channels.hpp"
#include "topo/topology.hpp"

namespace wormnet::topo {

/// Orbit partitions of one (topology, pinned processors) pair.
struct SymmetryClasses {
  /// Per directed channel (ChannelTable id): dense class id in
  /// [0, num_channel_classes).  Processors come first and have one port
  /// each, so processor p's injection channel is channel p.
  std::vector<int> channel_class;
  /// Per class: its first member and its member count.
  std::vector<DirectedChannel> class_rep;
  std::vector<long> class_size;
  /// Per destination orbit: its first processor and its processor count.
  std::vector<int> orbit_rep;
  std::vector<long> orbit_size;
  /// Class id of every channel_symmetry_key: names the class of any
  /// (node, port) without a ChannelTable.
  std::unordered_map<std::uint64_t, int> class_of_key;
  int num_proc_orbits = 0;
  int num_channel_classes = 0;

  /// True when the partition collapses nothing (every orbit a singleton) —
  /// the collapsed builder falls back to the dense path.
  bool trivial(int num_processors) const {
    return num_proc_orbits >= num_processors;
  }
};

/// Compute the orbit partitions the topology declares for `pinned_procs`
/// (densely re-labeling its uint64 keys in first-seen order), on
/// util::run_shards(threads, ...) — the builder's
/// TrafficBuildOptions::threads rule.  Returns false — leaving `out` empty
/// — when the topology declares no symmetry for these pins
/// (Topology::has_symmetry), and when a class mixes bandwidth, link latency
/// or buffer depth: the representative-destination propagation treats a
/// class's channels as exchangeable, and refining the keys instead would
/// be unsafe (a finer-than-orbit partition breaks the contract above), so
/// the builder falls back to the exact dense path.  A tapered
/// ButterflyFatTree stays collapsible: its (direction, level) keys already
/// separate tiers.  A class mixing lane counts or processor ends, or a
/// processor with other than one connected port, fails a precondition.
bool topology_symmetry(const Topology& topo,
                       const std::vector<int>& pinned_procs,
                       SymmetryClasses& out, unsigned threads = 0);

}  // namespace wormnet::topo
