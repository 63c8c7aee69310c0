// wormnet/core/fattree_graph.hpp
//
// Builder for the butterfly fat-tree's COLLAPSED channel graph: one class
// per (level, direction), exactly the symmetry reduction the paper performs
// in §3.2 ("links that are at the same level and run in the same direction
// are symmetrical").  The resulting 2n-class graph solved by the general
// model reproduces the closed-form FatTreeModel to machine precision — the
// repository's strongest internal consistency check.
//
// Class labels: "up0" (the injection channel ⟨0,1⟩) … "up{n-1}" (⟨n-1,n⟩),
// "down0" (the ejection channel ⟨1,0⟩) … "down{n-1}" (⟨n,n-1⟩).
#pragma once

#include "core/general_model.hpp"

namespace wormnet::core {

/// Build the collapsed fat-tree model for n = `levels` (N = 4^n).
/// Rates are per physical link at λ₀ = 1 (Eq. 14/15).  `parents` selects
/// the parent-link multiplicity m of topo::ButterflyFatTree(levels, m): 2 is
/// the paper's fabric; for other m the rates scale as (4/m)^l and up
/// bundles become m-server channels.
///
/// `exact_conditionals` replaces the paper's Eq. 22 branching probability
/// P↑_l with the exact conditional P↑_l / P↑_{l-1} — a message already on
/// channel ⟨l-1, l⟩ is known not to terminate below level l, a fact Eq. 22
/// ignores.  With it, the collapsed graph agrees with the exact-flow
/// per-channel graph (build_traffic_model at TrafficSpec::uniform()) to
/// machine precision; without it, the two differ by the (sub-0.1%)
/// approximation error the paper accepts.  Every class has one lane (the
/// paper's network); GeneralModel::set_uniform_lanes retunes the lane count.
GeneralModel build_fattree_collapsed(int levels, int parents = 2,
                                     bool exact_conditionals = false);

}  // namespace wormnet::core
