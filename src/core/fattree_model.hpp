// wormnet/core/fattree_model.hpp
//
// Closed-form instantiation of the model for the butterfly fat-tree — the
// paper's §3, Eq. 12–26, implemented exactly as published (with the
// documented erratum at Eq. 21/23).
//
// Channel naming follows the paper's ⟨i, j⟩ level pairs:
//  * "up l"   is the channel class ⟨l, l+1⟩ for l = 0 .. n-1; up 0 is the
//    processor's injection channel ⟨0, 1⟩;
//  * "down l" is the channel class ⟨l+1, l⟩ for l = 0 .. n-1; down 0 is the
//    ejection channel ⟨1, 0⟩ with deterministic service s_f (Eq. 16).
//
// Recurrences (λ from Eq. 12–15; W from the ChannelSolver kernel):
//  * down:  x̄⟨l+1,l⟩ = x̄⟨l,l-1⟩ + (1 − ¼·λ⟨l+1,l⟩/λ⟨l,l-1⟩)·W̄⟨l,l-1⟩   (Eq. 18)
//  * top:   x̄⟨n-1,n⟩ = x̄⟨n,n-1⟩ + ⅔·W̄⟨n,n-1⟩                           (Eq. 20)
//  * up:    x̄⟨l-1,l⟩ = P↑_l·[x̄⟨l,l+1⟩ + (1 − (λ⟨l-1,l⟩/λ⟨l,l+1⟩)·P↑_l)·W̄⟨l,l+1⟩]
//                     + P↓_l·[x̄⟨l,l-1⟩ + (1 − P↓_l/3)·W̄⟨l,l-1⟩]          (Eq. 22)
//  * waits: M/G/2 at rate 2λ for up bundles (erratum), M/G/1 for the
//    injection channel and all down channels                              (Eq. 17/19/21/23/24)
//  * L = W̄⟨0,1⟩ + x̄⟨0,1⟩ + D̄ − 1                                        (Eq. 25)
//  * saturation: the λ₀ at which x̄⟨0,1⟩ = 1/λ₀                           (Eq. 26)
//
// The per-channel wait/blocking arithmetic lives in the shared
// queueing::ChannelSolver kernel — this class only wires the fat-tree's
// level structure into it, and exposes the NetworkModel interface so the
// sweep engine and harness drive it like any other model.  With all
// switches at their defaults it agrees with the general solver on the
// collapsed fat-tree graph to machine precision (tested).
#pragma once

#include <vector>

#include "core/network_model.hpp"

namespace wormnet::core {

/// Configuration of the closed-form fat-tree model.
struct FatTreeModelOptions {
  int levels = 3;                  ///< n; N = 4^n processors
  double worm_flits = 16.0;        ///< s_f, worm length in flits

  /// Parent links per switch, the m of topo::ButterflyFatTree(levels, m).
  /// 2 is the paper's fabric; other values go through the M/G/m kernel —
  /// the ">2-server" extension the paper's conclusion anticipates.  Up-link
  /// rates become λ₀·P↑_l·(4/m)^l and bundle waits use m servers at total
  /// rate m·λ.
  int parents = 2;

  /// Virtual channels (lanes) per physical link, uniform across the tree.
  /// Every blocking factor of Eq. 18/20/22 is discounted L-fold (an L-lane
  /// channel blocks only when all L lanes are held); 1 reproduces the paper.
  int lanes = 1;

  /// The paper's three ablation switches (M/G/2 pooling of the up-link
  /// pair, the Eq. 9/10 blocking discount, the erratum's 2λ).
  queueing::AblationOptions ablation{};
};

/// Full per-level evaluation at one injection rate.
struct FatTreeEvaluation {
  bool stable = true;         ///< all queues below saturation
  double lambda0 = 0.0;       ///< messages/cycle per processor
  double load_flits = 0.0;    ///< λ₀ · s_f, flits/cycle per processor
  double latency = 0.0;       ///< L of Eq. 25
  double inj_wait = 0.0;      ///< W̄⟨0,1⟩
  double inj_service = 0.0;   ///< x̄⟨0,1⟩
  double mean_distance = 0.0; ///< D̄

  /// Index l holds channel ⟨l, l+1⟩ (size n).
  std::vector<double> lambda_up, x_up, w_up, rho_up;
  /// Index l holds channel ⟨l+1, l⟩ (size n).
  std::vector<double> x_down, w_down, rho_down;

  /// The network-level summary of this evaluation (Eq. 25).
  LatencyEstimate summary() const;
};

/// The paper's butterfly fat-tree model.
class FatTreeModel final : public NetworkModel {
 public:
  explicit FatTreeModel(FatTreeModelOptions opts);

  /// The configuration in force.
  const FatTreeModelOptions& options() const { return opts_; }
  /// Number of processors N = 4^n.
  long num_processors() const;
  /// D̄ over uniform distinct pairs.
  double mean_distance() const;

  /// P↑_l of Eq. 12: probability a message at a level-l switch continues up.
  double up_probability(int level) const;
  /// λ⟨l,l+1⟩ of Eq. 14 per physical link, at injection rate lambda0.
  double rate_up(int level, double lambda0) const;

  /// Full per-level evaluation at λ₀ messages/cycle/processor.
  FatTreeEvaluation evaluate_detail(double lambda0) const;
  /// Per-level evaluation at a load in flits/cycle/processor.
  FatTreeEvaluation evaluate_load_detail(double load_flits) const;

  // NetworkModel interface.
  std::string name() const override;
  double worm_flits() const override { return opts_.worm_flits; }
  queueing::AblationOptions ablation() const override { return opts_.ablation; }
  LatencyEstimate evaluate(double lambda0) const override;

 private:
  FatTreeModelOptions opts_;
};

}  // namespace wormnet::core
