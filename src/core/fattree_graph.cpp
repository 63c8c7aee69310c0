#include "core/fattree_graph.hpp"

#include <string>

#include "util/math.hpp"

namespace wormnet::core {

using util::ipow;

GeneralModel build_fattree_collapsed(int levels, int parents,
                                     bool exact_conditionals) {
  WORMNET_EXPECTS(levels >= 1 && levels <= 10);
  WORMNET_EXPECTS(parents >= 1 && parents <= 4);
  const int n = levels;
  const double num_procs = static_cast<double>(ipow(4, n));

  auto up_prob = [&](int l) {
    return (num_procs - static_cast<double>(ipow(4, l))) / (num_procs - 1.0);
  };
  auto rate_up = [&](int l) {  // Eq. 14 at λ₀ = 1, generalized to m parents
    double fan = 1.0;
    for (int i = 0; i < l; ++i) fan *= 4.0 / parents;
    return up_prob(l) * fan;
  };

  GeneralModel net;
  std::vector<int> up(static_cast<std::size_t>(n));
  std::vector<int> down(static_cast<std::size_t>(n));

  for (int l = 0; l < n; ++l) {
    ChannelClass c;
    c.label = "up" + std::to_string(l);
    c.servers = (l == 0) ? 1 : parents;  // injection channel has no redundant twin
    c.rate_per_link = rate_up(l);
    up[static_cast<std::size_t>(l)] = net.graph.add_channel(c);
  }
  for (int l = 0; l < n; ++l) {
    ChannelClass c;
    c.label = "down" + std::to_string(l);
    c.servers = 1;
    c.rate_per_link = rate_up(l);  // Eq. 15: down rate mirrors up rate
    c.terminal = (l == 0);         // ejection channel ⟨1,0⟩: x̄ = s_f
    down[static_cast<std::size_t>(l)] = net.graph.add_channel(c);
  }

  // Up-channel continuations.  A message on ⟨l, l+1⟩ reaches a switch at
  // level l+1 and either climbs into the two-server bundle ⟨l+1, l+2⟩
  // (weight and R both P↑_{l+1}) or descends into one of the THREE sibling
  // down links ⟨l+1, l⟩ (class weight P↓_{l+1}, but a specific link only
  // with R = P↓_{l+1}/3 — the weight/route_prob split that makes the
  // general solver reproduce Eq. 20/22).
  //
  // The paper uses the UNCONDITIONAL P↑_{l+1} here; the exact continuation
  // probability, given the message already climbed past level l, is
  // P↑_{l+1} / P↑_l (destinations below level l are ruled out).
  for (int l = 0; l < n - 1; ++l) {
    double pu = up_prob(l + 1);
    if (exact_conditionals) pu = up_prob(l + 1) / up_prob(l);
    const double pd = 1.0 - pu;
    net.graph.add_transition(up[static_cast<std::size_t>(l)],
                             up[static_cast<std::size_t>(l + 1)], pu, pu);
    net.graph.add_transition(up[static_cast<std::size_t>(l)],
                             down[static_cast<std::size_t>(l)], pd, pd / 3.0);
  }
  // Top level: always descend, into one of 3 siblings (Eq. 20).
  net.graph.add_transition(up[static_cast<std::size_t>(n - 1)],
                           down[static_cast<std::size_t>(n - 1)], 1.0, 1.0 / 3.0);

  // Down-channel continuations: ⟨l+1, l⟩ feeds exactly one of the 4 child
  // links ⟨l, l-1⟩ (weight 1, R = 1/4 — Eq. 18).
  for (int l = 1; l < n; ++l) {
    net.graph.add_transition(down[static_cast<std::size_t>(l)],
                             down[static_cast<std::size_t>(l - 1)], 1.0, 0.25);
  }

  net.injection_classes = {up[0]};
  net.model_name = "collapsed-fattree(n=" + std::to_string(levels) +
                   ",m=" + std::to_string(parents) + ")";
  const double denom = num_procs - 1.0;
  double dbar = 0.0;
  for (int l = 1; l <= n; ++l)
    dbar += 2.0 * l * 3.0 * static_cast<double>(ipow(4, l - 1)) / denom;
  net.mean_distance = dbar;

  WORMNET_ENSURES(net.graph.validate().empty());
  WORMNET_ENSURES(net.graph.acyclic());
  return net;
}

}  // namespace wormnet::core
