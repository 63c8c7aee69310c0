#include "core/channel_graph.hpp"

#include <cmath>
#include <sstream>

namespace wormnet::core {

int ChannelGraph::add_channel(ChannelClass c) {
  WORMNET_EXPECTS(c.servers >= 1);
  WORMNET_EXPECTS(c.lanes >= 1);
  WORMNET_EXPECTS(c.rate_per_link >= 0.0);
  WORMNET_EXPECTS(c.ca2 >= 0.0);
  WORMNET_EXPECTS(c.self_frac >= 0.0 && c.self_frac <= 1.0 + 1e-9);
  WORMNET_EXPECTS(c.bandwidth > 0.0);
  WORMNET_EXPECTS(c.link_latency >= 0.0);
  WORMNET_EXPECTS(c.buffer_depth >= 1);
  classes_.push_back(std::move(c));
  runs_.push_back({static_cast<int>(transitions_.size()), 0});
  return static_cast<int>(classes_.size()) - 1;
}

void ChannelGraph::add_transition(int from, int to, double weight, double route_prob) {
  WORMNET_EXPECTS(from >= filling_ && from < size());
  WORMNET_EXPECTS(to >= 0 && to < size());
  WORMNET_EXPECTS(weight >= 0.0 && weight <= 1.0);
  if (route_prob < 0.0) route_prob = weight;
  WORMNET_EXPECTS(route_prob >= 0.0 && route_prob <= 1.0);
  Run& run = runs_[static_cast<std::size_t>(from)];
  if (run.count == 0) run.first = static_cast<int>(transitions_.size());
  ++run.count;
  transitions_.push_back({to, weight, route_prob});
  filling_ = from;
}

const ChannelClass& ChannelGraph::at(int id) const {
  WORMNET_EXPECTS(id >= 0 && id < size());
  return classes_[static_cast<std::size_t>(id)];
}

ChannelClass& ChannelGraph::mutable_at(int id) {
  WORMNET_EXPECTS(id >= 0 && id < size());
  return classes_[static_cast<std::size_t>(id)];
}

std::string ChannelGraph::validate() const {
  std::ostringstream problems;
  for (int i = 0; i < size(); ++i) {
    const ChannelClass& c = classes_[static_cast<std::size_t>(i)];
    const std::span<const Transition> next = transitions(i);
    if (!(c.bandwidth > 0.0))
      problems << "class " << i << " (" << c.label << ") bandwidth <= 0; ";
    if (c.link_latency < 0.0)
      problems << "class " << i << " (" << c.label << ") negative link latency; ";
    if (c.buffer_depth < 1)
      problems << "class " << i << " (" << c.label << ") buffer depth < 1 flit; ";
    if (c.terminal) {
      if (!next.empty())
        problems << "class " << i << " (" << c.label << ") is terminal but has transitions; ";
      continue;
    }
    // A non-terminal class with no traffic and no continuations is legal:
    // pattern-aware builders enumerate every physical channel, and skewed
    // patterns (permutations, hotspots) leave some of them unused.
    if (next.empty() && c.rate_per_link == 0.0) continue;
    double sum = 0.0;
    for (const Transition& t : next) sum += t.weight;
    if (std::abs(sum - 1.0) > 1e-9)
      problems << "class " << i << " (" << c.label << ") weights sum to " << sum << "; ";
  }
  return problems.str();
}

std::vector<int> ChannelGraph::reverse_topological_order() const {
  // Kahn's algorithm on the dependency relation "x_i needs x_j" (i -> j for
  // every transition).  Reverse-topological means: emit a class only after
  // every class it depends on has been emitted, i.e. process out-degree-zero
  // (terminal) classes first.  The dependents of each class sit in one flat
  // CSR array, in (dependent id, transition) order.
  const int n = size();
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  std::vector<int> remaining_deps(at(n));
  std::vector<int> start(at(n) + 1, 0);
  for (int i = 0; i < n; ++i) remaining_deps[at(i)] = runs_[at(i)].count;
  for (const Transition& t : transitions_) ++start[at(t.target) + 1];
  for (int i = 0; i < n; ++i) start[at(i) + 1] += start[at(i)];
  std::vector<int> dependents(transitions_.size());
  std::vector<int> fill(start.begin(), start.end() - 1);
  for (int i = 0; i < n; ++i) {
    for (const Transition& t : transitions(i)) dependents[at(fill[at(t.target)]++)] = i;
  }
  std::vector<int> order;
  order.reserve(at(n));
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (remaining_deps[at(i)] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const int c = ready.back();
    ready.pop_back();
    order.push_back(c);
    for (int k = start[at(c)]; k < start[at(c) + 1]; ++k) {
      const int dep = dependents[at(k)];
      if (--remaining_deps[at(dep)] == 0) ready.push_back(dep);
    }
  }
  if (static_cast<int>(order.size()) != n) return {};  // cycle
  return order;
}

}  // namespace wormnet::core
