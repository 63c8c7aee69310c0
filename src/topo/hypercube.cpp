#include "topo/hypercube.hpp"

#include <bit>
#include <sstream>

#include "util/math.hpp"

namespace wormnet::topo {

Hypercube::Hypercube(int dims) : dims_(dims) {
  WORMNET_EXPECTS(dims >= 1 && dims <= 16);
  num_procs_ = 1 << dims;
}

std::string Hypercube::name() const {
  std::ostringstream out;
  out << "hypercube(n=" << dims_ << ", N=" << num_procs_ << ")";
  return out.str();
}

int Hypercube::neighbor(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  if (node < num_procs_) return router_of(node);
  const int addr = address_of(node);
  if (port == dims_) return addr;  // processor link
  return router_of(addr ^ (1 << port));
}

int Hypercube::neighbor_port(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  if (node < num_procs_) return dims_;  // lands on the router's processor port
  if (port == dims_) return 0;          // processor's single port
  return port;                          // dimension links are symmetric
}

RouteOptions Hypercube::route(int node, int dest) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(dest >= 0 && dest < num_procs_);
  RouteOptions out;
  if (node < num_procs_) {
    if (node != dest) out.add(0);
    return out;
  }
  const int addr = address_of(node);
  const int diff = addr ^ dest;
  if (diff == 0) {
    out.add(dims_);  // eject
    return out;
  }
  out.add(std::countr_zero(static_cast<unsigned>(diff)));  // lowest differing dim
  return out;
}

int Hypercube::distance(int src_proc, int dst_proc) const {
  WORMNET_EXPECTS(src_proc >= 0 && src_proc < num_procs_);
  WORMNET_EXPECTS(dst_proc >= 0 && dst_proc < num_procs_);
  if (src_proc == dst_proc) return 0;
  return std::popcount(static_cast<unsigned>(src_proc ^ dst_proc)) + 2;
}

double Hypercube::mean_distance() const {
  // Mean Hamming distance over distinct pairs: n * 2^(n-1) / (2^n - 1);
  // plus the injection and ejection channels.
  const double n = dims_;
  const double big_n = num_procs_;
  return n * (big_n / 2.0) / (big_n - 1.0) + 2.0;
}

}  // namespace wormnet::topo
