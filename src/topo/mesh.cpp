#include "topo/mesh.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/math.hpp"

namespace wormnet::topo {

Mesh::Mesh(int radix, int dims) : radix_(radix), dims_(dims) {
  WORMNET_EXPECTS(radix >= 2);
  WORMNET_EXPECTS(dims >= 1 && dims <= 4);
  long n = 1;
  stride_.assign(static_cast<std::size_t>(dims), 0);
  for (int d = 0; d < dims; ++d) {
    stride_[static_cast<std::size_t>(d)] = static_cast<int>(n);
    n *= radix;
  }
  WORMNET_EXPECTS(n <= (1 << 20));
  num_procs_ = static_cast<int>(n);
}

std::string Mesh::name() const {
  std::ostringstream out;
  out << "mesh(k=" << radix_ << ", d=" << dims_ << ", N=" << num_procs_ << ")";
  return out.str();
}

int Mesh::coord(int addr, int dim) const {
  return (addr / stride_[static_cast<std::size_t>(dim)]) % radix_;
}

int Mesh::neighbor(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  if (node < num_procs_) return router_of(node);
  const int addr = address_of(node);
  if (port == 2 * dims_) return addr;  // processor link
  const int dim = port / 2;
  const bool plus = (port % 2) == 1;
  const int c = coord(addr, dim);
  if (plus) {
    if (c == radix_ - 1) return kNoNode;
    return router_of(addr + stride_[static_cast<std::size_t>(dim)]);
  }
  if (c == 0) return kNoNode;
  return router_of(addr - stride_[static_cast<std::size_t>(dim)]);
}

int Mesh::neighbor_port(int node, int port) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
  if (node < num_procs_) return 2 * dims_;  // router's processor port
  if (port == 2 * dims_) return 0;          // processor's single port
  // A "plus" link arrives at the neighbor's "minus" port of the same
  // dimension and vice versa.
  return (port % 2 == 1) ? port - 1 : port + 1;
}

RouteOptions Mesh::route(int node, int dest) const {
  WORMNET_EXPECTS(node >= 0 && node < num_nodes());
  WORMNET_EXPECTS(dest >= 0 && dest < num_procs_);
  RouteOptions out;
  if (node < num_procs_) {
    if (node != dest) out.add(0);
    return out;
  }
  const int addr = address_of(node);
  for (int d = 0; d < dims_; ++d) {
    const int have = coord(addr, d);
    const int want = coord(dest, d);
    if (have == want) continue;
    out.add(2 * d + (want > have ? 1 : 0));
    return out;  // dimension-order: correct the lowest mismatching dim only
  }
  out.add(2 * dims_);  // arrived: eject
  return out;
}

int Mesh::distance(int src_proc, int dst_proc) const {
  WORMNET_EXPECTS(src_proc >= 0 && src_proc < num_procs_);
  WORMNET_EXPECTS(dst_proc >= 0 && dst_proc < num_procs_);
  if (src_proc == dst_proc) return 0;
  int manhattan = 0;
  for (int d = 0; d < dims_; ++d)
    manhattan += std::abs(coord(src_proc, d) - coord(dst_proc, d));
  return manhattan + 2;
}

int Mesh::reflect(int addr, unsigned mask) const {
  int out = 0;
  for (int d = 0; d < dims_; ++d) {
    int c = coord(addr, d);
    if (mask & (1u << d)) c = radix_ - 1 - c;
    out += c * stride_[static_cast<std::size_t>(d)];
  }
  return out;
}

bool Mesh::mask_fixes(int addr, unsigned mask) const {
  // Reflection of axis d fixes a coordinate only at the axis center
  // (2c == k-1, odd radix).
  for (int d = 0; d < dims_; ++d) {
    if ((mask & (1u << d)) && 2 * coord(addr, d) != radix_ - 1) return false;
  }
  return true;
}

bool Mesh::has_symmetry(const std::vector<int>& pinned_procs) const {
  // Some non-identity reflection must fix every pin, else the orbit
  // partition is all-singletons and collapsing buys nothing.
  const unsigned masks = 1u << dims_;
  for (unsigned g = 1; g < masks; ++g) {
    bool ok = true;
    for (int p : pinned_procs) {
      if (!mask_fixes(p, g)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

std::uint64_t Mesh::proc_symmetry_key(int proc,
                                      const std::vector<int>& pinned_procs) const {
  // Canonical minimum image of the address over the pin-fixing subgroup.
  const unsigned masks = 1u << dims_;
  int best = proc;
  for (unsigned g = 1; g < masks; ++g) {
    bool ok = true;
    for (int p : pinned_procs) {
      if (!mask_fixes(p, g)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    best = std::min(best, reflect(proc, g));
  }
  return static_cast<std::uint64_t>(best);
}

std::uint64_t Mesh::channel_symmetry_key(
    int node, int port, const std::vector<int>& pinned_procs) const {
  const unsigned masks = 1u << dims_;
  const bool injection = node < num_procs_;
  const int addr = injection ? node : address_of(node);
  // Minimum image of the (address, port) pair; a reflected axis swaps that
  // dimension's minus/plus ports (2i <-> 2i+1), other ports are unmoved.
  std::uint64_t best = ~0ull;
  for (unsigned g = 0; g < masks; ++g) {
    bool ok = true;
    for (int p : pinned_procs) {
      if (!mask_fixes(p, g)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    int rport = port;
    if (!injection && port != 2 * dims_ && (g & (1u << (port / 2)))) {
      rport = port ^ 1;
    }
    const std::uint64_t img =
        static_cast<std::uint64_t>(reflect(addr, g)) * 32u +
        static_cast<std::uint64_t>(rport);
    best = std::min(best, img);
  }
  return ((injection ? 1ull : 2ull) << 56) | best;
}

double Mesh::mean_distance() const {
  // E|a - b| for independent uniform coordinates in [0, k) is (k^2-1)/(3k);
  // sum over dims, then condition on src != dst (prob (N-1)/N), add inj+ej.
  const double k = radix_;
  const double per_dim = (k * k - 1.0) / (3.0 * k);
  const double n = num_procs_;
  return dims_ * per_dim * (n / (n - 1.0)) + 2.0;
}

}  // namespace wormnet::topo
