// Declarative topology descriptions plus shortest-path (ECMP-set) route
// computation. Pure data + graph algorithms; instantiation into live
// simulator objects happens in the core facade.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace speedlight::net {

struct SwitchSpec {
  std::string name;
  std::uint16_t num_ports = 0;
  /// Partial deployment (Section 10): disabled switches forward packets and
  /// headers untouched and take no part in snapshots.
  bool snapshot_enabled = true;
};

struct HostSpec {
  std::string name;
  std::size_t attached_switch = 0;  ///< Index into TopologySpec::switches.
  PortId switch_port = 0;           ///< Port on that switch.
};

/// A duplex switch-to-switch trunk (instantiated as two unidirectional links).
struct TrunkSpec {
  std::size_t switch_a = 0;
  PortId port_a = 0;
  std::size_t switch_b = 0;
  PortId port_b = 0;
  double bandwidth_bps = 100e9;
  sim::Duration propagation = sim::nsec(500);
};

struct TopologySpec {
  std::vector<SwitchSpec> switches;
  std::vector<HostSpec> hosts;
  std::vector<TrunkSpec> trunks;
  double host_link_bandwidth_bps = 25e9;
  sim::Duration host_link_propagation = sim::nsec(500);

  /// Basic structural validation; throws std::invalid_argument on
  /// out-of-range indices, duplicate port usage, self-loops, or a host link
  /// or trunk whose bandwidth is not finite and positive or whose
  /// propagation is negative.
  void validate() const;
};

/// routes[switch][host] = all ports on `switch` that lie on a shortest path
/// towards `host` (the ECMP next-hop set). Hosts attached to the switch map
/// to their access port.
using EcmpRoutes = std::vector<std::vector<std::vector<PortId>>>;

[[nodiscard]] EcmpRoutes compute_ecmp_routes(const TopologySpec& spec);

// --- Builders ---------------------------------------------------------------

/// The paper's testbed (Figure 8): `leaves` leaf switches each with
/// `hosts_per_leaf` hosts, fully meshed to `spines` spine switches.
/// Host links 25GbE, trunks 100GbE, as in Section 8.
[[nodiscard]] TopologySpec make_leaf_spine(std::size_t leaves,
                                           std::size_t spines,
                                           std::size_t hosts_per_leaf);

/// A chain of `n` switches with one host at each end.
[[nodiscard]] TopologySpec make_line(std::size_t n);

/// A ring of `n` switches, one host per switch.
[[nodiscard]] TopologySpec make_ring(std::size_t n);

/// A single switch with `n` hosts.
[[nodiscard]] TopologySpec make_star(std::size_t n);

/// A three-level fat-tree with parameter k (k pods; k^3/4 hosts). Ports are
/// laid out edge-hosts/edge-up, agg-down/agg-up, core-down.
[[nodiscard]] TopologySpec make_fat_tree(std::size_t k);

/// The asymmetric 2x2 example from Figure 1: ingress routers a, b and
/// egress routers x, y with a->x, a->y, b->y links and one host per router.
[[nodiscard]] TopologySpec make_figure1();

}  // namespace speedlight::net
