// Struct-of-arrays topology index and interned ECMP route storage.
//
// compute_ecmp_routes() materializes routes[switch][host] as S*H separate
// vectors — fine at the paper's 128-port scale, ~250 MB of vector headers
// alone on a k=32 fat-tree (1,280 switches x 8,192 hosts). Two observations
// make that collapse to megabytes:
//
//  1. Shortest-path next-hop sets depend only on the *destination's access
//     switch*, not on the destination host: every host behind the same edge
//     switch shares one (switch, dest-switch) port set. A fat-tree has S^2
//     such pairs, not S*H.
//  2. The distinct port sets themselves are few (a k=32 fat-tree has ~1.5k
//     distinct sets across 1.6M pairs), so sets are interned into one flat
//     PortId pool and pairs store a 32-bit set id.
//
// TopologyIndex is the CSR (compressed sparse row) form of the trunk graph
// plus flat host-attachment arrays — the struct-of-arrays view consumed by
// the route computation and anything else that walks the topology without
// wanting per-entity objects.
//
// Equivalence contract (load-bearing for the twin-run digest oracle): for
// every (switch, host), CompactRoutes::lookup() returns exactly the ports,
// in exactly the order, that compute_ecmp_routes() produced — same
// adjacency construction order, same BFS, same emission order. The old
// per-host API remains for tests, which pin this equivalence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace speedlight::net {

/// Flat, id-indexed view of a TopologySpec. All arrays are indexed by the
/// same switch/host/trunk indices as the spec.
struct TopologyIndex {
  std::size_t num_switches = 0;
  std::size_t num_hosts = 0;

  /// CSR adjacency over trunks, both directions, per-switch entries in
  /// trunk construction order (the order compute_ecmp_routes() builds its
  /// adjacency lists in — load-bearing for route-set equivalence).
  std::vector<std::uint32_t> adj_offset;  ///< size num_switches + 1.
  std::vector<std::uint32_t> adj_peer;    ///< neighbor switch index.
  std::vector<PortId> adj_port;           ///< local out-port toward peer.

  /// Per host: attached switch and access port (flat copies of HostSpec).
  std::vector<std::uint32_t> host_attach;
  std::vector<PortId> host_port;

  [[nodiscard]] std::uint32_t degree(std::size_t sw) const {
    return adj_offset[sw + 1] - adj_offset[sw];
  }
};

[[nodiscard]] TopologyIndex build_topology_index(const TopologySpec& spec);

/// Interned shortest-path next-hop sets: O(S^2) 32-bit ids over a shared
/// PortId pool instead of O(S*H) heap vectors. Lookup is by (switch, host)
/// and returns a span into the pool (or the host's access-port entry when
/// the switch is the host's attach switch).
class CompactRoutes {
 public:
  CompactRoutes() = default;

  /// Ports on `sw` on a shortest path toward host `host` (ECMP candidate
  /// set, same contents and order as compute_ecmp_routes()[sw][host]).
  /// Empty when unreachable.
  [[nodiscard]] std::span<const PortId> lookup(std::size_t sw,
                                               std::size_t host) const {
    const std::uint32_t attach = host_attach_[host];
    if (sw == attach) return {&host_port_[host], 1};
    const std::uint32_t set = set_of_[sw * num_switches_ + attach];
    if (set == kNoRoute) return {};
    return {pool_.data() + set_offset_[set],
            set_offset_[set + 1] - set_offset_[set]};
  }

  /// Number of hosts `sw` can route to (= the per-destination install count
  /// of the per-entity routing path, which the FIB version mirrors).
  [[nodiscard]] std::uint64_t routable_destinations(std::size_t sw) const {
    return routable_[sw];
  }

  [[nodiscard]] std::size_t num_switches() const { return num_switches_; }
  [[nodiscard]] std::size_t num_hosts() const { return host_attach_.size(); }
  /// Distinct interned port sets (diagnostic; small even at k=32).
  [[nodiscard]] std::size_t num_sets() const {
    return set_offset_.empty() ? 0 : set_offset_.size() - 1;
  }
  /// Total PortId entries in the shared pool (diagnostic).
  [[nodiscard]] std::size_t pool_entries() const { return pool_.size(); }

 private:
  friend CompactRoutes compute_compact_routes(const TopologySpec& spec,
                                              const TopologyIndex& index);

  static constexpr std::uint32_t kNoRoute = 0xFFFFFFFFu;

  std::size_t num_switches_ = 0;
  std::vector<std::uint32_t> host_attach_;
  std::vector<PortId> host_port_;
  /// (switch * num_switches + dest attach switch) -> interned set id.
  std::vector<std::uint32_t> set_of_;
  std::vector<std::uint32_t> set_offset_;  ///< set id -> pool offset; +1 end.
  std::vector<PortId> pool_;
  std::vector<std::uint64_t> routable_;  ///< per switch: routable host count.
};

[[nodiscard]] CompactRoutes compute_compact_routes(const TopologySpec& spec,
                                                   const TopologyIndex& index);

/// Convenience overload building the index internally.
[[nodiscard]] CompactRoutes compute_compact_routes(const TopologySpec& spec);

}  // namespace speedlight::net
