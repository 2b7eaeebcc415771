// Destination-based forwarding with multipath (ECMP candidate sets) and a
// version tag for forwarding-state snapshots (Section 10).
//
// Production-scale storage: the fabric-wide shortest-path sets live in one
// shared, interned net::CompactRoutes (a few MB for a k=32 fat-tree); each
// switch's table is a pointer into it plus a small per-destination override
// map for runtime FIB edits (set_route bumps the version). Small hand-built
// configurations that never install a compact base route from the overrides
// alone.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/soa.hpp"
#include "net/types.hpp"

namespace speedlight::sw {

class RoutingTable {
 public:
  /// Install the fabric-wide shared route base for this switch. Host node
  /// ids are `first_host_id + host_index` (the facade's id layout). The
  /// version advances once per routable destination, mirroring the
  /// per-destination install sequence of the per-entity path.
  void set_compact_base(const net::CompactRoutes* base,
                        std::size_t self_switch, net::NodeId first_host_id) {
    base_ = base;
    self_switch_ = self_switch;
    first_host_id_ = first_host_id;
    version_ += base->routable_destinations(self_switch);
  }

  /// Install (or replace) the candidate out-port set for a destination
  /// host. Bumps the table version.
  void set_route(net::NodeId dst_host, std::vector<net::PortId> ports) {
    overrides_[dst_host] = std::move(ports);
    ++version_;
  }

  /// Candidate ports for a destination; empty if unroutable.
  [[nodiscard]] std::span<const net::PortId> lookup(net::NodeId dst) const {
    if (!overrides_.empty()) {
      const auto it = overrides_.find(dst);
      if (it != overrides_.end()) return it->second;
    }
    return base_lookup(dst);
  }

  /// Section 10: "the control plane can ensure every FIB rule and version
  /// tags passing packets with a unique ID". Every lookup stamps this
  /// version into the processing unit's state.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  [[nodiscard]] std::span<const net::PortId> base_lookup(net::NodeId dst) const {
    if (base_ == nullptr || dst < first_host_id_) return {};
    const std::size_t host = dst - first_host_id_;
    if (host >= base_->num_hosts()) return {};
    return base_->lookup(self_switch_, host);
  }

  const net::CompactRoutes* base_ = nullptr;
  std::size_t self_switch_ = 0;
  net::NodeId first_host_id_ = 0;
  std::unordered_map<net::NodeId, std::vector<net::PortId>> overrides_;
  std::uint64_t version_ = 0;
};

}  // namespace speedlight::sw
