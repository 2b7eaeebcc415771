// Basic identifier types shared across the network substrate.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace speedlight::net {

/// Identifies a device (host or switch) in the network.
using NodeId = std::uint32_t;

/// Identifies a port on a device.
using PortId = std::uint16_t;

/// Identifies an application flow (used by ECMP/flowlet hashing).
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;
inline constexpr PortId kInvalidPort = 0xFFFFu;

/// Direction of a processing unit within a switch.
enum class Direction : std::uint8_t { Ingress = 0, Egress = 1 };

/// Globally unique identifier of a per-port, per-direction processing unit
/// (the paper's fundamental building block, Section 4.1).
struct UnitId {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  Direction direction = Direction::Ingress;

  friend bool operator==(const UnitId&, const UnitId&) = default;
  friend auto operator<=>(const UnitId&, const UnitId&) = default;
};

/// Dense number of a unit within its device, `port * 2 + direction`. The
/// report codec's baselines, the control plane's notification table, the
/// observer's per-round bitsets and the trace lanes all count units this
/// way.
[[nodiscard]] constexpr std::size_t unit_slot(const UnitId& u) noexcept {
  return std::size_t{u.port} * 2 + (u.direction == Direction::Egress ? 1 : 0);
}

}  // namespace speedlight::net

template <>
struct std::hash<speedlight::net::UnitId> {
  std::size_t operator()(const speedlight::net::UnitId& u) const noexcept {
    const std::size_t h = (static_cast<std::size_t>(u.node) << 20) ^
                          (static_cast<std::size_t>(u.port) << 2) ^
                          static_cast<std::size_t>(u.direction);
    return h * 0x9E3779B97f4A7C15ULL >> 16;
  }
};
