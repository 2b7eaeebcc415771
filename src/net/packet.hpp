// The simulated packet and the Speedlight snapshot header it may carry.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace speedlight::net {

/// Section 5.1: "Packet Type can take one of two values: initiation or
/// data". We add Probe for the liveness broadcasts of Section 6 ("inject
/// broadcasts into the network that force propagation of snapshot IDs");
/// probes behave like data for the snapshot logic but are excluded from the
/// measured counters and discarded by hosts.
enum class PacketKind : std::uint8_t { Data = 0, Initiation = 1, Probe = 2 };

/// The in-band snapshot header (Section 5.1). Added by the first
/// snapshot-enabled router, removed before delivery to hosts.
struct SnapshotHeader {
  bool present = false;
  PacketKind kind = PacketKind::Data;
  /// Snapshot ID as carried on the wire (modulo the configured id space).
  std::uint32_t wire_sid = 0;
  /// Channel ID: identifies the upstream neighbor at the *next* processing
  /// unit. Inside a switch this is the ingress port a packet traversed.
  std::uint16_t channel = 0;
};

/// A simulated packet. Only `snap` and `size_bytes` are "on the wire";
/// the rest is simulator bookkeeping (addressing in lieu of real L2/L3
/// headers) and audit state used by tests.
struct Packet {
  std::uint64_t id = 0;        ///< Globally unique, for audit trails.
  NodeId src_host = kInvalidNode;
  NodeId dst_host = kInvalidNode;
  FlowId flow = 0;
  std::uint32_t size_bytes = 0;
  std::uint8_t ttl = 64;       ///< Decremented per switch hop; 0 = dropped.
  sim::SimTime created_at = 0;

  SnapshotHeader snap;

  /// Switch-internal metadata: ingress port the packet entered through
  /// (becomes the Channel ID for the egress unit).
  PortId meta_ingress_port = kInvalidPort;

  /// Audit only (never read by the protocol): the unbounded "virtual"
  /// snapshot id the last processing unit stamped. Lets property tests
  /// check causal consistency without reverse-engineering rollover.
  std::uint64_t audit_virtual_sid = 0;

  [[nodiscard]] bool is_data() const {
    return !snap.present || snap.kind == PacketKind::Data;
  }
  [[nodiscard]] bool is_initiation() const {
    return snap.present && snap.kind == PacketKind::Initiation;
  }
  [[nodiscard]] bool is_probe() const {
    return snap.present && snap.kind == PacketKind::Probe;
  }
  /// Packets counted by the measured counters: real traffic only.
  [[nodiscard]] bool counts_for_metrics() const { return is_data(); }

  /// Restore default-constructed state (a recycled pool slot).
  void reset() { *this = Packet{}; }
};

// Pool slots are recycled by plain assignment and fit one cache line.
static_assert(std::is_trivially_copyable_v<Packet> && sizeof(Packet) <= 64);

}  // namespace speedlight::net
