// Metrics that can be snapshotted. The snapshot primitive itself is
// agnostic ("any value accessible at line rate in the data plane"); these
// are the ones the paper's evaluation uses, plus the forwarding-state
// version register of Section 10.
#pragma once

#include <cstdint>

namespace speedlight::sw {

enum class MetricKind : std::uint8_t {
  PacketCount,       ///< Per-unit packet counter (Table 1's base variant).
  ByteCount,         ///< Per-unit byte counter.
  QueueDepth,        ///< Egress queue occupancy in packets (gauge).
  EwmaInterarrival,  ///< Section 8's two-phase EWMA of interarrival time.
  EwmaPacketRate,    ///< Derived packets-per-second rate (Section 8.4).
  ForwardingVersion, ///< FIB version tag last applied (Section 10).
};

/// Contribution of one in-flight packet to a channel-state accumulator.
[[nodiscard]] constexpr std::uint64_t metric_channel_add(MetricKind m,
                                                         std::uint32_t bytes) {
  switch (m) {
    case MetricKind::PacketCount:
      return 1;
    case MetricKind::ByteCount:
      return bytes;
    default:
      return 0;
  }
}

}  // namespace speedlight::sw
