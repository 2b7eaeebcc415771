// Per-processing-unit counter registers (the snapshot's target state).
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"
#include "stats/ewma.hpp"
#include "switchlib/metric.hpp"

namespace speedlight::sw {

class CounterSet {
 public:
  /// Update all counters for a traversing packet. Control traffic
  /// (initiations, probes) is excluded, as the paper requires ("ignore
  /// snapshot traffic").
  void on_packet(const net::Packet& pkt, sim::SimTime now) {
    if (!pkt.counts_for_metrics()) return;
    ++packets_;
    bytes_ += pkt.size_bytes;
    ewma_.on_packet(now);
  }

  /// Read the current value of a metric, encoded as a 64-bit register word.
  [[nodiscard]] std::uint64_t read(MetricKind m) const {
    switch (m) {
      case MetricKind::PacketCount:
        return packets_;
      case MetricKind::ByteCount:
        return bytes_;
      case MetricKind::QueueDepth:
        return queue_depth_ ? queue_depth_() : 0;
      case MetricKind::EwmaInterarrival:
        return static_cast<std::uint64_t>(ewma_.value());
      case MetricKind::EwmaPacketRate: {
        const double ia = ewma_.value();
        if (ia <= 0.0) return 0;
        return static_cast<std::uint64_t>(1e9 / ia);  // packets per second
      }
      case MetricKind::ForwardingVersion:
        return fib_version_;
    }
    return 0;
  }

  /// Egress units expose their output queue's occupancy through this gauge.
  /// Inline storage: the gauge is read on the per-packet snapshot path.
  void set_queue_depth_gauge(sim::InplaceFunction<std::uint64_t()> gauge) {
    queue_depth_ = std::move(gauge);
  }

  /// Section 10: the FIB rule version applied to the last packet.
  void stamp_fib_version(std::uint64_t v) { fib_version_ = v; }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] double ewma_interarrival_ns() const { return ewma_.value(); }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fib_version_ = 0;
  stats::TwoPhaseInterarrivalEwma ewma_;
  mutable sim::InplaceFunction<std::uint64_t()> queue_depth_;
};

}  // namespace speedlight::sw
