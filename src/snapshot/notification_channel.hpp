// The data plane -> CPU notification path (Section 7.2: DMA into a raw
// socket, drained by the control-plane event loop).
//
// Model: a notification leaves the ASIC, crosses PCIe (fixed latency), and
// lands in a bounded socket buffer. The control-plane process drains the
// buffer one notification at a time, each taking `notification_service_time`
// (the bottleneck behind Figure 10). Overflow and random loss drop
// notifications — the protocol must tolerate this (Section 6, liveness).
//
// Notifications travel in the v2 wire format (DESIGN.md section 16): push()
// encodes the notification into a byte frame, the frame crosses PCIe and
// queues in the socket buffer, drain() decodes it (compact timestamps
// recover against the buffered arrival time), and — when charging bytes —
// the per-notification service cost scales with the frame size, which is
// where the delta encoding's Figure 10 rate win comes from. Uncharged, every
// frame costs the fixed notification_service_time.
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/notification.hpp"
#include "snapshot/notification_transport.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

class NotificationChannel final : public NotificationTransport {
 public:
  /// `device` owns the channel; see NotificationTransport for the wire
  /// arguments. Every raw-socket channel on `sim` records its
  /// arrival->delivery latency (the Figure 10 bottleneck, measured) into
  /// the one registry histogram `fabric.notif.queue_delay_ns`.
  NotificationChannel(sim::Simulator& sim, const sim::TimingModel& timing,
                      sim::Rng rng, Sink sink, net::NodeId device,
                      const WireOptions& wire, WireStats* wire_stats)
      : NotificationTransport(sim, timing, rng, std::move(sink), device, wire,
                              wire_stats, timing.notification_pcie_latency),
        queue_delay_(sim.metrics().histogram("fabric.notif.queue_delay_ns")) {}

  /// Called synchronously by the data plane when a unit makes progress.
  void push(const Notification& n) override;

  /// Frames in the socket buffer.
  [[nodiscard]] std::size_t backlog() const override { return buffer_.size(); }

 private:
  /// An encoded frame (fits the inline event capture). `arrived` is its
  /// socket-buffer arrival time, so delivery can record how long it waited
  /// (queue delay + service); it doubles as the compact-timestamp recovery
  /// reference (the kernel's arrival timestamp on the raw socket).
  struct Frame {
    sim::SimTime arrived = 0;
    std::uint8_t len = 0;
    std::array<std::uint8_t, kMaxNotificationFrameBytes> bytes;
  };

  void arrive(Frame f);
  void drain();
  [[nodiscard]] sim::Duration service_of(const Frame& f) const {
    return wire_.service(timing_.notification_service_time, f.len);
  }

  std::deque<Frame> buffer_;
  obs::Histogram& queue_delay_;
};

}  // namespace speedlight::snap
