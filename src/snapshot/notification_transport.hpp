// Abstract data-plane -> CPU notification transport.
//
// Section 7.2: "The snapshot control plane receives notifications from the
// Tofino using a raw socket ... There are alternatives to this approach,
// e.g., a P4 digest stream, but we found that raw sockets made the
// implementation straightforward and offered significantly better
// performance." Both paths are implemented here (notification_channel.hpp
// models the raw-socket DMA path; digest_channel.hpp the batched digest
// stream) behind this interface, so the choice can be ablated. Both carry
// notifications as v2 wire frames (DESIGN.md section 16).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>

#include "net/types.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/notification.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

class NotificationTransport {
 public:
  using Sink = std::function<void(const Notification&)>;

  virtual ~NotificationTransport() = default;

  NotificationTransport(const NotificationTransport&) = delete;
  NotificationTransport& operator=(const NotificationTransport&) = delete;

  /// Called synchronously by the data plane on unit progress.
  virtual void push(const Notification& n) = 0;

  // --- Stats (the Figure 10 "queue buildup" detectors) ---------------------
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_overflow() const {
    return dropped_overflow_;
  }
  [[nodiscard]] std::uint64_t dropped_random() const { return dropped_random_; }
  /// Notifications queued for the CPU, in the transport's own terms.
  [[nodiscard]] virtual std::size_t backlog() const = 0;
  /// High-water mark of backlog(), sampled where each transport grows it.
  [[nodiscard]] std::size_t max_backlog() const { return max_backlog_; }

  /// Notifications accepted by push() but not yet handed to the sink —
  /// includes PCIe-in-flight entries that backlog() (buffer occupancy)
  /// cannot see. The proactive register poll gates on this: polling while
  /// older notifications are still in flight would fast-forward the
  /// controller's view past wire sids it has yet to service, and those
  /// can only unroll as huge forward jumps (the wire space has no
  /// "behind").
  [[nodiscard]] std::size_t in_flight() const { return pending_; }

 protected:
  /// The v2 wire model (DESIGN.md section 16): notifications are encoded at
  /// push, cross as byte frames, and are decoded on delivery; when
  /// `opts.charge_bytes`, service time scales with frame size. `device`
  /// owns the transport (frames do not carry the node id);
  /// `transit_latency` is the fixed encode-to-recovery delay the compact
  /// timestamps must clear; `stats` may be null. Trace records go to
  /// `sim`'s tracer on the device's notification lane.
  NotificationTransport(sim::Simulator& sim, const sim::TimingModel& timing,
                        sim::Rng rng, Sink sink, net::NodeId device,
                        const WireOptions& opts, WireStats* stats,
                        sim::Duration transit_latency)
      : sim_(sim),
        timing_(timing),
        rng_(rng),
        sink_(std::move(sink)),
        wire_{device, opts.charge_bytes, stats,
              NotificationCodec(opts, transit_latency)},
        tracer_(sim.tracer()),
        track_(obs::notif_track(device)) {}

  /// Random loss at the head of push() (notification_drop_probability):
  /// true when `n` is lost, counted and traced.
  [[nodiscard]] bool drop_at_random(const Notification& n) {
    if (timing_.notification_drop_probability <= 0.0 ||
        !rng_.chance(timing_.notification_drop_probability)) {
      return false;
    }
    ++dropped_random_;
    tracer_.instant(obs::Category::NotifChannel, obs::EventName::NotifDrop,
                    track_, sim_.now(), /*a0=*/1, obs::pack_unit(n.unit));
    return true;
  }

  struct Wire {
    net::NodeId device;
    bool charge_bytes;
    WireStats* stats;
    NotificationCodec codec;

    /// Encode `n` into `out` (>= kMaxNotificationFrameBytes) and account
    /// its bytes. Returns the frame length.
    std::uint8_t encode(const Notification& n, std::uint8_t* out) const {
      const auto len = static_cast<std::uint8_t>(codec.encode(n, out));
      if (stats != nullptr) {
        stats->notification_bytes += len;
        ++stats->notifications_encoded;
      }
      return len;
    }

    /// Decode a frame against the receiver-side `arrival` time; a frame
    /// that does not decode counts as a decode failure.
    [[nodiscard]] std::optional<Notification> decode(
        std::span<const std::uint8_t> frame, sim::SimTime arrival) const {
      auto n = codec.decode(frame, device, arrival);
      if (!n && stats != nullptr) ++stats->decode_failures;
      return n;
    }

    /// Service cost of a `len`-byte frame whose fixed-cost price is `full`.
    [[nodiscard]] sim::Duration service(sim::Duration full,
                                        std::size_t len) const {
      return charge_bytes ? wire_service_cost(full, len) : full;
    }
  };

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  sim::Rng rng_;
  Sink sink_;
  Wire wire_;
  obs::Tracer& tracer_;
  std::uint64_t track_;

  std::size_t pending_ = 0;  ///< push()ed, not yet delivered or dropped.
  bool draining_ = false;    ///< A service completion is scheduled.
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_overflow_ = 0;
  std::uint64_t dropped_random_ = 0;
  std::size_t max_backlog_ = 0;
};

enum class NotificationMode : std::uint8_t {
  RawSocket,  ///< Per-notification DMA (the paper's choice).
  Digest,     ///< Batched digest stream (the rejected alternative).
};

}  // namespace speedlight::snap
