// The P4 digest-stream notification path: the alternative Section 7.2
// mentions and rejects.
//
// Model: the ASIC accumulates notifications into a digest buffer that is
// flushed to the CPU when full or when the flush timer expires. The CPU
// driver processes one digest at a time with a fixed per-digest overhead
// plus a per-entry cost. The constants (timing_model.hpp) reflect the
// paper's observation that this path performed significantly *worse* than
// the raw-socket DMA: the driver/RPC overhead dominates, and batching adds
// flush-timeout latency to every notification.
//
// Each entry crosses as a v2 wire frame (DESIGN.md section 16): encoded at
// push (bytes counted), reconstructed through the codec, and — when
// charging bytes — its share of the per-entry driver cost scales with the
// encoded size.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/notification_transport.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

class DigestChannel final : public NotificationTransport {
 public:
  /// `device` owns the stream; see NotificationTransport for the wire
  /// arguments. Entries are timestamped at accumulation, so the compact
  /// recovery reference has zero transit skew. Every digest stream on
  /// `sim` records its per-digest batch size into the one registry
  /// histogram `fabric.notif.digest_batch`.
  DigestChannel(sim::Simulator& sim, const sim::TimingModel& timing,
                sim::Rng rng, Sink sink, net::NodeId device,
                const WireOptions& wire, WireStats* wire_stats)
      : NotificationTransport(sim, timing, rng, std::move(sink), device, wire,
                              wire_stats, /*transit_latency=*/0),
        digest_batch_(sim.metrics().histogram("fabric.notif.digest_batch")) {}

  void push(const Notification& n) override;

  /// Backlog in notifications (pending digests + the accumulating one).
  [[nodiscard]] std::size_t backlog() const override;

  [[nodiscard]] std::uint64_t digests_flushed() const { return digests_; }

 private:
  /// One accumulated notification; `len` is its encoded v2 frame size.
  struct Entry {
    Notification n;
    std::uint8_t len = 0;
  };
  using Digest = std::vector<Entry>;

  void flush();
  void drain();
  [[nodiscard]] sim::Duration cost_of(const Digest& digest) const;

  Digest accumulating_;
  /// Storage recycled from drained digests: flush() hands accumulating_'s
  /// buffer to the in-flight digest and takes this one, so the ASIC-side
  /// accumulation never reallocates in steady state (push() runs on the
  /// data path; see sim/determinism.hpp).
  Digest spare_;
  sim::EventId flush_timer_ = 0;
  bool flush_armed_ = false;

  std::deque<Digest> cpu_queue_;
  std::uint64_t digests_ = 0;
  obs::Histogram& digest_batch_;
};

}  // namespace speedlight::snap
