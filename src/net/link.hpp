// Unidirectional point-to-point link with bandwidth, propagation delay,
// FIFO delivery, and optional loss.
//
// Links model the physical channels of Section 4.1: between devices they
// connect the egress unit of one port to an ingress unit of another device.
// FIFO ordering is guaranteed by construction (serialization is sequential
// and propagation delay is constant).
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/endpoint.hpp"
#include "sim/inplace_callback.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace speedlight::net {

class Link {
 public:
  /// Observer hooks for audit/instrumentation: called with the packet and
  /// the simulation time at which the event occurs. Inline-stored (no
  /// std::function heap churn): taps sit on the per-packet delivery path.
  using Tap = sim::InplaceFunction<void(const Packet&, sim::SimTime)>;

  Link(sim::Simulator& sim, double bandwidth_bps, sim::Duration propagation,
       sim::Rng rng)
      : sim_(sim),
        bandwidth_bps_(bandwidth_bps),
        propagation_(propagation),
        rng_(rng),
        arrival_(sim::Endpoint::local(sim, 0)) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attach the receiving end. Must be called before send(). Frames reach
  /// it propagation plus its pipeline latency after they depart.
  void connect(Node* dst, PortId dst_port) {
    dst_ = dst;
    dst_port_ = dst_port;
    arrival_delay_ = propagation_ + dst->pipeline_latency();
  }

  /// Transmit a packet: waits for the transmitter to be idle, serializes at
  /// the link rate, then propagates. May drop (loss model).
  void send(PooledPacket pkt);

  /// Hand over a packet whose serialization the sender already paced: a
  /// switch egress port calls this as it dequeues the packet, with the
  /// serialization-complete time. Applies only the loss model, taps, and
  /// propagation delay; FIFO as long as callers pass non-decreasing times.
  void deliver(PooledPacket pkt, sim::SimTime departed);

  /// Random per-packet loss probability in [0, 1]. Marks the loss dynamic.
  void set_loss_probability(double p) {
    loss_probability_ = p;
    dynamic_loss_ = true;
  }
  [[nodiscard]] double loss_probability() const { return loss_probability_; }

  /// Force the next `n` packets to be dropped (deterministic fault
  /// injection for tests). Marks the loss dynamic.
  void drop_next(std::uint64_t n) {
    forced_drops_ += n;
    dynamic_loss_ = true;
  }

  /// Declare that this link's loss may change while a packet serializes (a
  /// LinkFlapper drives it; setting a loss rate or forced drops also
  /// declares it). A switch port then hands packets over when their
  /// serialization completes instead of at dequeue, so the loss decision
  /// sees the link state at departure.
  void mark_dynamic_loss() { dynamic_loss_ = true; }
  [[nodiscard]] bool dynamic_loss() const { return dynamic_loss_; }

  /// Audit hooks: departure is when serialization completes (the packet has
  /// fully left the sender); arrival is delivery at the far end, after the
  /// receiver's pipeline latency (see Node::pipeline_latency). The depart
  /// tap fires at hand-over with the departure time, which for a switch
  /// port is the dequeue.
  void set_depart_tap(Tap tap) { on_depart_ = std::move(tap); }
  void set_arrive_tap(Tap tap) { on_arrive_ = std::move(tap); }

  /// Route arrivals through a keyed endpoint: gives the link an intrinsic
  /// same-timestamp merge rank (the link id). The default endpoint posts at
  /// key 0, in plain schedule order, which standalone tests rely on.
  void set_arrival_endpoint(sim::Endpoint ep) { arrival_ = ep; }

  /// Time to put `bytes` on the wire. Most frames repeat the previous
  /// frame's size, so the last (bytes, delay) pair is kept and the division
  /// runs only when the size changes, with the same expression.
  [[nodiscard]] sim::Duration serialization_delay(std::uint32_t bytes) const {
    if (bytes != last_bytes_) {
      last_bytes_ = bytes;
      last_delay_ = static_cast<sim::Duration>(static_cast<double>(bytes) *
                                               8.0 / bandwidth_bps_ *
                                               sim::kSecond);
    }
    return last_delay_;
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return packets_dropped_; }
  [[nodiscard]] Node* destination() const { return dst_; }
  [[nodiscard]] PortId destination_port() const { return dst_port_; }

 private:
  sim::Simulator& sim_;
  double bandwidth_bps_;
  sim::Duration propagation_;
  sim::Rng rng_;

  Node* dst_ = nullptr;
  PortId dst_port_ = kInvalidPort;
  bool dynamic_loss_ = false;
  /// serialization_delay()'s last result: 0 bytes take 0 ns. Packed with
  /// the two fields above, so the cache does not grow the link.
  mutable std::uint32_t last_bytes_ = 0;
  mutable sim::Duration last_delay_ = 0;
  sim::Duration arrival_delay_ = 0;  ///< Departure to receive(); connect().

  sim::SimTime busy_until_ = 0;
  double loss_probability_ = 0.0;
  std::uint64_t forced_drops_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;

  Tap on_depart_;
  Tap on_arrive_;
  sim::Endpoint arrival_;
};

}  // namespace speedlight::net
