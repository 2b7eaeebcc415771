// An end host: sources and sinks application traffic. Hosts do not
// participate in the snapshot protocol; the last snapshot-enabled switch
// strips the header before delivery (Section 5.1), and hosts report a
// protocol violation if a header ever reaches them.
//
// A host with no receive callback only counts what arrives, so its
// downlink books each delivery instead of posting an arrival event: the
// host keeps (arrival time, bytes, header present) in a FIFO, and its
// counters settle every booking due at or before now() when read. Reads
// between runs are therefore exact. A read inside an event counts the
// deliveries due at that instant, including any that an arrival event
// would have run after the reading one (nothing in src/ reads host
// counters inside an event). A host with a callback, or a downlink with
// an arrive tap, keeps the arrival event.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/inplace_callback.hpp"
#include "sim/simulator.hpp"

namespace speedlight::net {

class Host final : public Node {
 public:
  /// Runs once per delivered packet — inline storage, no std::function.
  using ReceiveCallback =
      sim::InplaceFunction<void(const Packet&, sim::SimTime)>;

  Host(sim::Simulator& sim, NodeId id, std::string name)
      : Node(id, std::move(name)), sim_(sim) {}

  /// Attach the uplink towards the access switch.
  void attach_uplink(Link* uplink) { uplink_ = uplink; }

  /// Send `size_bytes` of payload to `dst` as part of `flow`.
  void send(NodeId dst, FlowId flow, std::uint32_t size_bytes);

  void receive(PooledPacket pkt, PortId port) override;

  [[nodiscard]] bool is_host() const override { return true; }

  /// Invoked for every delivered data packet. Set it before traffic
  /// departs towards the host: a delivery already booked is counted but
  /// does not run it.
  void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  /// Whether a link may book deliveries here instead of posting arrival
  /// events: nothing runs at arrival unless a receive callback is set.
  [[nodiscard]] bool books_deliveries() const { return !on_receive_; }

  /// Book the delivery of `pkt` at `at` (>= now(), and no earlier than the
  /// previous booking), which counts once now() reaches `at`. The downlink's
  /// Link::deliver calls it at hand-over; probes are dropped, as receive()
  /// drops them.
  void book(const Packet& pkt, sim::SimTime at);

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_received() const {
    settle();
    return packets_received_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    settle();
    return bytes_received_;
  }
  /// Number of packets that arrived still carrying a snapshot header —
  /// should stay 0 when switches are configured correctly.
  [[nodiscard]] std::uint64_t header_leaks() const {
    settle();
    return header_leaks_;
  }

 private:
  /// A booked delivery, not yet counted.
  struct Booking {
    sim::SimTime at;
    std::uint32_t bytes;
    bool header;
  };

  /// Count every booked delivery due at or before now().
  void settle() const;

  sim::Simulator& sim_;
  Link* uplink_ = nullptr;
  ReceiveCallback on_receive_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t next_packet_serial_ = 0;
  // Counted deliveries and the bookings still in flight, a ring in arrival
  // order (power-of-two size). settle() moves due bookings into the counts,
  // so reads stay const.
  mutable std::uint64_t packets_received_ = 0;
  mutable std::uint64_t bytes_received_ = 0;
  mutable std::uint64_t header_leaks_ = 0;
  mutable std::vector<Booking> booked_;
  mutable std::uint32_t booked_head_ = 0;
  mutable std::uint32_t booked_count_ = 0;
};

}  // namespace speedlight::net
