// An end host: sources and sinks application traffic. Hosts do not
// participate in the snapshot protocol; the last snapshot-enabled switch
// strips the header before delivery (Section 5.1), and hosts report a
// protocol violation if a header ever reaches them.
#pragma once

#include <cstdint>

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

  /// Invoked for every delivered data packet.
  void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  /// Number of packets that arrived still carrying a snapshot header —
  /// should stay 0 when switches are configured correctly.
  [[nodiscard]] std::uint64_t header_leaks() const { return header_leaks_; }

 private:
  sim::Simulator& sim_;
  Link* uplink_ = nullptr;
  ReceiveCallback on_receive_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t header_leaks_ = 0;
  std::uint64_t next_packet_serial_ = 0;
};

}  // namespace speedlight::net
