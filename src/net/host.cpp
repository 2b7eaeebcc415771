#include "net/host.hpp"

#include <cassert>

namespace speedlight::net {

void Host::send(NodeId dst, FlowId flow, std::uint32_t size_bytes) {
  assert(uplink_ != nullptr && "host has no uplink");
  PooledPacket pkt = PooledPacket::make();
  // Pack (host id, per-host serial) into a globally unique packet id.
  pkt->id = (static_cast<std::uint64_t>(id()) << 40) | next_packet_serial_++;
  pkt->src_host = id();
  pkt->dst_host = dst;
  pkt->flow = flow;
  pkt->size_bytes = size_bytes;
  pkt->created_at = sim_.now();
  ++packets_sent_;
  uplink_->send(std::move(pkt));
}

void Host::receive(PooledPacket pkt, PortId /*port*/) {
  if (pkt->is_probe()) return;  // Liveness broadcasts are not app traffic.
  if (pkt->snap.present) ++header_leaks_;
  ++packets_received_;
  bytes_received_ += pkt->size_bytes;
  if (on_receive_) on_receive_(*pkt, sim_.now());
}

}  // namespace speedlight::net
