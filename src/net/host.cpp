#include "net/host.hpp"

#include <algorithm>
#include <cassert>

#include "sim/determinism.hpp"

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

void Host::book(const Packet& pkt, sim::SimTime at) {
  if (pkt.is_probe()) return;  // receive() would ignore it.
  // Settling first keeps only the downlink's in-flight packets booked.
  settle();
  if (booked_count_ == booked_.size()) {
    // Amortized growth, like the event slab: the ring doubles until it
    // holds the downlink's deepest flight, then stays.
    sim::det::DetAllow allow_growth;
    std::vector<Booking> ring(std::max<std::size_t>(4, 2 * booked_.size()));
    for (std::uint32_t i = 0; i < booked_count_; ++i) {
      ring[i] = booked_[(booked_head_ + i) & (booked_.size() - 1)];
    }
    booked_ = std::move(ring);
    booked_head_ = 0;
  }
  const std::size_t mask = booked_.size() - 1;
  // The host's one downlink is FIFO, so bookings arrive in arrival order
  // and settle() can stop at the first one not yet due.
  assert(booked_count_ == 0 ||
         booked_[(booked_head_ + booked_count_ - 1) & mask].at <= at);
  booked_[(booked_head_ + booked_count_++) & mask] = {at, pkt.size_bytes,
                                                      pkt.snap.present};
  sim_.book(at);
}

void Host::settle() const {
  const sim::SimTime now = sim_.now();
  const std::size_t mask = booked_.size() - 1;
  while (booked_count_ > 0 && booked_[booked_head_].at <= now) {
    const Booking& b = booked_[booked_head_];
    if (b.header) ++header_leaks_;
    ++packets_received_;
    bytes_received_ += b.bytes;
    booked_head_ = static_cast<std::uint32_t>((booked_head_ + 1) & mask);
    --booked_count_;
  }
}

}  // namespace speedlight::net
