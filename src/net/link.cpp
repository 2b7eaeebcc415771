#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "net/host.hpp"

namespace speedlight::net {

void Link::connect(Node* dst, PortId dst_port) {
  dst_ = dst;
  dst_port_ = dst_port;
  dst_is_host_ = dst->is_host();
  arrival_delay_ = propagation_ + dst->pipeline_latency();
}

void Link::send(PooledPacket pkt) {
  const sim::SimTime start =
      busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const sim::SimTime departed = start + serialization_delay(pkt->size_bytes);
  busy_until_ = departed;
  deliver(std::move(pkt), departed);
}

void Link::deliver(PooledPacket pkt, sim::SimTime departed) {
  assert(dst_ != nullptr && "link not connected");

  bool dropped = false;
  if (forced_drops_ > 0) {
    --forced_drops_;
    dropped = true;
  } else if (loss_probability_ > 0.0 && rng_.chance(loss_probability_)) {
    dropped = true;
  }
  if (dropped) {
    ++packets_dropped_;
    return;  // The handle recycles the packet.
  }

  ++packets_sent_;
  const sim::SimTime arrives = departed + arrival_delay_;
  if (on_depart_) on_depart_(*pkt, departed);
  if (dst_is_host_ && !on_arrive_) {
    Host& host = static_cast<Host&>(*dst_);
    if (host.books_deliveries()) {
      host.book(*pkt, arrives);
      return;  // Nothing runs at the arrival; the handle recycles the packet.
    }
  }

  sim_.at_keyed(arrives, arrival_key_,
                [this, pkt = std::move(pkt), arrives]() mutable {
                  if (on_arrive_) on_arrive_(*pkt, arrives);
                  dst_->receive(std::move(pkt), dst_port_);
                });
}

}  // namespace speedlight::net
