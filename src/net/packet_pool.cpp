#include "net/packet_pool.hpp"

#include "sim/determinism.hpp"

namespace speedlight::net {

PacketPool& PacketPool::instance() {
  thread_local PacketPool pool;
  return pool;
}

Packet* PacketPool::acquire() {
  if (!free_.empty()) {
    Packet* pkt = free_.back().release();
    free_.pop_back();
    ++recycled_;
    pkt->reset();
    return pkt;
  }
  ++allocated_;
  // Freelist miss: the pool grows once per high-water-mark packet and then
  // recycles forever — amortized infrastructure, exempt from the data-path
  // allocation guard, and the one sanctioned raw `new` outside the slab
  // allocators (the freelist stores unique_ptrs; this pointer is owned from
  // birth).
  sim::det::DetAllow allow_refill;
  // speedlight-lint: allow(raw-new-delete, datapath-alloc) pool refill
  return new Packet();
}

void PacketPool::release(Packet* pkt) noexcept {
  sim::det::DetAllow allow_growth;  // Freelist vector growth, amortized.
  free_.emplace_back(pkt);
}

}  // namespace speedlight::net
