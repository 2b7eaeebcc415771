// Freelist recycling for simulated packets.
//
// A packet crosses many events during its life (switch pipeline, egress queue,
// serialization, propagation); without pooling every one of those event
// captures would either copy the 64-byte Packet or heap-allocate it.
// PacketPool hands out recycled Packet slots; PooledPacket is the 8-byte
// move-only handle that travels through links, switch queues, and event
// callbacks, returning the slot to the pool when the packet dies (delivery,
// drop, or probe sink).
//
// There is one pool per thread: a simulator runs on its caller's thread and
// only that thread touches the pool, so the freelist needs no locking.
// Reaching the pool through instance() instead of threading a reference
// through every Node/Link constructor keeps construction signatures flat.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace speedlight::net {

class PacketPool {
 public:
  static PacketPool& instance();

  /// A reset (default-state) Packet.
  [[nodiscard]] Packet* acquire();

  /// Return a packet to the freelist. `pkt` must come from acquire().
  void release(Packet* pkt) noexcept;

  /// Fresh heap allocations (freelist misses) over the pool's lifetime.
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Freelist hits over the pool's lifetime.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }

 private:
  std::vector<std::unique_ptr<Packet>> free_;
  std::uint64_t allocated_ = 0;
  std::uint64_t recycled_ = 0;
};

/// Owning, move-only handle to a pooled Packet. Implicitly constructible
/// from a Packet so existing call sites (tests build a Packet and hand it to
/// receive()) keep working — the fields are copied into a pooled slot.
class PooledPacket {
 public:
  PooledPacket() noexcept = default;

  /// Wrap freshly produced packet fields in a pooled slot.
  PooledPacket(const Packet& fields)  // NOLINT(google-explicit-constructor)
      : p_(PacketPool::instance().acquire()) {
    *p_ = fields;
  }

  PooledPacket(PooledPacket&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}

  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
    }
    return *this;
  }

  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;

  ~PooledPacket() { reset(); }

  /// Acquire an empty (reset) packet directly in the pool — the preferred
  /// way to *produce* a packet without staging fields on the stack.
  [[nodiscard]] static PooledPacket make() {
    PooledPacket pp;
    pp.p_ = PacketPool::instance().acquire();
    return pp;
  }

  /// Deep copy into a fresh pooled slot (probe flooding).
  [[nodiscard]] PooledPacket clone() const {
    PooledPacket pp = make();
    *pp.p_ = *p_;
    return pp;
  }

  [[nodiscard]] Packet& operator*() const noexcept { return *p_; }
  [[nodiscard]] Packet* operator->() const noexcept { return p_; }
  [[nodiscard]] Packet* get() const noexcept { return p_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return p_ != nullptr;
  }

  void reset() noexcept {
    if (p_ != nullptr) {
      PacketPool::instance().release(std::exchange(p_, nullptr));
    }
  }

 private:
  Packet* p_ = nullptr;
};

}  // namespace speedlight::net
