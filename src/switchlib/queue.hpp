// Output queues: a bounded FIFO and a strict-priority class-of-service set.
//
// Per Section 4.1, each (ingress, egress) logical channel may consist of
// multiple CoS sub-channels; within a class packets obey FIFO order while
// classes may interleave. CosQueueSet models that: one FIFO per class,
// drained highest-priority-first (class 0 = highest).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/determinism.hpp"

namespace speedlight::sw {

// A bounded FIFO over a ring of packet handles. The ring materializes
// lazily: an untouched queue owns no storage at all (a 50k-port fabric at
// the default 4096-packet capacity would otherwise pay ~gigabytes for rings
// that never see a packet), the first push allocates a small ring, and
// occupancy beyond it grows the ring geometrically up to the configured
// capacity. Growth is a per-queue amortized one-off, DetAllow-exempted like
// the event-slab and packet-pool growth paths; steady-state push/pop on the
// per-packet path never touch the allocator (std::deque grew a chunk every
// ~64 pushes, which the SPEEDLIGHT_CHECK_DETERMINISM allocation guard
// rightly flagged).
class FifoQueue {
 public:
  explicit FifoQueue(std::size_t capacity) : capacity_(capacity) {}

  FifoQueue(FifoQueue&& other) noexcept
      : capacity_(other.capacity_),
        ring_(std::move(other.ring_)),
        head_(other.head_),
        size_(std::exchange(other.size_, 0)),
        max_depth_(other.max_depth_),
        drops_(other.drops_) {}
  FifoQueue(const FifoQueue&) = delete;
  FifoQueue& operator=(const FifoQueue&) = delete;

  /// False (and the packet is dropped by the caller) when full.
  bool push(net::PooledPacket pkt) {
    if (size_ >= capacity_) {
      ++drops_;
      return false;  // Dropping the handle recycles the packet.
    }
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) % ring_.size()] = std::move(pkt);
    ++size_;
    if (size_ > max_depth_) max_depth_ = size_;
    return true;
  }

  /// Admit a packet that leaves in the instant it arrives at this empty
  /// queue, without storing it: the same admission, drop count, depth
  /// high-water mark and ring materialization as push() then pop().
  bool pass() {
    assert(size_ == 0 && "only an empty queue lets a packet pass");
    if (capacity_ == 0) {
      ++drops_;
      return false;
    }
    if (ring_.empty()) grow();
    if (max_depth_ == 0) max_depth_ = 1;
    return true;
  }

  std::optional<net::PooledPacket> pop() {
    if (size_ == 0) return std::nullopt;
    net::PooledPacket pkt = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    return pkt;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  /// Ring entries actually allocated (0 until the first push). The scale
  /// tests assert untouched queues cost nothing.
  [[nodiscard]] std::size_t allocated() const { return ring_.size(); }

 private:
  /// Cold path: first push, or occupancy reached the current ring. The new
  /// ring is linearized (head back to 0) so the modulus change is safe.
  void grow() {
    sim::det::DetAllow allow_ring_growth;  // Amortized one-off, see header.
    const std::size_t next =
        ring_.empty() ? std::min<std::size_t>(capacity_, kInitialRing)
                      : std::min(capacity_, ring_.size() * 2);
    // speedlight-lint: allow(datapath-alloc) amortized ring growth, above.
    std::vector<net::PooledPacket> bigger(next);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  static constexpr std::size_t kInitialRing = 64;

  std::size_t capacity_;
  std::vector<net::PooledPacket> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t drops_ = 0;
};

class CosQueueSet {
 public:
  /// `classes` FIFO queues of `capacity_per_class` packets each.
  CosQueueSet(std::size_t classes, std::size_t capacity_per_class) {
    queues_.reserve(classes == 0 ? 1 : classes);
    for (std::size_t i = 0; i < (classes == 0 ? 1 : classes); ++i) {
      queues_.emplace_back(capacity_per_class);
    }
  }

  /// The class a packet of class `cls` joins: out-of-range classes join
  /// the last (lowest-priority) one.
  [[nodiscard]] std::size_t clamp(std::size_t cls) const {
    return cls < queues_.size() ? cls : queues_.size() - 1;
  }

  bool push(net::PooledPacket pkt, std::size_t cls) {
    return queues_[clamp(cls)].push(std::move(pkt));
  }

  /// FifoQueue::pass() on class `cls`, clamped like push(). Precondition:
  /// the set is empty.
  bool pass(std::size_t cls) { return queues_[clamp(cls)].pass(); }

  /// Strict priority: lowest class index first. Returns the packet and its
  /// class.
  std::optional<std::pair<net::PooledPacket, std::size_t>> pop() {
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      if (auto pkt = queues_[c].pop()) return std::make_pair(std::move(*pkt), c);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q.size();
    return total;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t num_classes() const { return queues_.size(); }
  [[nodiscard]] std::uint64_t drops() const {
    std::uint64_t total = 0;
    for (const auto& q : queues_) total += q.drops();
    return total;
  }
  [[nodiscard]] std::size_t max_depth() const {
    std::size_t m = 0;
    for (const auto& q : queues_) m = m < q.max_depth() ? q.max_depth() : m;
    return m;
  }
  [[nodiscard]] const FifoQueue& class_queue(std::size_t c) const {
    return queues_[c];
  }
  /// True once any class ring has allocated storage (i.e. saw a packet).
  [[nodiscard]] bool materialized() const {
    for (const auto& q : queues_) {
      if (q.allocated() > 0) return true;
    }
    return false;
  }

 private:
  std::vector<FifoQueue> queues_;
};

}  // namespace speedlight::sw
