#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/determinism.hpp"

namespace speedlight::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  assert(slab_slots_ < 0xffffffffu && "event slab exhausted");
  const std::uint32_t idx = slab_slots_++;
  if ((idx & (kChunkSlots - 1)) == 0) {
    // Slab growth is amortized infrastructure: steady state recycles slots
    // and stops growing. Exempt from the data-path allocation guard.
    det::DetAllow allow_growth;
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
    free_.reserve(chunks_.size() * kChunkSlots);
  }
  return idx;
}

inline int EventQueue::bucket_of(SimTime t) const {
  return static_cast<int>(
             std::bit_width(static_cast<std::uint64_t>(t ^ base_))) - 1;
}

inline void EventQueue::file(Entry e) {
  // Bucket growth is amortized infrastructure, like the slab.
  det::DetAllow allow_growth;
  if (e.time > base_) {
    const int b = bucket_of(e.time);
    buckets_[b].push_back(e);
    occupied_ |= std::uint64_t{1} << b;
    return;
  }
  if (e.time < base_) lower_base(e.time);
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::lower_base(SimTime t) {
  // `t` and base_ agree above bit d, where t has a 0 and base_ a 1. Every
  // far entry is due at or after base_, so bucket d is empty, and the
  // heap's entries and those of the buckets below d, which all agree with
  // base_ from bit d up, differ from `t` first at bit d. The buckets above
  // d keep their entries.
  const int d = bucket_of(t);
  std::vector<Entry>& into = buckets_[d];
  into.insert(into.end(), heap_.begin(), heap_.end());
  heap_.clear();
  for (std::uint64_t low = occupied_ & ((std::uint64_t{1} << d) - 1);
       low != 0; low &= low - 1) {
    std::vector<Entry>& bucket = buckets_[std::countr_zero(low)];
    into.insert(into.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  occupied_ = (occupied_ & ~((std::uint64_t{1} << d) - 1)) |
              (std::uint64_t{1} << d);
  base_ = t;
}

// `inline`, like take() below, so the far path keeps the call depth of a
// heap-only queue: nearly every entry of a k=32 round takes it. By value,
// so that push() never takes the address of the entry it builds.
inline void EventQueue::push_far(Entry e) {
  if (heap_.empty()) {
    // The far part is empty, so `e` is its earliest entry.
    base_ = e.time;
    det::DetAllow allow_growth;
    heap_.push_back(e);
    return;
  }
  file(e);
}

void EventQueue::refill() {
  const int b = std::countr_zero(occupied_);
  occupied_ &= occupied_ - 1;
  std::vector<Entry>& bucket = buckets_[b];
  SimTime earliest = bucket.front().time;
  for (const Entry& e : bucket) earliest = std::min(earliest, e.time);
  // Every entry of the bucket is later than the old base_ and shares its
  // bits above bit b, so against the new base_ each one files into a
  // lower bucket or, at `earliest` itself, into the heap.
  base_ = earliest;
  for (const Entry& e : bucket) file(e);
  bucket.clear();
}

void EventQueue::push(SimTime when, MergeKey key, std::uint64_t seq,
                      std::uint32_t idx) {
  assert(callback(idx) && "cannot schedule an empty callback");
  // Keep the entry in registers until it is stored into its slot: a value
  // stored narrow and read back wide (an entry staged on the stack and
  // copied with 16-byte loads) stalls store-to-load forwarding.
  const Entry e{when, seq, idx, key};
  if (++live_count_ > peak_size_) peak_size_ = live_count_;
  if (!heap_.empty() && !e.before(heap_.front())) {
    push_far(e);
    return;
  }
  if (near_.size() == kNearCapacity) {
    // Full: the latest of the near tier's entries and `e` goes to the far
    // part. It precedes every far entry, so it is due at or before base_
    // and the heap takes it as its new top.
    if (!e.before(near_.front())) {
      push_far(e);
      return;
    }
    push_far(near_.front());
    near_.erase(near_.begin());
  }
  // Insertion from the earliest end: a packet's next hop passes few
  // entries. Those due before `e` move up one slot, and `e` is written
  // into the slot they leave.
  std::size_t i = near_.size();
  near_.emplace_back();
  for (; i > 0 && near_[i - 1].before(e); --i) near_[i] = near_[i - 1];
  near_[i] = e;
}

void EventQueue::sift_up(std::size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::remove_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

SimTime EventQueue::next_time() const {
  assert(!near_.empty() || !heap_.empty());
  return near_.empty() ? heap_.front().time : near_.back().time;
}

inline bool EventQueue::take(SimTime last, Entry& out) {
  if (!near_.empty()) {
    if (near_.back().time > last) return false;
    out = near_.back();
    near_.pop_back();
  } else {
    if (heap_.empty() || heap_.front().time > last) return false;
    out = heap_.front();
    remove_top();
    if (heap_.empty() && occupied_ != 0) refill();
  }
  --live_count_;
  return true;
}

std::optional<EventQueue::Popped> EventQueue::pop_until(SimTime last) {
  Entry e{};
  if (!take(last, e)) return std::nullopt;
  return std::optional<Popped>(std::in_place, PopKey{}, *this, e.time, e.seq,
                               e.slot);
}

EventQueue::Popped EventQueue::pop() {
  Entry e{};
  [[maybe_unused]] const bool taken =
      take(std::numeric_limits<SimTime>::max(), e);
  assert(taken && "pop() on an empty queue");
  return Popped(PopKey{}, *this, e.time, e.seq, e.slot);
}

}  // namespace speedlight::sim
