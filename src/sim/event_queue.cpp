#include "sim/event_queue.hpp"

#include <algorithm>
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
  assert(generations_.size() < 0xffffffffu && "event slab exhausted");
  // Slab growth is amortized infrastructure: steady state recycles slots
  // and stops growing. Exempt from the data-path allocation guard.
  det::DetAllow allow_growth;
  const auto idx = static_cast<std::uint32_t>(generations_.size());
  if ((idx & (kChunkSlots - 1)) == 0) {
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
    free_.reserve(chunks_.size() * kChunkSlots);
  }
  generations_.push_back(1);
  return idx;
}

// `inline`, like take() below, so the heap path keeps the call depth of a
// heap-only queue: nearly every entry of a k=32 round takes it. By value,
// so that push() never takes the address of the entry it builds.
inline void EventQueue::push_heap(Entry e) {
  // Heap growth is amortized infrastructure, like the slab.
  det::DetAllow allow_growth;
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

EventId EventQueue::push(SimTime when, MergeKey key, std::uint64_t seq,
                         std::uint32_t idx) {
  assert(callback(idx) && "cannot schedule an empty callback");
  const std::uint32_t gen = generations_[idx];
  // Form the id before the insert, and keep the entry in registers until
  // it is stored into its slot: a value stored narrow and read back wide
  // (an entry staged on the stack and copied with 16-byte loads, a 32-bit
  // generation spilled across the insert and reloaded as 64 bits) stalls
  // store-to-load forwarding.
  const EventId id = (static_cast<EventId>(gen) << 32) | idx;
  const Entry e{when, seq, idx, gen, key};
  if (++live_count_ > peak_size_) peak_size_ = live_count_;
  if (!heap_.empty() && !e.before(heap_.front())) {
    push_heap(e);
    return id;
  }
  if (near_.size() == kNearCapacity) {
    // Full: the latest of the near tier's entries and `e` goes to the heap.
    // It precedes every heap entry, so the heap takes it as its new top.
    if (!e.before(near_.front())) {
      push_heap(e);
      return id;
    }
    push_heap(near_.front());
    near_.erase(near_.begin());
  }
  // Insertion from the earliest end: a packet's next hop passes few
  // entries. Those due before `e` move up one slot, and `e` is written
  // into the slot they leave.
  std::size_t i = near_.size();
  near_.emplace_back();
  for (; i > 0 && near_[i - 1].before(e); --i) near_[i] = near_[i - 1];
  near_[i] = e;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= generations_.size() || generations_[idx] != gen) return false;
  retire(idx);  // O(1); the tier entry goes stale.
  recycle(idx);
  --live_count_;
  // Keep stale entries at no more than half of all entries: compaction is
  // O(n) but amortizes to O(1) per cancel, and bounds entries at 2x live.
  const std::size_t entries = heap_entries();
  if (entries - live_count_ > entries / 2) compact();
  return true;
}

void EventQueue::sift_up(std::size_t i) const {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) const {
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

void EventQueue::remove_top() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::purge_stale_tops() const {
  while (!near_.empty() && stale(near_.back())) near_.pop_back();
  if (near_.empty()) {
    while (!heap_.empty() && stale(heap_.front())) remove_top();
  }
}

void EventQueue::compact() {
  std::erase_if(near_, [this](const Entry& e) { return stale(e); });
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  const std::size_t n = heap_.size();
  if (n > 1) {
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  ++compactions_;
}

SimTime EventQueue::next_time() const {
  purge_stale_tops();
  assert(!near_.empty() || !heap_.empty());
  return near_.empty() ? heap_.front().time : near_.back().time;
}

inline bool EventQueue::take(SimTime last, Entry& out) {
  purge_stale_tops();
  if (!near_.empty()) {
    if (near_.back().time > last) return false;
    out = near_.back();
    near_.pop_back();
  } else {
    if (heap_.empty() || heap_.front().time > last) return false;
    out = heap_.front();
    remove_top();
  }
  retire(out.slot);
  --live_count_;
  return true;
}

std::optional<EventQueue::Popped> EventQueue::pop_until(SimTime last) {
  Entry e{};
  if (!take(last, e)) return std::nullopt;
  return std::optional<Popped>(std::in_place, PopKey{}, *this, e.time, e.key,
                               e.seq, e.slot);
}

EventQueue::Popped EventQueue::pop() {
  Entry e{};
  [[maybe_unused]] const bool taken =
      take(std::numeric_limits<SimTime>::max(), e);
  assert(taken && "pop() on an empty queue");
  return Popped(PopKey{}, *this, e.time, e.key, e.seq, e.slot);
}

}  // namespace speedlight::sim
