#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
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

EventId EventQueue::push(SimTime when, MergeKey key, std::uint64_t seq,
                         std::uint32_t idx) {
  assert(callback(idx) && "cannot schedule an empty callback");
  // Heap growth is amortized infrastructure, like the slab.
  det::DetAllow allow_growth;
  const std::uint32_t gen = generations_[idx];
  heap_.push_back(HeapEntry{when, seq, idx, gen, key});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return (static_cast<EventId>(gen) << 32) | idx;
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= generations_.size() || generations_[idx] != gen) return false;
  retire(idx);  // O(1); the heap entry goes stale.
  recycle(idx);
  --live_count_;
  // Keep stale entries at no more than half the heap: compaction is O(n)
  // but amortizes to O(1) per cancel, and bounds the heap at 2x live.
  if (heap_.size() - live_count_ > heap_.size() / 2) compact();
  return true;
}

void EventQueue::sift_up(std::size_t i) const {
  HeapEntry e = heap_[i];
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
  HeapEntry e = heap_[i];
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

void EventQueue::purge_stale_top() const {
  while (!heap_.empty() && stale(heap_.front())) remove_top();
}

void EventQueue::compact() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < heap_.size(); ++r) {
    if (!stale(heap_[r])) heap_[w++] = heap_[r];
  }
  heap_.resize(w);
  if (w > 1) {
    for (std::size_t i = (w - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  ++compactions_;
}

SimTime EventQueue::next_time() const {
  purge_stale_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  purge_stale_top();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  retire(top.slot);
  remove_top();
  --live_count_;
  return Popped(*this, top.time, top.key, top.seq, top.slot);
}

}  // namespace speedlight::sim
