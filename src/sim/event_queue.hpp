// The discrete-event core: a slab of generation-counted event slots indexed
// by two tiers of ordering entries, a small sorted near tier in front of an
// explicit 4-ary min-heap.
//
// Events at the same timestamp run in (merge key, schedule order): an
// explicit 32-bit merge key ranks first and a monotonically increasing
// sequence number breaks the remaining ties. Plain schedule() uses key 0,
// which reproduces pure schedule order. Cross-component deliveries (link
// arrivals, observer RPCs, poll legs) carry an intrinsic channel key, so
// the same-timestamp merge order at a destination is a property of the
// channel, not of which component scheduled first (sim/endpoint.hpp).
//
// Design (allocation-free in steady state):
//  - Callbacks are constructed directly in a slab slot and run there: pop()
//    hands out the slot, and the slot is recycled once the callback has
//    returned. Slots live in fixed 64-slot chunks, so a running callback
//    never moves when it schedules more events. Freed slot indices are kept
//    on a freelist, so steady-state schedule/pop touches no allocator.
//  - Both tiers order lightweight (time, key, seq, slot, generation)
//    entries; no hashing anywhere on the hot path.
//  - Two tiers, one order. An entry that precedes the heap's top, or arrives
//    while the heap is empty, goes into the near tier: at most kNearCapacity
//    entries kept sorted latest-first, so the earliest pops off the end with
//    no sift. Every other entry takes the heap. Every near entry precedes
//    every heap entry, so the earliest near entry is the earliest event and
//    pops leave the exact (time, key, seq) order. A full near tier hands its
//    latest entry to the heap, which keeps that invariant. A packet's next
//    hop lands among the few earliest pending events while far-future
//    timers fill the rest of the queue (DESIGN.md section 8), so most
//    entries never touch the heap.
//  - A sequence number can be reserved without scheduling anything and used
//    later (schedule_reserved): an event that may turn out to be unneeded
//    keeps the exact place in the order it would have had.
//  - cancel() is O(1): it destroys the callback, bumps the slot generation
//    (invalidating the tier entry and the EventId), and recycles the slot.
//    Stale entries are removed lazily at the top of either tier, and both
//    tiers are compacted (filter, then re-heapify the heap) whenever stale
//    entries exceed half of all entries — bounding the entries at 2x the
//    live event count no matter how adversarial the schedule/cancel churn
//    is (e.g. periodic snapshot re-arms).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// Handle used to cancel a scheduled event: (slot generation << 32) | slot
/// index. Generations start at 1, so 0 is never a valid handle and may be
/// used as a "no event" sentinel.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// Same-timestamp merge rank. 0 (the default) sorts before every channel
/// key, so purely local events keep schedule order among themselves.
using MergeKey = std::uint32_t;

class EventQueue {
 public:
  using Callback = InplaceCallback;

  /// Near-tier capacity (4 KB of entries). The Hadoop testbed peaks at 120
  /// pending events, so its whole queue fits; a new entry shifts only the
  /// entries due before it, which for a packet hop are the few earliest.
  static constexpr std::size_t kNearCapacity = 128;

  EventQueue() { near_.reserve(kNearCapacity); }
  // Popped handles and running callbacks point into the slab.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute time `when`. Returns a handle that can
  /// be passed to cancel(). `when` may not be in the past relative to the
  /// last popped event.
  template <typename F>
  EventId schedule(SimTime when, F&& fn) {
    return schedule_reserved(when, 0, next_seq_++, std::forward<F>(fn));
  }

  /// Schedule with an explicit same-timestamp merge key: events at equal
  /// times run in (key, schedule order). Cross-component channels use their
  /// channel id so delivery interleaving is a property of the channel.
  template <typename F>
  EventId schedule_keyed(SimTime when, MergeKey key, F&& fn) {
    return schedule_reserved(when, key, next_seq_++, std::forward<F>(fn));
  }

  /// Take the next sequence number without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule at (when, key, seq) with a `seq` from reserve_seq(). Each
  /// reserved number may be used at most once.
  template <typename F>
  EventId schedule_reserved(SimTime when, MergeKey key, std::uint64_t seq,
                            F&& fn) {
    assert(seq < next_seq_ && "sequence number was never reserved");
    const std::uint32_t idx = acquire_slot();
    callback(idx).emplace(std::forward<F>(fn));
    return push(when, key, seq, idx);
  }

  /// The sequence number the next schedule or reservation will take. Every
  /// number below it has been handed out.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Cancel a previously scheduled event. Cancelling an already-executed or
  /// unknown event is a no-op; returns whether anything was cancelled.
  bool cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of runnable events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Timestamp of the next runnable event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Only the queue builds a Popped (std::optional constructs it in place).
  class PopKey {
    friend class EventQueue;
    PopKey() = default;
  };

  /// The event a pop took off its tier. Its id is already retired (cancel()
  /// on it is a no-op), and its callback `fn` stays in its slab slot, where
  /// it is run; the slot is recycled when this handle is destroyed. `seq`
  /// is the schedule-order tie-break, exposed so the determinism auditor
  /// can fingerprint tie pairs.
  class Popped {
   public:
    SimTime time;
    MergeKey key;
    std::uint64_t seq;
    Callback& fn;

    Popped(PopKey /*only the queue*/, EventQueue& q, SimTime t, MergeKey k,
           std::uint64_t s, std::uint32_t slot)
        : time(t), key(k), seq(s), fn(q.callback(slot)), queue_(q),
          slot_(slot) {}
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    ~Popped() { queue_.recycle(slot_); }

   private:
    EventQueue& queue_;
    std::uint32_t slot_;
  };

  /// Pop the next runnable event if it is due at or before `last`, else
  /// nothing: the bounded pop a run loop makes once per event, instead of
  /// next_time() followed by pop().
  std::optional<Popped> pop_until(SimTime last);

  /// Pop the next runnable event. Precondition: !empty().
  Popped pop();

  // --- Introspection (tests and the perf harness) ---------------------------
  /// Entries in both tiers, including cancelled-but-not-yet-removed ones.
  /// At most 2 * size() after every cancel, through lazy compaction (the
  /// stale-entry leak regression).
  [[nodiscard]] std::size_t heap_entries() const {
    return near_.size() + heap_.size();
  }
  /// The near tier's share of heap_entries(). These are the earliest
  /// entries: every one precedes every entry in the heap.
  [[nodiscard]] std::size_t near_entries() const { return near_.size(); }
  /// High-water mark of size(): the deepest the queue has been.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  /// Slots ever allocated in the slab (high-water mark of concurrent events).
  [[nodiscard]] std::size_t slab_slots() const { return generations_.size(); }
  /// Number of compactions (of both tiers) triggered by cancellation churn.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  /// Entries carry their own ordering key so a cancelled slot can be
  /// recycled immediately: the stale entry keeps comparing with the key it
  /// was scheduled with until lazy removal gets rid of it.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    MergeKey key;

    [[nodiscard]] bool before(const Entry& o) const {
      if (time != o.time) return time < o.time;
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };

  static constexpr std::size_t kArity = 4;
  /// 64 slots per chunk: the fuzzer builds thousands of short-lived
  /// simulators that never fill a larger chunk.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  [[nodiscard]] Callback& callback(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] bool stale(const Entry& e) const {
    return generations_[e.slot] != e.generation;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  /// Enter slot `idx` (callback already built) into the order: into the
  /// near tier if it precedes the heap's top, else into the heap. The one
  /// insert path.
  EventId push(SimTime when, MergeKey key, std::uint64_t seq,
               std::uint32_t idx);
  void push_heap(Entry e);
  /// Take the earliest live entry off its tier into `out` and retire its
  /// slot, if that entry is due at or before `last`. The one pop path.
  bool take(SimTime last, Entry& out);
  /// Invalidate the slot's id and any tier entry still naming it.
  void retire(std::uint32_t idx) {
    if (++generations_[idx] == 0) ++generations_[idx];  // Ids stay non-zero.
  }
  /// Destroy the slot's callback and return the slot to the freelist. The
  /// freelist's capacity follows the slab, so this never allocates.
  void recycle(std::uint32_t idx) noexcept {
    callback(idx).reset();
    free_.push_back(idx);
  }
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Remove the root entry (stale or live) and restore the heap property.
  void remove_top() const;
  /// Drop stale entries from the near tier's top, then, if that empties the
  /// tier, from the heap's top: afterwards the earliest entry is live.
  void purge_stale_tops() const;
  /// Filter out every stale entry from both tiers and re-heapify; O(entries).
  void compact();

  std::vector<std::unique_ptr<Callback[]>> chunks_;
  /// Per-slot generation, dense so stale checks stay cache-friendly.
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_;
  // `mutable` because next_time() lazily sheds stale top entries, exactly
  // like the old implementation's drop_cancelled().
  /// The near tier: sorted latest-first, so the earliest entry is back().
  /// Capacity kNearCapacity, reserved at construction.
  mutable std::vector<Entry> near_;
  mutable std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace speedlight::sim
