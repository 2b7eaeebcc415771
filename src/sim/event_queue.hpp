// The discrete-event core: a slab of event slots indexed by ordering
// entries in three tiers: a small sorted near tier, an explicit 4-ary
// min-heap, and radix time buckets behind the heap.
//
// Events at the same timestamp run in (merge key, schedule order): an
// explicit 32-bit merge key ranks first and a monotonically increasing
// sequence number breaks the remaining ties. Plain schedule() uses key 0,
// which reproduces pure schedule order. Cross-component deliveries (link
// arrivals, observer RPCs, poll legs) carry an intrinsic channel key, so
// the same-timestamp merge order at a destination is a property of the
// channel, not of which component scheduled first (DESIGN.md section 8).
//
// Design (allocation-free in steady state):
//  - Callbacks are constructed directly in a slab slot and run there: pop()
//    hands out the slot, and the slot is recycled once the callback has
//    returned. Slots live in fixed 64-slot chunks, so a running callback
//    never moves when it schedules more events. Freed slot indices are kept
//    on a freelist, so steady-state schedule/pop touches no allocator.
//  - Every tier orders lightweight 24-byte (time, key, seq, slot) entries;
//    no hashing anywhere on the hot path.
//  - Near tier and far part, one order. An entry that precedes the far
//    part's earliest entry (the heap's top), or arrives while the far part
//    is empty, goes into the near tier: at most kNearCapacity entries kept
//    sorted latest-first, so the earliest pops off the end with no sift.
//    Every other entry takes the far part. Every near entry precedes every
//    far entry, so the earliest near entry is the earliest event and pops
//    leave the exact (time, key, seq) order. A full near tier hands its
//    latest entry to the far part, which keeps that invariant. A packet's
//    next hop lands among the few earliest pending events while far-future
//    timers fill the rest of the queue (DESIGN.md section 8), so most
//    entries of a small queue never leave the near tier.
//  - The far part is the heap of its entries due at a base time, its
//    earliest, in front of 64 radix buckets of the later ones: an entry due
//    after the base goes, with no comparison, into the bucket of the
//    highest bit in which its time differs from the base. When the heap
//    empties, the lowest non-empty bucket refills it: the base moves to
//    that bucket's earliest time, its entries at that time enter the heap
//    and the rest move to lower buckets. A near-tier eviction due before
//    the base lowers the base to its time, and the heap's entries and those
//    of the buckets below the highest bit in which the two bases differ
//    move into that bit's bucket. Every bucket entry is later than every
//    heap entry, so the heap's top is the far part's earliest entry, and a
//    deep queue (a large fabric's round) sifts only the entries of one
//    instant.
//  - A scheduled event always runs; there is no cancellation. A timer that
//    may become moot captures an epoch and returns early when it no longer
//    matches (DESIGN.md section 8), so every entry in every tier is live.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// Same-timestamp merge rank. 0 (the default) sorts before every channel
/// key, so purely local events keep schedule order among themselves.
using MergeKey = std::uint32_t;

class EventQueue {
 public:
  using Callback = InplaceCallback;

  /// Near-tier capacity (3 KB of entries). The Hadoop testbed peaks at 120
  /// pending events, so its whole queue fits; a new entry shifts only the
  /// entries due before it, which for a packet hop are the few earliest.
  static constexpr std::size_t kNearCapacity = 128;

  EventQueue() { near_.reserve(kNearCapacity); }
  // Popped handles and running callbacks point into the slab.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute time `when`. `when` may not be in the
  /// past relative to the last popped event.
  template <typename F>
  void schedule(SimTime when, F&& fn) {
    schedule_keyed(when, 0, std::forward<F>(fn));
  }

  /// Schedule with an explicit same-timestamp merge key: events at equal
  /// times run in (key, schedule order). Cross-component channels use their
  /// channel id so delivery interleaving is a property of the channel.
  template <typename F>
  void schedule_keyed(SimTime when, MergeKey key, F&& fn) {
    const std::uint32_t idx = acquire_slot();
    callback(idx).emplace(std::forward<F>(fn));
    push(when, key, next_seq_++, idx);
  }

  /// True if no events are pending.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of pending events: the entries in every tier.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Timestamp of the next event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Only the queue builds a Popped (std::optional constructs it in place).
  class PopKey {
    friend class EventQueue;
    PopKey() = default;
  };

  /// The event a pop took off its tier. Its callback `fn` stays in its slab
  /// slot, where it is run; the slot is recycled when this handle is
  /// destroyed. `seq` is the schedule-order tie-break, exposed so the
  /// determinism auditor can fingerprint tie pairs.
  class Popped {
   public:
    SimTime time;
    std::uint64_t seq;
    Callback& fn;

    Popped(PopKey /*only the queue*/, EventQueue& q, SimTime t,
           std::uint64_t s, std::uint32_t slot)
        : time(t), seq(s), fn(q.callback(slot)), queue_(q), slot_(slot) {}
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    ~Popped() { queue_.recycle(slot_); }

   private:
    EventQueue& queue_;
    std::uint32_t slot_;
  };

  /// Pop the next event if it is due at or before `last`, else
  /// nothing: the bounded pop a run loop makes once per event, instead of
  /// next_time() followed by pop().
  std::optional<Popped> pop_until(SimTime last);

  /// Pop the next event. Precondition: !empty().
  Popped pop();

  // --- Introspection (tests and the perf harness) ---------------------------
  /// The near tier's share of size(). These are the earliest entries: every
  /// one precedes every entry in the far part.
  [[nodiscard]] std::size_t near_entries() const { return near_.size(); }
  /// High-water mark of size(): the deepest the queue has been.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  /// Slots ever allocated in the slab (high-water mark of concurrent events).
  [[nodiscard]] std::size_t slab_slots() const { return slab_slots_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    MergeKey key;

    [[nodiscard]] bool before(const Entry& o) const {
      if (time != o.time) return time < o.time;
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };
  static_assert(sizeof(Entry) == 24);

  static constexpr std::size_t kArity = 4;
  /// 64 slots per chunk: the fuzzer builds thousands of short-lived
  /// simulators that never fill a larger chunk.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  [[nodiscard]] Callback& callback(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] std::uint32_t acquire_slot();
  /// Enter slot `idx` (callback already built) into the order: into the
  /// near tier if it precedes the heap's top, else into the far part. The
  /// one insert path.
  void push(SimTime when, MergeKey key, std::uint64_t seq, std::uint32_t idx);
  /// Enter `e` into the far part, keeping the heap non-empty whenever the
  /// far part is.
  void push_far(Entry e);
  /// The bucket of an entry due after base_ at `t`.
  [[nodiscard]] int bucket_of(SimTime t) const;
  /// Into its bucket if `e` is due after base_, else into the heap; an
  /// entry due before base_ first lowers base_ to its time.
  void file(Entry e);
  /// Precondition: `t` < base_ and no far entry is due before `t`. Move
  /// base_ down to `t`, and the heap's entries into the buckets.
  void lower_base(SimTime t);
  /// Precondition: the heap is empty and some bucket is not. Move base_ to
  /// the lowest non-empty bucket's earliest time and re-file its entries.
  void refill();
  /// Take the earliest entry off its tier into `out`, if that entry is due
  /// at or before `last`. The one pop path.
  bool take(SimTime last, Entry& out);
  /// Destroy the slot's callback and return the slot to the freelist. The
  /// freelist's capacity follows the slab, so this never allocates.
  void recycle(std::uint32_t idx) noexcept {
    callback(idx).reset();
    free_.push_back(idx);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the root entry and restore the heap property.
  void remove_top();

  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_;
  /// The near tier: sorted latest-first, so the earliest entry is back().
  /// Capacity kNearCapacity, reserved at construction.
  std::vector<Entry> near_;
  /// The far part. The heap holds its entries due at base_. Bucket b
  /// holds those due after base_ whose time differs from base_ first in
  /// bit b, and bit b of occupied_ is set while bucket b is non-empty. The
  /// heap is empty only when every bucket is.
  std::vector<Entry> heap_;
  std::array<std::vector<Entry>, 64> buckets_;
  std::uint64_t occupied_ = 0;
  SimTime base_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::uint32_t slab_slots_ = 0;
};

}  // namespace speedlight::sim
