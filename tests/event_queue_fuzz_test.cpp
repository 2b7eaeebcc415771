// Randomized differential test: the two-tier slab EventQueue against a
// naive reference model, under ~100k mixed operations per seed. The test
// uses every way the simulator enters and leaves the order: schedule(),
// schedule_keyed(), reserve_seq() followed later by schedule_reserved(),
// cancel(), pop() and the bounded pop_until(). Verifies identical pop order,
// timestamps, and payloads, identical cancel outcomes, and the
// boundedness guarantee (entries in both tiers <= 2x live events after
// every cancellation that cancels something). A hold-shaped profile (far
// timers under packet chains, like the Hadoop testbed) drives the pending
// count across the near tier's capacity in both directions and cancels
// entries in both tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace speedlight::sim {
namespace {

/// The obviously correct model: a flat list of pending events, popped by
/// linear min-scan on (time, merge key, sequence number).
class ReferenceQueue {
 public:
  std::uint64_t reserve_seq() { return next_seq_++; }

  std::uint64_t schedule(SimTime when, MergeKey key, std::uint64_t seq,
                         int payload) {
    entries_.push_back(Entry{when, key, seq, next_id_, payload, true});
    return next_id_++;
  }

  bool cancel(std::uint64_t id) {
    for (auto& e : entries_) {
      if (e.id == id && e.alive) {
        e.alive = false;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool pending(std::uint64_t id) const {
    for (const auto& e : entries_) {
      if (e.id == id && e.alive) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.alive ? 1 : 0;
    return n;
  }

  /// Live events that run before event `id` (which must be live).
  [[nodiscard]] std::size_t rank(std::uint64_t id) const {
    const Entry* target = nullptr;
    for (const auto& e : entries_) {
      if (e.id == id && e.alive) target = &e;
    }
    std::size_t n = 0;
    for (const auto& e : entries_) n += (e.alive && e.before(*target)) ? 1 : 0;
    return n;
  }

  struct Popped {
    SimTime time;
    int payload;
  };
  /// The earliest live event. Precondition: size() > 0.
  [[nodiscard]] Popped peek() const {
    const Entry& e = entries_[earliest()];
    return Popped{e.time, e.payload};
  }
  Popped pop() {
    const std::size_t best = earliest();
    Popped out{entries_[best].time, entries_[best].payload};
    entries_[best].alive = false;
    maybe_compact();
    return out;
  }

 private:
  struct Entry {
    SimTime time;
    MergeKey key;
    std::uint64_t seq;
    std::uint64_t id;
    int payload;
    bool alive;

    [[nodiscard]] bool before(const Entry& o) const {
      if (time != o.time) return time < o.time;
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };

  [[nodiscard]] std::size_t earliest() const {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].alive) continue;
      if (best == entries_.size() || entries_[i].before(entries_[best])) {
        best = i;
      }
    }
    return best;
  }

  void maybe_compact() {
    if (entries_.size() < 1024 || size() * 2 > entries_.size()) return;
    std::vector<Entry> live;
    live.reserve(entries_.size() / 2);
    for (auto& e : entries_) {
      if (e.alive) live.push_back(e);
    }
    entries_ = std::move(live);
  }

  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
};

/// Drives the queue under test and the reference in lockstep; every call
/// checks that both agree.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : seed_(seed) {}

  /// One logical event, scheduled in both queues.
  struct Handle {
    EventId q;
    std::uint64_t ref;
    int payload;
  };
  /// A sequence number reserved in both queues.
  struct Reserved {
    std::uint64_t q;
    std::uint64_t ref;
  };

  Handle schedule(SimTime when) {
    const int payload = next_payload_++;
    const EventId id = q_.schedule(when, run(payload));
    return Handle{id, ref_.schedule(when, 0, ref_.reserve_seq(), payload),
                  payload};
  }

  Handle schedule_keyed(SimTime when, MergeKey key) {
    const int payload = next_payload_++;
    const EventId id = q_.schedule_keyed(when, key, run(payload));
    return Handle{id, ref_.schedule(when, key, ref_.reserve_seq(), payload),
                  payload};
  }

  Reserved reserve() { return Reserved{q_.reserve_seq(), ref_.reserve_seq()}; }

  Handle schedule_reserved(SimTime when, MergeKey key, const Reserved& r) {
    const int payload = next_payload_++;
    const EventId id = q_.schedule_reserved(when, key, r.q, run(payload));
    return Handle{id, ref_.schedule(when, key, r.ref, payload), payload};
  }

  /// Cancel in both; they must agree on whether anything was pending. A hit
  /// is attributed to the tier that held it where that is certain (see
  /// near_cancels / heap_cancels).
  bool cancel(const Handle& h) {
    if (ref_.pending(h.ref)) {
      // The near tier holds the earliest entries, so an event with at least
      // near_entries() live events ahead of it is in the heap, and one with
      // fewer live events ahead than the near tier's live entries (at least
      // its entries minus every stale one) is in the near tier.
      const std::size_t rank = ref_.rank(h.ref);
      const std::size_t stale = q_.heap_entries() - q_.size();
      if (rank + stale < q_.near_entries()) ++near_cancels_;
      if (rank >= q_.near_entries()) ++heap_cancels_;
    }
    const bool ref_hit = ref_.cancel(h.ref);
    EXPECT_EQ(q_.cancel(h.q), ref_hit) << where();
    // The boundedness guarantee is enforced at cancellation time: after a
    // cancel, stale entries never exceed half of both tiers together. (Pops
    // that follow can leave stale far timers in a smaller queue until the
    // next cancel or until they surface.)
    if (ref_hit) {
      EXPECT_LE(q_.heap_entries(), 2 * q_.size()) << where();
    }
    check_sizes();
    return ref_hit;
  }

  /// Pop the earliest event from both and run it; returns its payload, or
  /// nothing if both are empty.
  std::optional<int> pop() {
    if (q_.empty()) {
      EXPECT_EQ(ref_.size(), 0u) << where();
      return std::nullopt;
    }
    EXPECT_EQ(q_.next_time(), ref_.peek().time) << where();
    auto popped = q_.pop();
    return finish(popped.time, popped.fn);
  }

  /// The bounded pop: both must agree on whether anything is due by `last`.
  std::optional<int> pop_until(SimTime last) {
    auto popped = q_.pop_until(last);
    const bool due = ref_.size() > 0 && ref_.peek().time <= last;
    EXPECT_EQ(popped.has_value(), due) << where();
    if (!popped) return std::nullopt;
    return finish(popped->time, popped->fn);
  }

  void drain() {
    while (pop()) {
    }
    EXPECT_EQ(ref_.size(), 0u);
    EXPECT_EQ(q_.heap_entries(), 0u);
  }

  void next_op() { ++op_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] std::size_t entries() const { return q_.heap_entries(); }
  [[nodiscard]] std::uint64_t near_cancels() const { return near_cancels_; }
  [[nodiscard]] std::uint64_t heap_cancels() const { return heap_cancels_; }
  [[nodiscard]] std::string where() const {
    return "seed " + std::to_string(seed_) + " op " + std::to_string(op_);
  }

 private:
  /// The callback both queues run: records which event it was.
  struct Run {
    int* last;
    int payload;
    void operator()() const { *last = payload; }
  };
  Run run(int payload) { return Run{&last_payload_, payload}; }

  std::optional<int> finish(SimTime time, EventQueue::Callback& fn) {
    const auto expect = ref_.pop();
    EXPECT_EQ(time, expect.time) << where();
    EXPECT_GE(time, now_) << where();
    fn();
    EXPECT_EQ(last_payload_, expect.payload) << where();
    now_ = time;
    check_sizes();
    return expect.payload;
  }

  void check_sizes() {
    EXPECT_EQ(q_.size(), ref_.size()) << where();
    EXPECT_EQ(q_.empty(), ref_.size() == 0) << where();
  }

  std::uint64_t seed_;
  EventQueue q_;
  ReferenceQueue ref_;
  SimTime now_ = 0;
  int last_payload_ = -1;
  int next_payload_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t near_cancels_ = 0;
  std::uint64_t heap_cancels_ = 0;
};

/// Merge keys with plenty of collisions, including the extremes.
MergeKey pick_key(Rng& rng) {
  constexpr MergeKey kKeys[] = {0, 0, 1, 2, 7, 0xffffffffu};
  return kKeys[rng.uniform_int(0, std::size(kKeys) - 1)];
}

void run_differential(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Differential d(seed);
  std::vector<Differential::Handle> handles;
  // Reservations waiting to be used, each with the time it was taken for.
  std::vector<std::pair<SimTime, Differential::Reserved>> reserved;

  for (int i = 0; i < ops; ++i) {
    d.next_op();
    const auto r = rng.uniform_int(0, 99);
    // Coarse times make same-time ties (and so the key and seq ranks)
    // common.
    const SimTime when =
        d.now() + static_cast<SimTime>(rng.uniform_int(0, 997) / 16 * 16);
    if (r < 25) {
      handles.push_back(d.schedule(when));
    } else if (r < 35) {
      handles.push_back(d.schedule_keyed(when, pick_key(rng)));
    } else if (r < 38) {
      reserved.emplace_back(when, d.reserve());
    } else if (r < 42) {
      // Use a reservation, taking the place it was reserved for, unless
      // execution has already gone past that time.
      if (reserved.empty()) continue;
      const auto pick = rng.uniform_int(0, reserved.size() - 1);
      const auto [at, res] = reserved[pick];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
      if (at >= d.now()) handles.push_back(d.schedule_reserved(at, 0, res));
    } else if (r < 60) {
      if (handles.empty()) continue;
      // Target any event ever scheduled: pending (cancel succeeds), already
      // popped or already cancelled (cancel is a no-op). Both queues must
      // agree on which. Without far timers, stale entries surface soon, so
      // the bound holds after no-op cancels here too.
      d.cancel(handles[rng.uniform_int(0, handles.size() - 1)]);
      EXPECT_LE(d.entries(), 2 * d.size()) << d.where();
    } else if (r < 80) {
      d.pop();
    } else {
      d.pop_until(d.now() + static_cast<SimTime>(rng.uniform_int(0, 400)));
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Drain both completely; order must match to the last event.
  d.drain();
}

TEST(EventQueueFuzz, DifferentialSeed1) { run_differential(1, 100'000); }
TEST(EventQueueFuzz, DifferentialSeed42) { run_differential(42, 100'000); }
TEST(EventQueueFuzz, DifferentialSeed2026) { run_differential(2026, 100'000); }

/// The testbed's queue shape, pushed past the near tier's capacity and back:
/// ~30 far timers re-armed 8-131 us ahead (some cancelled and re-armed
/// early, like protocol timeouts) under packet chains whose next hop is
/// 0.5-8 us ahead. Some hops are keyed, some take a place reserved a few
/// operations earlier, and some are dropped (cancelled). Chain counts swing
/// between a few and ~200 in waves, so the pending count crosses
/// kNearCapacity in both directions many times.
void run_hold(std::uint64_t seed, int events) {
  constexpr int kTimers = 30;
  constexpr std::size_t kLow = 8;
  constexpr std::size_t kHigh = 200;
  constexpr std::size_t kNear = EventQueue::kNearCapacity;
  static_assert(kTimers + kLow < kNear && kTimers + kHigh > kNear);

  Rng rng(seed);
  Differential d(seed);
  auto far = [&] {
    return d.now() + 8'000 + static_cast<SimTime>(rng.uniform_int(0, 123'000));
  };
  auto hop = [&] {
    return d.now() + 500 + static_cast<SimTime>(rng.uniform_int(0, 7'500));
  };

  std::vector<Differential::Handle> timers;
  for (int t = 0; t < kTimers; ++t) timers.push_back(d.schedule(far()));
  std::vector<Differential::Handle> chains;  // Every hop ever scheduled.
  std::vector<std::pair<SimTime, Differential::Reserved>> wakeups;
  std::size_t target = kHigh;  // Chain count the current wave heads for.
  std::size_t live_chains = 0;
  int above = 0;  // Crossings of kNear upward ...
  int below = 0;  // ... and downward.
  bool was_above = false;

  for (int i = 0; i < events; ++i) {
    d.next_op();
    // Grow or shrink toward the wave's target; turn the wave at either end.
    if (live_chains >= kHigh) target = kLow;
    if (live_chains <= kLow) target = kHigh;
    if (live_chains < target && rng.chance(0.6)) {
      ++live_chains;
      chains.push_back(rng.chance(0.3)
                           ? d.schedule_keyed(hop(), pick_key(rng))
                           : d.schedule(hop()));
    }
    const auto r = rng.uniform_int(0, 99);
    if (r < 3) {
      // A timeout re-armed before it fires.
      auto& t = timers[rng.uniform_int(0, timers.size() - 1)];
      if (d.cancel(t)) t = d.schedule(far());
    } else if (r < 6 && !chains.empty()) {
      // A dropped packet: a recent hop goes away if it is still pending.
      const std::size_t recent = std::min<std::size_t>(chains.size(), 64);
      const std::size_t back = rng.uniform_int(0, recent - 1);
      if (d.cancel(chains[chains.size() - 1 - back])) {
        --live_chains;
      }
    } else if (r < 10) {
      wakeups.emplace_back(hop(), d.reserve());
    } else if (r < 14 && !wakeups.empty()) {
      const auto [at, res] = wakeups.back();
      wakeups.pop_back();
      if (at >= d.now()) {
        ++live_chains;
        chains.push_back(d.schedule_reserved(at, 0, res));
      }
    } else {
      const auto payload =
          r < 30 ? d.pop_until(d.now() + static_cast<SimTime>(
                                             rng.uniform_int(0, 2'000)))
                 : d.pop();
      if (payload) {
        // Timers keep their count: one that fires is re-armed. A chain ends
        // when the wave shrinks, else takes its next hop.
        auto timer = std::find_if(timers.begin(), timers.end(),
                                  [&](const Differential::Handle& t) {
                                    return t.payload == *payload;
                                  });
        if (timer != timers.end()) {
          *timer = d.schedule(far());
        } else if (live_chains > target) {
          --live_chains;
        } else {
          chains.push_back(d.schedule(hop()));
        }
      }
    }
    const bool is_above = d.size() > kNear;
    if (is_above && !was_above) ++above;
    if (!is_above && was_above) ++below;
    was_above = is_above;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(above, 3) << "pending never crossed kNearCapacity upward";
  EXPECT_GE(below, 3) << "pending never crossed kNearCapacity downward";
  EXPECT_GT(d.near_cancels(), 0u) << "no cancel hit the near tier";
  EXPECT_GT(d.heap_cancels(), 0u) << "no cancel hit the heap";
  d.drain();
}

TEST(EventQueueFuzz, HoldProfileSeed7) { run_hold(7, 100'000); }
TEST(EventQueueFuzz, HoldProfileSeed99) { run_hold(99, 100'000); }

// Heavy cancellation mix: most scheduled events get cancelled, stressing
// slot recycling, generation bumps, and compaction.
TEST(EventQueueFuzz, CancelHeavySeed7) {
  Rng rng(7);
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  SimTime now = 0;
  for (int i = 0; i < 50'000; ++i) {
    const auto r = rng.uniform_int(0, 99);
    if (r < 45) {
      ids.push_back(q.schedule(now + static_cast<SimTime>(rng.uniform_int(1, 50)),
                               [&fired] { ++fired; }));
    } else if (r < 90) {
      if (!ids.empty()) {
        q.cancel(ids[rng.uniform_int(0, ids.size() - 1)]);
        ASSERT_LE(q.heap_entries(), 2 * q.size());
      }
    } else if (!q.empty()) {
      auto popped = q.pop();
      popped.fn();
      now = popped.time;
    }
  }
  const std::size_t live = q.size();
  while (!q.empty()) q.pop().fn();
  EXPECT_GE(fired, 1);
  EXPECT_LE(q.slab_slots(), 50'000u);
  EXPECT_GT(q.compactions(), 0u);
  EXPECT_EQ(q.heap_entries(), 0u);
  (void)live;
}

}  // namespace
}  // namespace speedlight::sim
