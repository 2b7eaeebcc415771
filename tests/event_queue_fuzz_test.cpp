// Randomized differential test: the slab EventQueue (near tier, heap and
// time buckets) against a naive reference model, under tens of thousands
// of mixed operations per seed. The test uses every way the simulator
// enters and leaves the order: schedule(), schedule_keyed(), pop() and the
// bounded pop_until(). Some operations remember a time and schedule there
// later, when execution may have come close to it. Verifies identical pop
// order, timestamps, payloads and sizes. A hold-shaped profile (far timers
// under packet chains, like the Hadoop testbed) drives the pending count
// across the near tier's capacity in both directions and pops from the
// near tier and the far part; a deep profile keeps nearly every entry in
// the far part's buckets.
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
  void schedule(SimTime when, MergeKey key, int payload) {
    entries_.push_back(Entry{when, key, next_seq_++, payload});
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  struct Popped {
    SimTime time;
    int payload;
  };
  /// The earliest event. Precondition: size() > 0.
  [[nodiscard]] Popped peek() const {
    const Entry& e = entries_[earliest()];
    return Popped{e.time, e.payload};
  }
  Popped pop() {
    const std::size_t best = earliest();
    const Popped out{entries_[best].time, entries_[best].payload};
    entries_[best] = entries_.back();
    entries_.pop_back();
    return out;
  }

 private:
  struct Entry {
    SimTime time;
    MergeKey key;
    std::uint64_t seq;
    int payload;

    [[nodiscard]] bool before(const Entry& o) const {
      if (time != o.time) return time < o.time;
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };

  [[nodiscard]] std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].before(entries_[best])) best = i;
    }
    return best;
  }

  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

/// Drives the queue under test and the reference in lockstep; every call
/// checks that both agree.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : seed_(seed) {}

  /// Schedule one logical event in both; returns its payload.
  int schedule(SimTime when) {
    const int payload = next_payload_++;
    q_.schedule(when, run(payload));
    ref_.schedule(when, 0, payload);
    check_sizes();
    return payload;
  }

  int schedule_keyed(SimTime when, MergeKey key) {
    const int payload = next_payload_++;
    q_.schedule_keyed(when, key, run(payload));
    ref_.schedule(when, key, payload);
    check_sizes();
    return payload;
  }

  /// Pop the earliest event from both and run it; returns its payload, or
  /// nothing if both are empty.
  std::optional<int> pop() {
    if (q_.empty()) {
      EXPECT_EQ(ref_.size(), 0u) << where();
      return std::nullopt;
    }
    EXPECT_EQ(q_.next_time(), ref_.peek().time) << where();
    count_tier();
    auto popped = q_.pop();
    return finish(popped.time, popped.fn);
  }

  /// The bounded pop: both must agree on whether anything is due by `last`.
  std::optional<int> pop_until(SimTime last) {
    const bool due = ref_.size() > 0 && ref_.peek().time <= last;
    if (due) count_tier();
    auto popped = q_.pop_until(last);
    EXPECT_EQ(popped.has_value(), due) << where();
    if (!popped) return std::nullopt;
    return finish(popped->time, popped->fn);
  }

  void drain() {
    while (pop()) {
    }
    EXPECT_EQ(ref_.size(), 0u);
    EXPECT_EQ(q_.size(), 0u);
  }

  void next_op() { ++op_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] std::size_t near_entries() const { return q_.near_entries(); }
  [[nodiscard]] std::uint64_t near_pops() const { return near_pops_; }
  [[nodiscard]] std::uint64_t heap_pops() const { return heap_pops_; }
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

  /// The near tier holds the earliest entries, so a pop takes from it
  /// whenever it is non-empty, and from the far part otherwise.
  void count_tier() {
    if (q_.near_entries() > 0) {
      ++near_pops_;
    } else {
      ++heap_pops_;
    }
  }

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
    EXPECT_LE(q_.near_entries(), std::min(q_.size(), EventQueue::kNearCapacity))
        << where();
  }

  std::uint64_t seed_;
  EventQueue q_;
  ReferenceQueue ref_;
  SimTime now_ = 0;
  int last_payload_ = -1;
  int next_payload_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t near_pops_ = 0;
  std::uint64_t heap_pops_ = 0;
};

/// Merge keys with plenty of collisions, including the extremes.
MergeKey pick_key(Rng& rng) {
  constexpr MergeKey kKeys[] = {0, 0, 1, 2, 7, 0xffffffffu};
  return kKeys[rng.uniform_int(0, std::size(kKeys) - 1)];
}

void run_differential(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Differential d(seed);
  // Times remembered for a later schedule.
  std::vector<SimTime> remembered;

  for (int i = 0; i < ops; ++i) {
    d.next_op();
    const auto r = rng.uniform_int(0, 99);
    // Coarse times make same-time ties (and so the key and seq ranks)
    // common.
    const SimTime when =
        d.now() + static_cast<SimTime>(rng.uniform_int(0, 997) / 16 * 16);
    if (r < 30) {
      d.schedule(when);
    } else if (r < 42) {
      d.schedule_keyed(when, pick_key(rng));
    } else if (r < 46) {
      remembered.push_back(when);
    } else if (r < 51) {
      // Schedule at a remembered time, unless execution has already gone
      // past it.
      if (remembered.empty()) continue;
      const auto pick = rng.uniform_int(0, remembered.size() - 1);
      const SimTime at = remembered[pick];
      remembered.erase(remembered.begin() + static_cast<std::ptrdiff_t>(pick));
      if (at >= d.now()) d.schedule(at);
    } else if (r < 76) {
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

/// The deep queue of a large fabric's round: ~`depth` pending events, far
/// more than the near tier holds, each popped event replaced by one due
/// 0-8 us later (coarse, so same-time ties are common), with keyed
/// schedules, schedules at remembered times and bursts of events at one
/// instant. The far part
/// behind the near tier then carries nearly every entry, and its time
/// buckets split, refill and hand ties to the heap throughout.
void run_deep(std::uint64_t seed, std::size_t depth, int ops) {
  Rng rng(seed);
  Differential d(seed);
  auto later = [&] {
    return d.now() + static_cast<SimTime>(rng.uniform_int(0, 8'191) / 8 * 8);
  };
  // Unsorted, so the far part also takes entries earlier than its base.
  for (std::size_t i = 0; i < depth; ++i) d.schedule(later());
  std::vector<SimTime> remembered;
  std::size_t deepest_far = 0;
  for (int i = 0; i < ops; ++i) {
    d.next_op();
    const auto r = rng.uniform_int(0, 99);
    const auto popped =
        r < 20 ? d.pop_until(d.now() + static_cast<SimTime>(
                                           rng.uniform_int(0, 64)))
               : d.pop();
    if (!popped) continue;
    if (r < 60) {
      d.schedule(later());
    } else if (r < 80) {
      d.schedule_keyed(later(), pick_key(rng));
    } else if (r < 90) {
      remembered.push_back(later());
      d.schedule(later());
    } else if (r < 98) {
      if (remembered.empty()) {
        d.schedule(later());
        continue;
      }
      const SimTime at = remembered.front();
      remembered.erase(remembered.begin());
      d.schedule(std::max(at, d.now()));
    } else {
      // A burst at one instant, as a round's initiations are.
      const SimTime at = later();
      for (int b = 0; b < 64; ++b) {
        if (rng.chance(0.5)) {
          d.schedule(at);
        } else {
          d.schedule_keyed(at, pick_key(rng));
        }
        if (b > 0) {
          d.next_op();
          d.pop();
        }
      }
    }
    deepest_far = std::max(deepest_far, d.size() - d.near_entries());
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(deepest_far, depth / 2) << "the far part was never deep";
  EXPECT_GT(d.heap_pops(), d.near_pops()) << "pops did not reach the far part";
  d.drain();
}

TEST(EventQueueFuzz, DeepPendingSeed5) { run_deep(5, 2'000, 30'000); }
TEST(EventQueueFuzz, DeepPendingSeed77) { run_deep(77, 500, 60'000); }

/// The testbed's queue shape, pushed past the near tier's capacity and back:
/// ~30 far timers re-armed 8-131 us ahead as they fire, under packet chains
/// whose next hop is 0.5-8 us ahead. Some hops are keyed and some go to a
/// time remembered a few operations earlier. Chain counts swing between a
/// few and ~200 in waves, so the pending count crosses kNearCapacity in
/// both directions many times and pops come from both tiers.
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

  std::vector<int> timers;  // The payload each timer's pending event has.
  for (int t = 0; t < kTimers; ++t) timers.push_back(d.schedule(far()));
  std::vector<SimTime> wakeups;
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
      if (rng.chance(0.3)) {
        d.schedule_keyed(hop(), pick_key(rng));
      } else {
        d.schedule(hop());
      }
    }
    const auto r = rng.uniform_int(0, 99);
    if (r < 4) {
      wakeups.push_back(hop());
    } else if (r < 8 && !wakeups.empty()) {
      const SimTime at = wakeups.back();
      wakeups.pop_back();
      if (at >= d.now()) {
        ++live_chains;
        d.schedule(at);
      }
    } else {
      const auto payload =
          r < 25 ? d.pop_until(d.now() + static_cast<SimTime>(
                                             rng.uniform_int(0, 2'000)))
                 : d.pop();
      if (payload) {
        // Timers keep their count: one that fires is re-armed. A chain ends
        // when the wave shrinks, else takes its next hop.
        auto timer = std::find(timers.begin(), timers.end(), *payload);
        if (timer != timers.end()) {
          *timer = d.schedule(far());
        } else if (live_chains > target) {
          --live_chains;
        } else {
          d.schedule(hop());
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
  EXPECT_GT(d.near_pops(), 0u) << "no pop took the near tier";
  EXPECT_GT(d.heap_pops(), 0u) << "no pop took the heap";
  d.drain();
}

TEST(EventQueueFuzz, HoldProfileSeed7) { run_hold(7, 100'000); }
TEST(EventQueueFuzz, HoldProfileSeed99) { run_hold(99, 100'000); }

}  // namespace
}  // namespace speedlight::sim
