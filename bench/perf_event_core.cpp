// Event-core performance harness: the new slab/4-ary-heap EventQueue versus
// the seed implementation (std::priority_queue + unordered_map callbacks,
// reproduced verbatim below as LegacyEventQueue), on the workloads that
// dominate every figure reproduction:
//   1. mixed    — steady-state schedule/cancel/pop lifecycles at ~10k
//                 pending events: execute, schedule the next arrival, and
//                 re-arm a protocol timeout (a loaded simulation run); the
//                 >= 2x check compares best-of-5 alternating repetitions;
//   2. rearm    — a periodic timer that is cancelled and re-armed over and
//                 over (the snapshot re-initiation pattern that leaked
//                 stale heap entries in the seed queue);
//   3. simulator — end-to-end Simulator::after() self-rescheduling timers,
//                 exercising InplaceCallback and the stats counters;
//   4. hold     — the queue shape of the Hadoop testbed: a few dozen
//                 far-future timers under packet chains whose next hop is
//                 0.5-8 us ahead, so nearly every new event lands among the
//                 earliest pending ones (the near tier's case; workloads 1
//                 and 3 insert deep).
//
// speedlight-lint: allow-file(wall-clock) throughput harness: events/second
// needs real elapsed time.
// Emits BENCH_perf_event_core.json (events/sec, wall time, peak depth) per
// the schema in DESIGN.md "Performance methodology".
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace speedlight;

// ---------------------------------------------------------------------------
// The seed event queue, kept as the measured baseline.
// ---------------------------------------------------------------------------
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  EventId schedule(sim::SimTime when, Callback fn) {
    const EventId id = next_id_++;
    heap_.push(Entry{when, id});
    callbacks_.emplace(id, std::move(fn));
    ++live_count_;
    return id;
  }

  bool cancel(EventId id) {
    const auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    --live_count_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  struct Popped {
    sim::SimTime time;
    Callback fn;
  };
  Popped pop() {
    drop_cancelled();
    const Entry top = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(top.id);
    Popped popped{top.time, std::move(it->second)};
    callbacks_.erase(it);
    --live_count_;
    return popped;
  }

 private:
  struct Entry {
    sim::SimTime time;
    EventId id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() &&
           callbacks_.find(heap_.top().id) == callbacks_.end()) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, Callback> callbacks_;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
};

// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A realistically sized capture: the data-path lambdas carry `this`, a
/// packet handle, and a timestamp or port (roughly 24-40 bytes). This is
/// beyond std::function's inline buffer, inside InplaceCallback's.
struct Payload {
  std::uint64_t* counter;
  std::uint64_t pad[4];
  void operator()() const { *counter += pad[0]; }
};

struct MixedResult {
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t executed = 0;
  std::size_t peak_depth = 0;
};

/// The event lifecycle mix a loaded simulation run executes: pop + execute
/// one event, schedule its replacement (the next hop / next arrival), and
/// re-arm one protocol timeout (schedule a far-future event, cancel the
/// previously armed one -- most timeouts never fire). Both implementations
/// replay the identical deterministic sequence; "events" counts completed
/// lifecycles (an executed event, or a timeout scheduled+cancelled).
template <typename Queue>
MixedResult run_mixed(std::size_t depth, std::size_t iters) {
  Queue q;
  std::uint64_t sink = 0;
  std::uint64_t executed = 0;
  sim::SimTime now = 0;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  constexpr std::size_t kTimeoutRing = 512;
  std::vector<std::uint64_t> timeouts(kTimeoutRing);  // EventId is uint64

  MixedResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(static_cast<sim::SimTime>(i), Payload{&sink, {1, 0, 0, 0}});
  }
  for (std::size_t i = 0; i < kTimeoutRing; ++i) {
    timeouts[i] = q.schedule(1'000'000'000 + static_cast<sim::SimTime>(i),
                             Payload{&sink, {1, 0, 0, 0}});
  }
  for (std::size_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto popped = q.pop();
    now = popped.time;
    popped.fn();
    ++executed;
    q.schedule(now + 1 + static_cast<sim::SimTime>(x % 8192),
               Payload{&sink, {1, 0, 0, 0}});
    const std::size_t slot = i & (kTimeoutRing - 1);
    q.cancel(timeouts[slot]);
    timeouts[slot] = q.schedule(now + 1'000'000'000, Payload{&sink, {1, 0, 0, 0}});
    if ((i & 1023) == 0 && q.size() > res.peak_depth) res.peak_depth = q.size();
  }
  // Drain so both implementations pay their full cleanup cost.
  while (!q.empty()) {
    auto popped = q.pop();
    popped.fn();
    ++executed;
  }
  res.wall_s = seconds_since(t0);
  res.events_per_sec = static_cast<double>(2 * iters) / res.wall_s;
  res.executed = executed + sink * 0;  // keep `sink` alive
  return res;
}

/// The snapshot re-arm pattern: one shot is pending at any time; each tick
/// cancels it and schedules a replacement. The seed queue only trimmed
/// stale entries at the top of the heap, so its heap grew by one entry per
/// re-arm, without bound.
template <typename Queue>
std::pair<double, std::size_t> run_rearm(std::size_t rearms) {
  Queue q;
  std::uint64_t sink = 0;
  std::size_t peak_heap = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto pending = q.schedule(1'000'000, Payload{&sink, {1, 0, 0, 0}});
  for (std::size_t i = 0; i < rearms; ++i) {
    const auto fresh = q.schedule(
        1'000'000 + static_cast<sim::SimTime>(i), Payload{&sink, {1, 0, 0, 0}});
    q.cancel(pending);
    pending = fresh;
    if (q.heap_entries() > peak_heap) peak_heap = q.heap_entries();
  }
  return {seconds_since(t0), peak_heap};
}

/// One event of the hold workload: tells the workload loop which event ran.
struct HoldEvent {
  int* ran;
  int kind;  ///< kHop, or the index of a far timer.
  std::uint64_t pad[3];
  void operator()() const { *ran = kind; }
};

struct HoldResult {
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_depth = 0;
  std::uint64_t depth_sum = 0;  ///< Queue depth summed after every event.
};

/// The recorded testbed queue, in miniature: 32 far timers re-armed 20 us
/// to 1 ms ahead (every fourth firing also cancels and re-arms another
/// timer, like a protocol timeout), under 4-88 packet chains that hop
/// 0.5-8 us ahead; a firing timer starts 0-3 chains (a flow's burst), and a
/// hop ends its chain with odds 1/8 or forks a new one with odds 1/16.
/// Pending events average ~41 (peak 69), near the testbed's median of 37.
template <typename Queue>
HoldResult run_hold(std::size_t events) {
  constexpr int kHop = -1;
  constexpr int kTimers = 32;
  constexpr std::size_t kMinChains = 4;
  constexpr std::size_t kMaxChains = 88;
  Queue q;
  int ran = 0;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;  // xorshift64 state
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto hop = [&ran] { return HoldEvent{&ran, kHop, {0, 0, 0}}; };
  std::vector<std::uint64_t> timers(kTimers);  // EventId is uint64

  HoldResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTimers; ++t) {
    timers[t] = q.schedule(20'000 + static_cast<sim::SimTime>(next() % 980'000),
                           HoldEvent{&ran, t, {0, 0, 0}});
  }
  std::size_t chains = kMinChains;
  for (std::size_t c = 0; c < chains; ++c) {
    q.schedule(static_cast<sim::SimTime>(500 + next() % 7'500), hop());
  }
  while (res.executed < events) {
    auto popped = q.pop();
    const sim::SimTime now = popped.time;
    popped.fn();
    ++res.executed;
    if (ran == kHop) {
      const std::uint64_t r = next();
      const bool end = (r & 15) < 2 && chains > kMinChains;
      const bool fork = (r & 15) == 2 && chains < kMaxChains;
      if (end) {
        --chains;
      } else {
        q.schedule(now + 500 + static_cast<sim::SimTime>((r >> 8) % 7'500),
                   hop());
      }
      if (fork) {
        ++chains;
        q.schedule(now + 500 + static_cast<sim::SimTime>((r >> 24) % 7'500),
                   hop());
      }
    } else {
      const int t = ran;
      timers[t] = q.schedule(now + 20'000 + static_cast<sim::SimTime>(next() %
                                                                       980'000),
                             HoldEvent{&ran, t, {0, 0, 0}});
      if ((res.executed & 3) == 0) {
        const int other = static_cast<int>(next() % kTimers);
        if (other != t && q.cancel(timers[other])) {
          ++res.cancelled;
          timers[other] =
              q.schedule(now + 20'000 + static_cast<sim::SimTime>(
                                            next() % 980'000),
                         HoldEvent{&ran, other, {0, 0, 0}});
        }
      }
      for (std::uint64_t burst = next() % 4; burst > 0; --burst) {
        if (chains >= kMaxChains) break;
        ++chains;
        q.schedule(now + 500 + static_cast<sim::SimTime>(next() % 7'500),
                   hop());
      }
    }
    if (q.size() > res.peak_depth) res.peak_depth = q.size();
    res.depth_sum += q.size();
  }
  res.wall_s = seconds_since(t0);
  res.events_per_sec = static_cast<double>(res.executed) / res.wall_s;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("perf_event_core");
  bench::banner(
      "Event-core performance: slab/4-ary heap vs priority_queue+hash-map",
      "not a paper figure — the engineering floor under every figure "
      "reproduction (millions of packet events per evaluation run)");

  // --- Workload 1: mixed schedule/cancel/pop lifecycles -------------------
  const std::size_t kIters = bench::scaled<std::size_t>(2'000'000, 300'000);
  constexpr std::size_t kDepth = 10'000;

  // A shared host only ever adds time, so the ratio compares each side's
  // best of kMixedReps alternating repetitions; one slow repetition of
  // either side cannot decide the check.
  constexpr int kMixedReps = 5;
  MixedResult legacy;
  MixedResult fresh;
  bool same_executed = true;
  bool same_peak_depth = true;
  for (int rep = 0; rep < kMixedReps; ++rep) {
    const MixedResult l = run_mixed<LegacyEventQueue>(kDepth, kIters);
    const MixedResult f = run_mixed<sim::EventQueue>(kDepth, kIters);
    same_executed &= l.executed == f.executed;
    same_peak_depth &= l.peak_depth == f.peak_depth;
    if (l.events_per_sec > legacy.events_per_sec) legacy = l;
    if (f.events_per_sec > fresh.events_per_sec) fresh = f;
  }
  const double speedup = fresh.events_per_sec / legacy.events_per_sec;

  std::cout << "\nmixed workload (" << kIters << " lifecycles, depth "
            << kDepth << ", best of " << kMixedReps << " alternating runs):\n"
            << "  legacy: " << legacy.events_per_sec / 1e6 << " M events/s ("
            << legacy.wall_s << " s, peak depth " << legacy.peak_depth
            << ")\n"
            << "  new:    " << fresh.events_per_sec / 1e6 << " M events/s ("
            << fresh.wall_s << " s, peak depth " << fresh.peak_depth << ")\n"
            << "  speedup: " << speedup << "x\n";

  bench::check(same_executed,
               "identical events executed by both implementations");
  bench::check(same_peak_depth,
               "identical peak queue depth (same pending-set evolution)");
  bench::check(speedup >= 2.0,
               "new queue is >= 2x the legacy queue on the mixed workload");

  // --- Workload 2: cancel/re-arm churn (the stale-entry leak) -------------
  const std::size_t kRearms = bench::scaled<std::size_t>(1'000'000, 200'000);
  const auto [legacy_rearm_s, legacy_peak_heap] =
      run_rearm<LegacyEventQueue>(kRearms);
  const auto [fresh_rearm_s, fresh_peak_heap] =
      run_rearm<sim::EventQueue>(kRearms);

  std::cout << "\nre-arm churn (" << kRearms << " cancel+reschedule):\n"
            << "  legacy: " << legacy_rearm_s << " s, peak heap "
            << legacy_peak_heap << " entries (1 live event)\n"
            << "  new:    " << fresh_rearm_s << " s, peak heap "
            << fresh_peak_heap << " entries\n";

  bench::check(legacy_peak_heap >= kRearms / 2,
               "seed queue leaks stale heap entries under re-arm churn");
  bench::check(fresh_peak_heap <= 4,
               "new queue heap stays O(live) under re-arm churn");

  // --- Workload 3: Simulator end-to-end -----------------------------------
  // static: the local Timer struct below names it, which requires a
  // variable with static storage, not a stack local.
  static const std::uint64_t kSimEvents =
      bench::scaled<std::uint64_t>(2'000'000, 300'000);
  constexpr int kTimers = 1024;
  sim::Simulator s;
  std::uint64_t fired = 0;
  std::size_t peak_pending = 0;
  // A visible clamped schedule, so silent time-travel shows up in stats.
  for (int i = 0; i < 16; ++i) s.at(-1, [] {});
  struct Timer {
    sim::Simulator* s;
    std::uint64_t* fired;
    std::uint64_t state;
    void operator()() {
      ++*fired;
      if (*fired >= kSimEvents) return;
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      s->after(1 + static_cast<sim::Duration>(state % 1024), Timer{*this});
    }
  };
  static_assert(sim::InplaceCallback::fits_inline<Timer>);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTimers; ++i) {
    s.after(i + 1, Timer{&s, &fired, 0x9E3779B97F4A7C15ull + i});
  }
  while (s.step()) {
    if (s.pending() > peak_pending) peak_pending = s.pending();
  }
  const double sim_wall = seconds_since(t0);
  const double sim_rate = static_cast<double>(s.stats().executed) / sim_wall;

  std::cout << "\nsimulator self-rescheduling timers:\n"
            << "  " << s.stats().executed << " events in " << sim_wall
            << " s = " << sim_rate / 1e6 << " M events/s (peak pending "
            << peak_pending << ")\n"
            << "  stats: scheduled " << s.stats().scheduled << ", executed "
            << s.stats().executed << ", cancelled " << s.stats().cancelled
            << ", clamped " << s.stats().clamped_schedules << "\n";

  bench::check(s.stats().clamped_schedules == 16,
               "clamped past-time schedules are counted and visible");
  bench::check(s.stats().executed >= kSimEvents,
               "simulator executed the full event budget");

  // --- Workload 4: the testbed's queue shape ------------------------------
  const std::size_t kHoldEvents =
      bench::scaled<std::size_t>(4'000'000, 400'000);
  const HoldResult hold_legacy = run_hold<LegacyEventQueue>(kHoldEvents);
  const HoldResult hold_fresh = run_hold<sim::EventQueue>(kHoldEvents);
  const double hold_speedup =
      hold_fresh.events_per_sec / hold_legacy.events_per_sec;

  std::cout << "\nhold workload (" << kHoldEvents
            << " events, far timers under packet chains):\n"
            << "  legacy: " << hold_legacy.events_per_sec / 1e6
            << " M events/s (" << hold_legacy.wall_s << " s)\n"
            << "  new:    " << hold_fresh.events_per_sec / 1e6
            << " M events/s (" << hold_fresh.wall_s << " s, peak depth "
            << hold_fresh.peak_depth << ", mean depth "
            << static_cast<double>(hold_fresh.depth_sum) /
                   static_cast<double>(hold_fresh.executed)
            << ", " << hold_fresh.cancelled
            << " timer re-arms)\n"
            << "  speedup: " << hold_speedup << "x\n";

  bench::check(hold_legacy.executed == hold_fresh.executed &&
                   hold_legacy.cancelled == hold_fresh.cancelled,
               "hold: identical events and re-arms in both implementations");
  bench::check(hold_legacy.peak_depth == hold_fresh.peak_depth &&
                   hold_legacy.depth_sum == hold_fresh.depth_sum,
               "hold: identical queue depths (same pending-set evolution)");

  report.metric("mixed_lifecycles", static_cast<double>(2 * kIters));
  report.metric("mixed_events_per_sec_legacy", legacy.events_per_sec);
  report.metric("mixed_events_per_sec_new", fresh.events_per_sec);
  report.metric("mixed_speedup", speedup);
  report.metric("mixed_wall_s_legacy", legacy.wall_s);
  report.metric("mixed_wall_s_new", fresh.wall_s);
  report.metric("peak_queue_depth", static_cast<double>(fresh.peak_depth));
  report.metric("rearm_peak_heap_entries_legacy",
                static_cast<double>(legacy_peak_heap));
  report.metric("rearm_peak_heap_entries_new",
                static_cast<double>(fresh_peak_heap));
  report.metric("sim_events_per_sec", sim_rate);
  report.metric("sim_peak_pending", static_cast<double>(peak_pending));
  report.metric("sim_executed", static_cast<double>(s.stats().executed));
  report.metric("sim_clamped_schedules",
                static_cast<double>(s.stats().clamped_schedules));
  report.metric("sim_cancelled", static_cast<double>(s.stats().cancelled));
  report.metric("hold_events", static_cast<double>(hold_fresh.executed));
  report.metric("hold_rearms", static_cast<double>(hold_fresh.cancelled));
  report.metric("hold_peak_depth", static_cast<double>(hold_fresh.peak_depth));
  report.metric("hold_mean_depth",
                static_cast<double>(hold_fresh.depth_sum) /
                    static_cast<double>(hold_fresh.executed));
  report.metric("hold_events_per_sec_legacy", hold_legacy.events_per_sec);
  report.metric("hold_events_per_sec_new", hold_fresh.events_per_sec);
  report.metric("hold_speedup", hold_speedup);
  report.embed_registry(s.metrics());
  return bench::finish(report);
}
