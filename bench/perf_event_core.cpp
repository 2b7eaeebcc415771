// Event-core performance harness: the slab EventQueue (near tier, heap and
// time buckets; DESIGN.md section 8) versus the seed implementation
// (std::priority_queue + unordered_map callbacks, reproduced below as
// LegacyEventQueue, without the cancel() nothing calls any more), on the
// workloads that dominate every figure reproduction:
//   1. mixed    — steady-state pop/execute/schedule lifecycles at ~10k
//                 pending events: execute one event and schedule its
//                 replacement, the next arrival (a loaded simulation run);
//                 nearly every entry waits in the time buckets;
//   2. simulator — end-to-end Simulator::after() self-rescheduling timers,
//                 exercising InplaceCallback and the stats counters;
//   3. hold     — the queue shape of the Hadoop testbed: a few dozen
//                 far-future timers under packet chains whose next hop is
//                 0.5-8 us ahead, so nearly every new event lands among the
//                 earliest pending ones (the near tier's case; workloads 1
//                 and 2 insert deep).
// A shared host only ever adds time, so each workload runs as kReps
// alternating repetitions and reports each side's best: one slow
// repetition cannot decide a rate or a ratio. Event and depth counts are
// identical across repetitions.
//
// speedlight-lint: allow-file(wall-clock) throughput harness: events/second
// needs real elapsed time.
// Emits BENCH_perf_event_core.json (events/sec, wall time, peak depth) per
// the schema in DESIGN.md "Performance methodology".
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace speedlight;

/// Alternating repetitions per workload; each side reports its best.
constexpr int kReps = 5;

// ---------------------------------------------------------------------------
// The seed event queue, kept as the measured baseline.
// ---------------------------------------------------------------------------
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  void schedule(sim::SimTime when, Callback fn) {
    const EventId id = next_id_++;
    heap_.push(Entry{when, id});
    callbacks_.emplace(id, std::move(fn));
    ++live_count_;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

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

  /// The seed's pop paid this lookup on every event; with no cancel() left
  /// it never drops anything, but it stays part of the baseline's cost.
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

/// The event lifecycle a loaded simulation run executes: pop + execute one
/// event and schedule its replacement (the next hop / next arrival). Both
/// implementations replay the identical deterministic sequence; "events"
/// counts executed events, the drain included.
template <typename Queue>
MixedResult run_mixed(std::size_t depth, std::size_t iters) {
  Queue q;
  std::uint64_t sink = 0;
  std::uint64_t executed = 0;
  sim::SimTime now = 0;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state

  MixedResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(static_cast<sim::SimTime>(i), Payload{&sink, {1, 0, 0, 0}});
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
    if ((i & 1023) == 0 && q.size() > res.peak_depth) res.peak_depth = q.size();
  }
  // Drain so both implementations pay their full cleanup cost.
  while (!q.empty()) {
    auto popped = q.pop();
    popped.fn();
    ++executed;
  }
  res.wall_s = seconds_since(t0);
  res.events_per_sec = static_cast<double>(executed) / res.wall_s;
  res.executed = executed + sink * 0;  // keep `sink` alive
  return res;
}

struct SimResult {
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::size_t peak_pending = 0;
};

/// 1024 self-rescheduling timers on the fresh simulator `s`, each re-armed
/// 1-1024 ns ahead until `budget` have fired, after 16 clamped past-time
/// schedules (so silent time-travel shows up in stats).
SimResult run_simulator(sim::Simulator& s, std::uint64_t budget) {
  constexpr int kTimers = 1024;
  struct Count {
    std::uint64_t fired = 0;
    std::uint64_t budget = 0;
  };
  Count count{0, budget};
  SimResult res;
  for (int i = 0; i < 16; ++i) s.at(-1, [] {});
  struct Timer {
    sim::Simulator* s;
    Count* count;
    std::uint64_t state;
    void operator()() {
      if (++count->fired >= count->budget) return;
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      s->after(1 + static_cast<sim::Duration>(state % 1024), Timer{*this});
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTimers; ++i) {
    s.after(i + 1, Timer{&s, &count, 0x9E3779B97F4A7C15ull + i});
  }
  while (s.step()) {
    if (s.pending() > res.peak_pending) res.peak_pending = s.pending();
  }
  res.wall_s = seconds_since(t0);
  res.events_per_sec = static_cast<double>(s.stats().executed) / res.wall_s;
  return res;
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
  std::size_t peak_depth = 0;
  std::uint64_t depth_sum = 0;  ///< Queue depth summed after every event.
};

/// The recorded testbed queue, in miniature: 32 far timers re-armed 20 us
/// to 1 ms ahead as they fire, under 4-88 packet chains that hop 0.5-8 us
/// ahead; a firing timer starts 0-3 chains (a flow's burst), and a hop
/// ends its chain with odds 1/8 or forks a new one with odds 1/16. Pending
/// events stay near the testbed's median of 37.
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

  HoldResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTimers; ++t) {
    q.schedule(20'000 + static_cast<sim::SimTime>(next() % 980'000),
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
      q.schedule(now + 20'000 + static_cast<sim::SimTime>(next() % 980'000),
                 HoldEvent{&ran, ran, {0, 0, 0}});
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
      "Event-core performance: slab queue vs priority_queue+hash-map",
      "not a paper figure — the engineering floor under every figure "
      "reproduction (millions of packet events per evaluation run)");

  // --- Workload 1: mixed pop/execute/schedule lifecycles ------------------
  const std::size_t kIters = bench::scaled<std::size_t>(2'000'000, 300'000);
  constexpr std::size_t kDepth = 10'000;

  MixedResult legacy;
  MixedResult fresh;
  bool same_executed = true;
  bool same_peak_depth = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const MixedResult l = run_mixed<LegacyEventQueue>(kDepth, kIters);
    const MixedResult f = run_mixed<sim::EventQueue>(kDepth, kIters);
    same_executed &= l.executed == f.executed;
    same_peak_depth &= l.peak_depth == f.peak_depth;
    if (l.events_per_sec > legacy.events_per_sec) legacy = l;
    if (f.events_per_sec > fresh.events_per_sec) fresh = f;
  }
  const double speedup = fresh.events_per_sec / legacy.events_per_sec;

  std::cout << "\nmixed workload (" << kIters << " lifecycles, depth "
            << kDepth << ", best of " << kReps << " alternating runs):\n"
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

  // --- Workloads 2 and 3: Simulator end-to-end, the testbed's queue shape -
  // One loop alternates the Simulator run with both hold runs.
  const std::uint64_t kSimEvents =
      bench::scaled<std::uint64_t>(2'000'000, 300'000);
  const std::size_t kHoldEvents =
      bench::scaled<std::size_t>(4'000'000, 400'000);
  std::unique_ptr<sim::Simulator> first_sim;  // Its registry is embedded.
  SimResult sim_best;
  HoldResult hold_legacy;
  HoldResult hold_fresh;
  for (int rep = 0; rep < kReps; ++rep) {
    auto run = std::make_unique<sim::Simulator>();
    const SimResult r = run_simulator(*run, kSimEvents);
    if (r.events_per_sec > sim_best.events_per_sec) sim_best = r;
    if (!first_sim) first_sim = std::move(run);
    const HoldResult l = run_hold<LegacyEventQueue>(kHoldEvents);
    const HoldResult f = run_hold<sim::EventQueue>(kHoldEvents);
    if (l.events_per_sec > hold_legacy.events_per_sec) hold_legacy = l;
    if (f.events_per_sec > hold_fresh.events_per_sec) hold_fresh = f;
  }
  const sim::Simulator& s = *first_sim;

  std::cout << "\nsimulator self-rescheduling timers (best of " << kReps
            << " runs):\n"
            << "  " << s.stats().executed << " events in " << sim_best.wall_s
            << " s = " << sim_best.events_per_sec / 1e6
            << " M events/s (peak pending " << sim_best.peak_pending << ")\n"
            << "  stats: scheduled " << s.stats().scheduled << ", executed "
            << s.stats().executed << ", clamped "
            << s.stats().clamped_schedules << "\n";

  bench::check(s.stats().clamped_schedules == 16,
               "clamped past-time schedules are counted and visible");
  bench::check(s.stats().executed >= kSimEvents,
               "simulator executed the full event budget");

  const double hold_speedup =
      hold_fresh.events_per_sec / hold_legacy.events_per_sec;

  std::cout << "\nhold workload (" << kHoldEvents
            << " events, far timers under packet chains, best of " << kReps
            << " alternating runs):\n"
            << "  legacy: " << hold_legacy.events_per_sec / 1e6
            << " M events/s (" << hold_legacy.wall_s << " s)\n"
            << "  new:    " << hold_fresh.events_per_sec / 1e6
            << " M events/s (" << hold_fresh.wall_s << " s, peak depth "
            << hold_fresh.peak_depth << ", mean depth "
            << static_cast<double>(hold_fresh.depth_sum) /
                   static_cast<double>(hold_fresh.executed)
            << ")\n"
            << "  speedup: " << hold_speedup << "x\n";

  bench::check(hold_legacy.executed == hold_fresh.executed,
               "hold: identical events in both implementations");
  bench::check(hold_legacy.peak_depth == hold_fresh.peak_depth &&
                   hold_legacy.depth_sum == hold_fresh.depth_sum,
               "hold: identical queue depths (same pending-set evolution)");

  report.metric("mixed_lifecycles", static_cast<double>(kIters));
  report.metric("mixed_events_per_sec_legacy", legacy.events_per_sec);
  report.metric("mixed_events_per_sec_new", fresh.events_per_sec);
  report.metric("mixed_speedup", speedup);
  report.metric("mixed_wall_s_legacy", legacy.wall_s);
  report.metric("mixed_wall_s_new", fresh.wall_s);
  report.metric("peak_queue_depth", static_cast<double>(fresh.peak_depth));
  report.metric("sim_events_per_sec", sim_best.events_per_sec);
  report.metric("sim_peak_pending",
                static_cast<double>(sim_best.peak_pending));
  report.metric("sim_executed", static_cast<double>(s.stats().executed));
  report.metric("sim_clamped_schedules",
                static_cast<double>(s.stats().clamped_schedules));
  report.metric("hold_events", static_cast<double>(hold_fresh.executed));
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
