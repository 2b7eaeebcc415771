// Unit tests for the discrete-event core: event queue, simulator, RNG, and
// local clocks.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timing_model.hpp"

namespace speedlight::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReportsNextTime) {
  EventQueue q;
  q.schedule(100, [] {});
  q.schedule(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
  q.pop();
  EXPECT_EQ(q.next_time(), 100);
}

TEST(InplaceCallback, StoresMoveOnlyCapturesInline) {
  auto payload = std::make_unique<int>(41);
  InplaceCallback cb = [p = std::move(payload)]() mutable { ++*p; };
  static_assert(
      InplaceCallback::fits_inline<decltype([p = std::unique_ptr<int>()] {})>);
  EXPECT_TRUE(static_cast<bool>(cb));
  InplaceCallback moved = std::move(cb);
  moved();
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT: moved-from is empty
}

TEST(InplaceCallback, OversizedCapturesDoNotCompile) {
  // Callbacks are inline-only: a capture beyond the buffer is a compile
  // error, never a hidden heap allocation.
  struct Big {
    std::array<std::uint64_t, 32> data{};  // 256 bytes: beyond the buffer.
  };
  Big big;
  big.data[7] = 123;
  auto fn = [big] { return big.data[7]; };
  static_assert(!InplaceCallback::fits_inline<decltype(fn)>);
  static_assert(!std::is_constructible_v<InplaceCallback, decltype(fn)>);
  EXPECT_EQ(fn(), 123u);  // Callable as itself; only the wrapping is refused.
}

TEST(InplaceCallback, ResetDestroysCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InplaceCallback cb = [token = std::move(token)] {};
  EXPECT_FALSE(watch.expired());
  cb.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(Simulator, StatsCountersTrackLifecycle) {
  Simulator sim;
  int ran = 0;
  sim.at(10, [&] { ++ran; });
  sim.at(20, [&] { ++ran; });
  sim.at(30, [&] {
    ++ran;
    sim.at(5, [&] { ++ran; });  // Past time: clamped to now.
  });
  sim.run_until(100);
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(sim.stats().scheduled, 4u);
  EXPECT_EQ(sim.stats().executed, 4u);
  EXPECT_EQ(sim.stats().clamped_schedules, 1u);
}

TEST(Simulator, RunUntilAdvancesTime) {
  Simulator sim;
  int count = 0;
  sim.at(100, [&] { ++count; });
  sim.at(200, [&] { ++count; });
  sim.at(300, [&] { ++count; });
  EXPECT_EQ(sim.run_until(250), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 250);  // Horizon reached even without events there.
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(100);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.at(100, [&] {
    sim.at(50, [&] { EXPECT_EQ(sim.now(), 100); });
    sim.after(-10, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  EXPECT_EQ(sim.run_until(200), 3u);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.at(1, [&] { ++count; });
  sim.at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CallbacksRunInPlaceWhileTheSlabGrows) {
  // A running callback stays in its slab slot. Scheduling hundreds of
  // events from inside it grows the slab by many chunks, and its captures
  // must stay valid throughout (slots never move).
  Simulator sim;
  int fired = 0;
  const std::array<std::uint64_t, 6> payload{1, 2, 3, 4, 5, 6};
  sim.at(0, [&sim, &fired, payload] {
    for (int i = 0; i < 1000; ++i) sim.at(1, [&fired] { ++fired; });
    EXPECT_EQ(payload[5], 6u);
  });
  sim.run_until();
  EXPECT_EQ(fired, 1000);
  EXPECT_GE(sim.queue().slab_slots(), 1000u);
}

TEST(Simulator, KeyedPostsAtOneInstantRunInKeyOrder) {
  // A channel posts under its merge key: posts that land at the same
  // instant run in key order, whatever order they were posted in, and after
  // unkeyed (key 0) events.
  Simulator sim;
  std::vector<int> order;
  sim.at_keyed(10, 9, [&] { order.push_back(9); });
  sim.at_keyed(10, 3, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(0); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 9}));
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(9, 9), 9u);
}

TEST(Rng, ChanceEdges) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(42);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedForksStableAcrossRuns) {
  Rng p1(42);
  Rng p2(42);
  Rng a1 = p1.fork("component");
  Rng a2 = p2.fork("component");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a1(), a2());
}

TEST(LocalClock, OffsetAndDrift) {
  LocalClock clock(usec(5), 100.0);  // 100 ppm fast
  EXPECT_EQ(clock.local_time(0), usec(5));
  // After 1 second true time: offset grew by 100us.
  EXPECT_NEAR(static_cast<double>(clock.offset_at(sec(1.0))),
              static_cast<double>(usec(105)), 10.0);
}

TEST(LocalClock, TrueTimeForLocalInverts) {
  LocalClock clock(usec(17), -42.0);
  const SimTime local = sec(3.0);
  const SimTime t = clock.true_time_for_local(local);
  EXPECT_NEAR(static_cast<double>(clock.local_time(t)),
              static_cast<double>(local), 2.0);
}

TEST(LocalClock, SynchronizeResetsOffset) {
  LocalClock clock(msec(1), 200.0);
  clock.synchronize(sec(1.0), nsec(500), 1.0);
  EXPECT_EQ(clock.offset_at(sec(1.0)), nsec(500));
  EXPECT_NEAR(static_cast<double>(clock.offset_at(sec(2.0))),
              500.0 + 1000.0, 2.0);  // 1 ppm over 1s = 1us
}

TEST(TimingModel, SamplersInPlausibleRanges) {
  TimingModel tm;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Duration j = tm.sample_sched_jitter(rng);
    EXPECT_GT(j, 0);
    EXPECT_LT(j, msec(1));  // Long tail but not absurd.
    const Duration p = tm.sample_poll_latency(rng);
    EXPECT_GT(p, usec(10));
    EXPECT_LT(p, msec(5));
  }
}

TEST(TimingModel, PollLatencyMedianNear95us) {
  TimingModel tm;
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 5001; ++i) {
    xs.push_back(static_cast<double>(tm.sample_poll_latency(rng)));
  }
  std::nth_element(xs.begin(), xs.begin() + 2500, xs.end());
  EXPECT_NEAR(xs[2500] / 1000.0, 95.0, 10.0);  // microseconds
}

}  // namespace
}  // namespace speedlight::sim
