// SimulatorStats accounting: scheduled / executed / clamped_schedules,
// including the silent past-time clamp, plus the counters' surface through
// the metrics registry.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace speedlight {
namespace {

TEST(SimulatorStats, CountsScheduledAndExecuted) {
  sim::Simulator sim;
  int ran = 0;
  sim.at(sim::usec(1), [&ran]() { ++ran; });
  sim.at(sim::usec(2), [&ran]() { ++ran; });
  sim.after(sim::usec(3), [&ran]() { ++ran; });
  EXPECT_EQ(sim.stats().scheduled, 3u);
  EXPECT_EQ(sim.stats().executed, 0u);

  sim.run_until(sim::sec(1));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.stats().scheduled, 3u);
  EXPECT_EQ(sim.stats().executed, 3u);
  EXPECT_EQ(sim.stats().cancelled, 0u);
  EXPECT_EQ(sim.stats().clamped_schedules, 0u);
}

TEST(SimulatorStats, ClampsPastTimeSchedulesToNow) {
  sim::Simulator sim;
  sim::SimTime clamped_ran_at = -1;
  sim.at(sim::usec(10), [&sim, &clamped_ran_at]() {
    // now == 10us; schedule into the past. The event must still run, at the
    // current time, and the clamp must be accounted.
    sim.at(sim::usec(3), [&sim, &clamped_ran_at]() {
      clamped_ran_at = sim.now();
    });
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(clamped_ran_at, sim::usec(10));
  EXPECT_EQ(sim.stats().scheduled, 2u);
  EXPECT_EQ(sim.stats().executed, 2u);
  EXPECT_EQ(sim.stats().clamped_schedules, 1u);
}

TEST(SimulatorStats, NegativeRelativeDelaysClamp) {
  sim::Simulator sim;
  sim.at(sim::usec(5), [&sim]() {
    sim.after(-sim::usec(2), []() {});  // negative delay -> now
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(sim.stats().clamped_schedules, 1u);
  EXPECT_EQ(sim.stats().executed, 2u);
}

TEST(SimulatorStats, SurfacedThroughMetricsRegistry) {
  sim::Simulator sim;
  sim.at(sim::usec(1), []() {});
  sim.at(sim::usec(2), []() {});
  sim.run_until(sim::sec(1));

  const auto samples = sim.metrics().collect();
  auto value_of = [&samples](const std::string& name) -> std::uint64_t {
    for (const auto& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0;
  };
  EXPECT_EQ(value_of("sim.events.scheduled"), 2u);
  EXPECT_EQ(value_of("sim.events.executed"), 2u);
  EXPECT_EQ(value_of("sim.events.clamped_schedules"), 0u);
  EXPECT_EQ(value_of("sim.events.pending"), 0u);
  // The high-water mark remembers both events, pending before the run.
  EXPECT_EQ(value_of("sim.events.peak_pending"), 2u);
}

}  // namespace
}  // namespace speedlight
