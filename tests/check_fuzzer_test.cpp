// The fuzzer engine: fixed-seed scenarios satisfy every invariant, an
// intentionally broken checker (the channel-state term removed from the
// conservation equation) is caught and shrunk to a minimal reproducer, and
// lossy-link scenarios stay clean via the audited-drop slack.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/fuzzer.hpp"

namespace speedlight {
namespace {

TEST(Fuzzer, FixedSeedsRunClean) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto s = check::generate_scenario(seed);
    const auto r = check::run_scenario(s, {.with_oracle = true});
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << " (" << s.label() << "): "
        << r.violations.front().invariant << ": "
        << r.violations.front().detail;
    EXPECT_GT(r.completed, 0u) << "seed " << seed;
  }
}

TEST(Fuzzer, RunsAreDeterministic) {
  const auto s = check::generate_scenario(6);
  const auto a = check::run_scenario(s, {.with_oracle = false});
  const auto b = check::run_scenario(s, {.with_oracle = false});
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.link_drops, b.link_drops);
  EXPECT_EQ(a.flaps, b.flaps);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Fuzzer, ConservationIsActuallyExercised) {
  // A checker that never evaluates its equation would pass everything;
  // assert real coverage on a channel-state scenario.
  const auto s = check::generate_scenario(1);
  ASSERT_TRUE(s.channel_state);
  const auto r = check::run_scenario(s, {.with_oracle = false});
  EXPECT_GT(r.conservation_checked, 0u);
}

TEST(Fuzzer, LossyLinkScenarioStaysCleanViaDropSlack) {
  // Seed 4 flaps a fat-tree trunk: wire drops of counted-pre packets widen
  // the conservation equation; the audited per-link drop count must absorb
  // exactly that.
  const auto s = check::generate_scenario(4);
  ASSERT_FALSE(s.faults.empty());
  const auto r = check::run_scenario(s, {.with_oracle = true});
  EXPECT_TRUE(r.violations.empty()) << r.violations.front().detail;
  EXPECT_GT(r.flaps, 0u);
}

TEST(Fuzzer, RunEndsWhenItsFaultWindowCloses) {
  // Seed 4's snapshots all complete inside its one link_flap window, so the
  // window's close settles the run: it must not stop earlier (flaps still
  // to come would move the flap and drop counts), and it stops well before
  // the fixed end core::run_snapshot_campaign runs to.
  const auto s = check::generate_scenario(4);
  ASSERT_EQ(s.faults.size(), 1u);
  ASSERT_EQ(s.faults[0].kind, check::FaultKind::LinkFlap);
  const sim::SimTime window_end =
      s.warmup + s.faults[0].start + s.faults[0].duration;
  const sim::SimTime last_fire =
      s.warmup + sim::msec(1) +
      static_cast<sim::SimTime>(s.snapshots - 1) * s.interval;
  const sim::SimTime full_end =
      last_fire + s.network_options().observer.completion_timeout +
      sim::msec(5);

  const auto hw = check::run_scenario(s, {.with_oracle = false});
  EXPECT_GE(hw.simulated, window_end);
  EXPECT_LT(hw.simulated, full_end);
  // The oracle rides the same simulation: it covers no extra time.
  const auto both = check::run_scenario(s, {});
  EXPECT_EQ(both.simulated, hw.simulated);

  check::FuzzStats stats;
  stats.account(both);
  EXPECT_DOUBLE_EQ(stats.simulated_ms, sim::to_msec(both.simulated));
}

TEST(Fuzzer, InjectedBugIsCaughtAndShrunk) {
  // Self-test of the whole find-shrink-replay loop: with the channel-state
  // term removed from the conservation equation, some scenario must fail,
  // and the shrinker must reduce it to <= 4 switches while it still fails.
  const check::RunOptions opts{.with_oracle = false,
                               .break_conservation = true};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto s = check::generate_scenario(seed);
    const auto r = check::run_scenario(s, opts);
    if (!r.failed()) continue;

    const auto shrunk = check::shrink_scenario(s, opts);
    EXPECT_TRUE(shrunk.result.failed());
    EXPECT_LE(shrunk.scenario.topology().switches.size(), 4u);
    EXPECT_GT(shrunk.steps, 0u);
    // The reproducer survives serialization: the replayed file is the same
    // simulation, so it fails identically.
    const auto replayed = check::scenario_from_string(
        check::scenario_to_string(shrunk.scenario));
    EXPECT_TRUE(check::run_scenario(replayed, opts).failed());
    return;
  }
  FAIL() << "injected conservation bug was never caught in 30 seeds";
}

TEST(Fuzzer, RejectsShardsOtherThanOne) {
  // A stale shard count fails closed before anything runs.
  const auto s = check::generate_scenario(2);
  for (const std::size_t n : {0u, 2u, 4u}) {
    const check::RunOptions opts{.with_oracle = false, .shards = n};
    EXPECT_THROW((void)check::run_scenario(s, opts), std::invalid_argument)
        << n;
  }
}

TEST(Fuzzer, StatsAccountRuns) {
  check::FuzzStats stats;
  const auto s = check::generate_scenario(2);
  const auto r = check::run_scenario(s, {.with_oracle = false});
  stats.account(r);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.snapshots_checked, r.completed);

  obs::MetricsRegistry reg;
  stats.register_metrics(reg);
  EXPECT_TRUE(reg.contains("fuzz.runs"));
  EXPECT_TRUE(reg.contains("fuzz.failures"));
}

}  // namespace
}  // namespace speedlight
