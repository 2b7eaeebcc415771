// Determinism regression: the event core must execute same-timestamp events
// in schedule order, bit-identically, run after run.
//
// The golden trace below (entry count + FNV-1a hash over the (time, tag)
// stream) was captured from the SEED implementation of EventQueue
// (std::priority_queue + unordered_map) before the slab/4-ary-heap rewrite,
// so this test also pins that the rewrite preserved the exact event order —
// including timestamp collisions, zero-delay self-scheduling, past-time
// clamping, and timer re-arm churn (cancelled in the seed, epoch-guarded
// no-ops since the event core dropped cancellation).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "sim/determinism.hpp"
#include "sim/simulator.hpp"

namespace speedlight {
namespace {

std::vector<std::pair<sim::SimTime, int>> run_scenario() {
  sim::Simulator s;
  std::vector<std::pair<sim::SimTime, int>> log;

  // Phase 1: colliding timestamps with interleaved withdrawals. The event
  // core has no cancellation: a withdrawn event still runs, guarded into a
  // no-op that logs nothing, so the trace is the one the seed
  // implementation recorded when these events were cancelled.
  auto withdrawn = std::make_shared<std::vector<bool>>(60, false);
  for (int i = 0; i < 60; ++i) {
    const sim::SimTime t = (i * 7) % 40;
    s.at(t, [&log, &s, withdrawn, i] {
      if (!(*withdrawn)[i]) log.emplace_back(s.now(), i);
    });
  }
  for (int i = 0; i < 60; i += 3) (*withdrawn)[i] = true;

  // Phase 2: events scheduling events, zero delays, past-time clamping.
  s.at(35, [&] {
    log.emplace_back(s.now(), 1000);
    s.after(0, [&] { log.emplace_back(s.now(), 1001); });
    s.at(10, [&] { log.emplace_back(s.now(), 1002); });  // clamps to now
    s.after(5, [&] { log.emplace_back(s.now(), 1003); });
  });

  // Phase 3: a periodically re-armed timer. Each re-arm bumps the epoch,
  // so only the latest shadow timer logs (the epoch rule, DESIGN.md
  // section 8).
  auto epoch = std::make_shared<int>(0);
  s.at(500, [&log, &s, epoch] {
    if (*epoch == 0) log.emplace_back(s.now(), 2000);
  });
  for (int i = 0; i < 20; ++i) {
    s.at(100 + i, [&log, &s, epoch, i] {
      log.emplace_back(s.now(), 3000 + i);
      const int mine = ++*epoch;
      s.at(500 + i, [&log, &s, epoch, mine, i] {
        if (*epoch == mine) log.emplace_back(s.now(), 2100 + i);
      });
    });
  }

  s.run_until(10000);
  return log;
}

std::uint64_t fnv1a_hash(const std::vector<std::pair<sim::SimTime, int>>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [t, tag] : log) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>((t >> (8 * b)) & 0xff);
      h *= 1099511628211ull;
    }
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>(
          (static_cast<std::uint32_t>(tag) >> (8 * b)) & 0xff);
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Determinism, GoldenTraceMatchesSeedImplementation) {
  const auto log = run_scenario();
  EXPECT_EQ(log.size(), 65u);
  EXPECT_EQ(fnv1a_hash(log), 0x04158ec688c56ed2ull);
}

TEST(Determinism, RunToRunIdentity) {
  const auto a = run_scenario();
  const auto b = run_scenario();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "entry " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "entry " << i;
  }
}

TEST(Determinism, TraceIsMonotoneAndCancelledEventsNeverFire) {
  const auto log = run_scenario();
  sim::SimTime prev = 0;
  for (const auto& [t, tag] : log) {
    EXPECT_GE(t, prev);
    prev = t;
    if (tag < 60) {
      EXPECT_NE(tag % 3, 0) << "cancelled event fired: " << tag;
    }
    EXPECT_NE(tag, 2000) << "re-armed shadow timer's original fired";
  }
}

// Network-level identity: two same-seed snapshot campaigns must produce
// identical observable state (packets, notifications, snapshot verdicts).
TEST(Determinism, SameSeedNetworkRunsAreIdentical) {
  auto run_once = [] {
    core::NetworkOptions opt;
    opt.seed = 1234;
    core::Network net(net::make_leaf_spine(2, 2, 2), opt);
    for (int i = 0; i < 200; ++i) {
      net.simulator().at(i * sim::usec(5), [&net, i] {
        net.host(static_cast<std::size_t>(i % 4))
            .send(net.host_id(static_cast<std::size_t>((i + 1) % 4)),
                  static_cast<net::FlowId>(i % 16), 400 + (i % 5) * 250);
      });
    }
    core::run_snapshot_campaign(net, 3, sim::msec(1), sim::usec(50),
                                sim::usec(200));
    struct Observed {
      std::uint64_t delivered = 0;
      std::uint64_t executed = 0;
      std::uint64_t scheduled = 0;
      auto operator<=>(const Observed&) const = default;
    } obs;
    for (std::size_t h = 0; h < 4; ++h) {
      obs.delivered += net.host(h).packets_received();
    }
    obs.executed = net.simulator().stats().executed;
    obs.scheduled = net.simulator().stats().scheduled;
    return obs;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_GT(a.delivered, 0u);
}

// The tie-break auditor's pairing logic is testable without the
// SPEEDLIGHT_CHECK_DETERMINISM hooks: drive begin_event/touch/end_event by
// hand (exactly what Simulator + touch_scope do when compiled in).
TEST(DetAuditor, PairsOnlySameTimestampEventsSharingAScope) {
  sim::det::Auditor a;
  a.install();
  a.begin_event(100, 1);
  a.touch(7);
  a.end_event();
  a.begin_event(100, 2);  // Same tick, same unit: a tie pair.
  a.touch(7);
  a.end_event();
  a.begin_event(100, 3);  // Same tick, disjoint unit: no pair.
  a.touch(8);
  a.end_event();
  a.begin_event(200, 4);  // Later tick: new cohort, no pair.
  a.touch(7);
  a.end_event();
  a.uninstall();
  EXPECT_EQ(a.tie_pairs(), 1u);
  EXPECT_EQ(a.events_seen(), 4u);
  EXPECT_EQ(a.scope_touches(), 4u);
}

TEST(DetAuditor, FingerprintReproducesAndIsOrderSensitive) {
  auto run = [](bool swapped) {
    sim::det::Auditor a;
    a.install();
    const std::uint64_t first = swapped ? 2 : 1;
    const std::uint64_t second = swapped ? 1 : 2;
    a.begin_event(50, first);
    a.touch(9);
    a.end_event();
    a.begin_event(50, second);
    a.touch(9);
    a.end_event();
    a.uninstall();
    return a.fingerprint();
  };
  EXPECT_EQ(run(false), run(false));  // Twin runs agree...
  EXPECT_NE(run(false), run(true));   // ...but a reordered tie is visible.
}

TEST(DetAuditor, DedupsRepeatedTouchesWithinOneEvent) {
  sim::det::Auditor a;
  a.install();
  a.begin_event(10, 1);
  a.touch(5);
  a.touch(5);
  a.touch(5);
  a.end_event();
  a.begin_event(10, 2);
  a.touch(5);
  a.end_event();
  a.uninstall();
  EXPECT_EQ(a.scope_touches(), 2u);
  EXPECT_EQ(a.tie_pairs(), 1u);  // One shared scope => one pair, not three.
}

}  // namespace
}  // namespace speedlight
