// Fault injection (net/faults.hpp): link flapping.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/faults.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(LinkFlapper, AlternatesAndCountsFlaps) {
  sim::Simulator sim;
  net::Host sink(sim, 1, "sink");
  net::Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  net::LinkFlapper flapper(sim, link, sim::msec(1), sim::msec(1), sim::Rng(2));
  flapper.start(sim::msec(5));
  sim.run_until(sim::msec(50));
  EXPECT_GT(flapper.flaps(), 5u);
  flapper.stop();
}

TEST(LinkFlapper, GoUpRestoresConfiguredLossRate) {
  // Regression: go_up() used to hardcode loss back to 0.0, silently
  // "repairing" links that are legitimately lossy when up.
  sim::Simulator sim;
  net::Host sink(sim, 1, "sink");
  net::Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  link.set_loss_probability(0.25);
  net::LinkFlapper flapper(sim, link, sim::msec(1), sim::msec(1), sim::Rng(2));
  flapper.start(0);
  sim.run_until(sim::msec(60));
  ASSERT_GT(flapper.flaps(), 0u);
  flapper.stop();
  sim.run_until(sim::msec(120));  // Drain any pending go_up.
  EXPECT_FALSE(flapper.is_down());
  EXPECT_DOUBLE_EQ(link.loss_probability(), 0.25);
}

TEST(LinkFlapper, StopWhileDownStillRestoresLink) {
  // stop() while the link is down must not strand it at 100% loss: the
  // already-scheduled go_up still restores the configured rate, and the
  // flapper schedules nothing further afterwards.
  sim::Simulator sim;
  net::Host sink(sim, 1, "sink");
  net::Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  link.set_loss_probability(0.1);
  net::LinkFlapper flapper(sim, link, sim::msec(2), sim::msec(2), sim::Rng(7));
  flapper.start(0);
  sim.run_until(sim::usec(1));  // go_down fires at start time.
  ASSERT_TRUE(flapper.is_down());
  ASSERT_DOUBLE_EQ(link.loss_probability(), 1.0);
  flapper.stop();
  sim.run_until(sim::msec(200));  // The pending go_up has long since fired.
  EXPECT_FALSE(flapper.is_down());
  EXPECT_DOUBLE_EQ(link.loss_probability(), 0.1);
  EXPECT_EQ(flapper.flaps(), 1u);
  // Nothing of the flapper's remains scheduled: total event activity is
  // frozen (this simulation contains nothing but the flapper).
  const std::uint64_t scheduled = sim.stats().scheduled;
  sim.run_until(sim::msec(400));
  EXPECT_EQ(sim.stats().scheduled, scheduled);
}

TEST(LinkFlapper, OverlappingFlappersRestoreTheConfiguredLossRate) {
  // Two flappers on one link, their down periods overlapping again and
  // again. Each must restore the rate the link was built with, not the one
  // it found at go_down(): a flapper that goes down while the other holds
  // the link at 100% loss would otherwise restore 100% for good.
  sim::Simulator sim;
  net::Host sink(sim, 1, "sink");
  net::Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  link.set_loss_probability(0.05);
  net::LinkFlapper first(sim, link, sim::msec(1), sim::msec(1), sim::Rng(2));
  net::LinkFlapper second(sim, link, sim::msec(1), sim::msec(1), sim::Rng(3));
  first.start(0);
  second.start(sim::usec(500));
  sim.run_until(sim::msec(50));
  ASSERT_GT(first.flaps(), 5u);
  ASSERT_GT(second.flaps(), 5u);
  first.stop();
  second.stop();
  sim.run_until(sim::sec(1));  // Both pending go_ups have long since fired.
  EXPECT_FALSE(first.is_down());
  EXPECT_FALSE(second.is_down());
  EXPECT_DOUBLE_EQ(link.loss_probability(), 0.05);
}

TEST(LinkFlapper, SnapshotsSurviveFlappingTrunk) {
  // Flap one spine trunk while taking channel-state snapshots: liveness
  // machinery (re-initiation + probes) must keep completing them, without
  // excluding any device.
  NetworkOptions opt;
  opt.seed = 61;
  opt.snapshot.channel_state = true;
  opt.observer.completion_timeout = sim::msec(150);
  Network net(net::make_leaf_spine(2, 2, 2), opt);

  // Flap the leaf0->spine0 trunk: markers and probes on it get lost in
  // bursts, forcing the liveness machinery to recover via retries.
  net::LinkFlapper flapper(net.simulator(), net.trunk_link(0, true),
                           /*up=*/sim::msec(4), /*down=*/sim::msec(2),
                           sim::Rng(99));
  flapper.start(net.now() + sim::msec(1));

  auto gens = std::vector<std::unique_ptr<wl::Generator>>{};
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 2) % 4)}, 40000, 1000,
        sim::Rng(61 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(20));
  const auto results = campaign.results(net);
  EXPECT_EQ(results.size(), 6u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->excluded_devices.empty());
  }
  EXPECT_GT(flapper.flaps(), 3u);
}

}  // namespace
}  // namespace speedlight
