// The public facade: builder wiring, campaign helpers, value extraction.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(Network, BuildsAllNodeKinds) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  EXPECT_EQ(net.num_switches(), 4u);
  EXPECT_EQ(net.num_hosts(), 6u);
  EXPECT_EQ(net.switch_at(0).name(), "leaf0");
  EXPECT_EQ(net.host(0).name(), "h0");
  EXPECT_EQ(net.host_id(0), 4u);  // Switches take ids 0..3.
}

TEST(Network, RejectsInvalidSpec) {
  net::TopologySpec bad = net::make_star(2);
  bad.hosts.push_back({"dup", 0, 0});
  EXPECT_THROW(Network(bad, NetworkOptions{}), std::invalid_argument);
}

TEST(Network, RejectsNonPowerOfTwoWireModulus) {
  // Wire ids are masked, so a modulus that is not a power of two would
  // silently alias ids; the builder refuses it instead.
  for (const std::uint32_t m : {1u, 3u, 12u, 100u}) {
    NetworkOptions opt;
    opt.snapshot.wire_id_modulus = m;
    EXPECT_THROW(Network(net::make_star(2), opt), std::invalid_argument) << m;
  }
  NetworkOptions ok;
  ok.snapshot.wire_id_modulus = 64;
  EXPECT_NO_THROW(Network(net::make_star(2), ok));
}

TEST(Network, RejectsShardsOtherThanOne) {
  // A Network runs on one simulator; a stale shard count fails closed
  // instead of silently running serially.
  for (const std::size_t n : {0u, 2u, 4u}) {
    NetworkOptions opt;
    opt.shards = n;
    EXPECT_THROW(Network(net::make_line(3), opt), std::invalid_argument) << n;
  }
  EXPECT_NO_THROW(Network(net::make_line(3), NetworkOptions{}));
}

TEST(Network, RejectsWireFastPathOff) {
  // The control plane has one wire path; asking for the retired struct
  // shipping fails closed instead of silently running the wire path.
  NetworkOptions opt;
  opt.wire_fast_path = false;
  EXPECT_THROW(Network(net::make_line(3), opt), std::invalid_argument);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = []() {
    NetworkOptions opt;
    opt.seed = 99;
    Network net(net::make_leaf_spine(2, 2, 3), opt);
    for (int i = 0; i < 50; ++i) {
      net.host(0).send(net.host_id(5), static_cast<net::FlowId>(i), 1500);
    }
    const auto* snap = net.take_snapshot();
    return snap != nullptr ? snap->advance_span() : -1;
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, SeedChangesOutcome) {
  auto run = [](std::uint64_t seed) {
    NetworkOptions opt;
    opt.seed = seed;
    Network net(net::make_leaf_spine(2, 2, 3), opt);
    const auto* snap = net.take_snapshot();
    return snap != nullptr ? snap->advance_span() : -1;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Network, TakeSnapshotReturnsNullWhenWindowExhausted) {
  NetworkOptions opt;
  opt.snapshot.wire_id_modulus = 8;
  Network net(net::make_star(2), opt);
  for (int i = 0; i < 3; ++i) {
    net.observer().request_snapshot(net.now() + sim::sec(10));
  }
  EXPECT_EQ(net.take_snapshot(), nullptr);
}

TEST(Campaign, RunsRequestedCount) {
  Network net(net::make_star(3), NetworkOptions{});
  const auto campaign = core::run_snapshot_campaign(net, 7, sim::msec(2));
  EXPECT_EQ(campaign.ids.size(), 7u);
  EXPECT_EQ(campaign.skipped, 0u);
  EXPECT_EQ(campaign.results(net).size(), 7u);
}

TEST(Campaign, ExtractValuesFromSnapshots) {
  Network net(net::make_star(2), NetworkOptions{});
  for (int i = 0; i < 4; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  std::vector<double> out;
  ASSERT_TRUE(core::extract_values(
      *snap,
      {{0, 0, net::Direction::Ingress}, {0, 1, net::Direction::Egress}}, out));
  EXPECT_EQ(out, (std::vector<double>{4.0, 4.0}));
  // Unknown unit -> false.
  EXPECT_FALSE(core::extract_values(
      *snap, {{3, 0, net::Direction::Ingress}}, out));
}

TEST(Campaign, SnapshotCsvExport) {
  Network net(net::make_star(2), NetworkOptions{});
  for (int i = 0; i < 3; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  const auto campaign = core::run_snapshot_campaign(net, 2, sim::msec(2));
  std::ostringstream os;
  core::write_snapshot_csv(os, campaign.results(net));
  const std::string csv = os.str();
  // Header + 2 snapshots x 4 units.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 9);
  EXPECT_NE(csv.find("snapshot_id,scheduled_ms"), std::string::npos);
  EXPECT_NE(csv.find("ingress"), std::string::npos);
  EXPECT_NE(csv.find("egress"), std::string::npos);
  // The 3 packets show up in the ingress value column of some row.
  EXPECT_NE(csv.find(",1,0,3,"), std::string::npos);
}

TEST(Campaign, PollingCampaignProducesSweeps) {
  Network net(net::make_star(3), NetworkOptions{});
  net.register_all_units_for_polling();
  const auto sweeps = core::run_polling_campaign(net, 4, sim::msec(5));
  EXPECT_EQ(sweeps.size(), 4u);
  for (const auto& s : sweeps) {
    EXPECT_EQ(s.samples.size(), 6u);
  }
}

}  // namespace
}  // namespace speedlight
