// Absolute timing pins on the Fig. 12 Hadoop testbed (2x2x3 leaf-spine,
// flowlet balancing, channel-state snapshots, v2 wire): every instant at
// which a packet leaves a switch onto a trunk or a host downlink, and every
// instant at which a host receives one.
//
// The digest pins (digest_pin_test) fold in snapshot ids, so they move when
// a switch's ingress unit runs at another instant even if no packet leaves
// or lands any differently. These pins cover only what happens from the
// output queue on: where the ingress unit linearizes inside the switch
// pipeline must leave them unchanged, while a change to queueing, egress
// pacing or wire timing moves them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/apps.hpp"

namespace speedlight {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-independent hash of (link, packet id, instant) records: events at
/// one instant on different links may run in any order without moving it.
struct InstantHash {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void add(std::uint64_t link, std::uint64_t packet, sim::SimTime t) {
    ++count;
    sum += mix(mix(mix(link) ^ packet) ^ static_cast<std::uint64_t>(t));
  }
};

struct Pin {
  std::uint64_t seed;
  std::uint64_t departures;
  std::uint64_t departure_hash;
  std::uint64_t deliveries;
  std::uint64_t delivery_hash;
};

void PrintTo(const Pin& pin, std::ostream* os) { *os << "seed " << pin.seed; }

constexpr Pin kPins[] = {
    {7, 365190, 18073241878829498996ull, 120984, 18334139868854857226ull},
    {3, 390641, 9147104587484679909ull, 129473, 14131461203822463460ull},
};

class TestbedInstants : public ::testing::TestWithParam<Pin> {};

TEST_P(TestbedInstants, MatchPinnedValues) {
  const Pin& pin = GetParam();
  core::NetworkOptions opt;
  opt.seed = pin.seed;
  opt.metric = sw::MetricKind::EwmaInterarrival;
  opt.load_balancer = sw::LoadBalancerKind::Flowlet;
  opt.flowlet_gap = sim::usec(50);
  opt.snapshot.channel_state = true;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);

  // Link tags: trunk t is 2t (a to b) and 2t + 1 (b to a); host h's
  // downlink is 1000 + h.
  InstantHash departures;
  InstantHash deliveries;
  auto depart_tap = [&departures](std::uint64_t tag) {
    return [&departures, tag](const net::Packet& p, sim::SimTime t) {
      departures.add(tag, p.id, t);
    };
  };
  for (std::size_t t = 0; t < net.spec().trunks.size(); ++t) {
    net.trunk_link(t, true).set_depart_tap(depart_tap(2 * t));
    net.trunk_link(t, false).set_depart_tap(depart_tap(2 * t + 1));
  }
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    net::Link& down = net.host_downlink(h);
    down.set_depart_tap(depart_tap(1000 + h));
    down.set_arrive_tap(
        [&deliveries, h](const net::Packet& p, sim::SimTime t) {
          deliveries.add(h, p.id, t);
        });
  }

  wl::HadoopGenerator::Options ho;
  ho.shuffle_bytes_per_reducer = 1 * 1024 * 1024;
  ho.compute_mean = sim::msec(40);
  wl::HadoopGenerator gen(
      net.simulator(), {&net.host(0), &net.host(1), &net.host(2)},
      {&net.host(3), &net.host(4), &net.host(5)}, ho, sim::Rng(pin.seed));
  gen.start(net.now());
  net.run_for(sim::msec(60));  // EWMA warm-up, as fig12 does.
  const auto campaign = core::run_snapshot_campaign(net, 100, sim::msec(8));
  EXPECT_EQ(campaign.results(net).size(), 100u);

  EXPECT_EQ(departures.count, pin.departures);
  EXPECT_EQ(departures.sum, pin.departure_hash);
  EXPECT_EQ(deliveries.count, pin.deliveries);
  EXPECT_EQ(deliveries.sum, pin.delivery_hash);
}

/// The Fig. 12 testbed with Hadoop traffic and four snapshots requested up
/// front. With `callbacks`, a no-op receive callback on every host keeps
/// the arrival event of every delivery; without, hosts book deliveries.
struct TestbedRun {
  std::unique_ptr<core::Network> net;
  std::unique_ptr<wl::HadoopGenerator> gen;
};

TestbedRun build_testbed(bool callbacks) {
  core::NetworkOptions opt;
  opt.seed = 7;
  opt.metric = sw::MetricKind::EwmaInterarrival;
  opt.load_balancer = sw::LoadBalancerKind::Flowlet;
  opt.flowlet_gap = sim::usec(50);
  opt.snapshot.channel_state = true;
  TestbedRun r;
  r.net = std::make_unique<core::Network>(net::make_leaf_spine(2, 2, 3), opt);
  core::Network& net = *r.net;
  if (callbacks) {
    for (std::size_t h = 0; h < net.num_hosts(); ++h) {
      net.host(h).set_receive_callback([](const net::Packet&, sim::SimTime) {});
    }
  }
  wl::HadoopGenerator::Options ho;
  ho.shuffle_bytes_per_reducer = 256 * 1024;
  ho.compute_mean = sim::msec(10);
  r.gen = std::make_unique<wl::HadoopGenerator>(
      net.simulator(),
      std::vector<net::Host*>{&net.host(0), &net.host(1), &net.host(2)},
      std::vector<net::Host*>{&net.host(3), &net.host(4), &net.host(5)}, ho,
      sim::Rng(7));
  r.gen->start(net.now());
  for (int i = 1; i <= 4; ++i) {
    net.observer().request_snapshot(sim::msec(8) * i);
  }
  return r;
}

TEST(TestbedDeliveries, BookedDeliveriesMatchArrivalEvents) {
  // Hosts with no receive callback book their deliveries instead of
  // running an arrival event for each. A no-op callback on every host
  // forces the event path; the two runs must agree on every host counter
  // at every 1 ms boundary, and the event path must cost exactly one more
  // event per delivered packet.
  TestbedRun booked = build_testbed(false);
  TestbedRun events = build_testbed(true);
  std::uint64_t delivered = 0;
  for (int ms = 1; ms <= 40; ++ms) {
    booked.net->run_until(sim::msec(ms));
    events.net->run_until(sim::msec(ms));
    delivered = 0;
    for (std::size_t h = 0; h < booked.net->num_hosts(); ++h) {
      const net::Host& a = booked.net->host(h);
      const net::Host& b = events.net->host(h);
      ASSERT_EQ(a.packets_received(), b.packets_received()) << ms << " ms";
      ASSERT_EQ(a.bytes_received(), b.bytes_received()) << ms << " ms";
      ASSERT_EQ(a.header_leaks(), b.header_leaks()) << ms << " ms";
      delivered += a.packets_received();
    }
  }
  EXPECT_GT(delivered, 1000u);
  EXPECT_EQ(events.net->simulator().stats().executed,
            booked.net->simulator().stats().executed + delivered);
}

TEST(TestbedDeliveries, CountsAfterAnUnfinishedSnapshotMatchArrivalEvents) {
  // take_snapshot() steps event by event and stops at its deadline, here
  // before the snapshot completes. Host counters read there must equal
  // those of a run that keeps every arrival event and runs to that instant.
  TestbedRun booked = build_testbed(false);
  TestbedRun events = build_testbed(true);
  booked.net->run_until(sim::msec(5));
  events.net->run_until(sim::msec(5));
  const snap::GlobalSnapshot* snap =
      booked.net->take_snapshot(sim::usec(500), sim::usec(1));
  ASSERT_NE(snap, nullptr);
  EXPECT_FALSE(snap->complete);
  // The request take_snapshot() made, at the same point of the run.
  events.net->observer().request_snapshot(sim::msec(5) + sim::usec(500));
  events.net->run_until(booked.net->now());
  std::uint64_t delivered = 0;
  for (std::size_t h = 0; h < booked.net->num_hosts(); ++h) {
    const net::Host& a = booked.net->host(h);
    const net::Host& b = events.net->host(h);
    EXPECT_EQ(a.packets_received(), b.packets_received()) << h;
    EXPECT_EQ(a.bytes_received(), b.bytes_received()) << h;
    EXPECT_EQ(a.header_leaks(), b.header_leaks()) << h;
    delivered += a.packets_received();
  }
  EXPECT_GT(delivered, 100u);
}

std::string pin_name(const ::testing::TestParamInfo<Pin>& param) {
  return "seed" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(TimingPins, TestbedInstants,
                         ::testing::ValuesIn(kPins), pin_name);

}  // namespace
}  // namespace speedlight
