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
#include <ostream>
#include <string>

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

std::string pin_name(const ::testing::TestParamInfo<Pin>& param) {
  return "seed" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(TimingPins, TestbedInstants,
                         ::testing::ValuesIn(kPins), pin_name);

}  // namespace
}  // namespace speedlight
