// The fabric-wide metrics surface of core::Network: one registry reader per
// switch, notification-transport and control-plane series, summed over
// every switch when read. The registry's size is the same at every fabric
// size, and each "fabric.*" value equals the per-switch accessors it sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "test_topologies.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

std::size_t registry_size(const net::TopologySpec& spec) {
  NetworkOptions opt;
  opt.seed = 11;
  Network net(spec, opt);
  return net.metrics().size();
}

std::uint64_t sample(Network& net, const std::string& name) {
  for (const auto& s : net.metrics().collect()) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no registry sample named " << name;
  return 0;
}

TEST(FabricMetrics, RegistryCardinalityConstantAcrossFabricSize) {
  // Growing the fabric 10x (or 64x) must not add a single registry entry.
  EXPECT_EQ(registry_size(net::make_line(4)),
            registry_size(net::make_line(40)));
  EXPECT_EQ(registry_size(net::make_fat_tree(4)),
            registry_size(net::make_fat_tree(16)));
}

TEST(FabricMetrics, TotalsMatchPerSwitchSums) {
  // Run traffic plus a snapshot and check every fabric-wide reader against
  // the ground-truth per-switch accessors.
  NetworkOptions opt;
  opt.seed = 77;
  Network net(check::make_topo(check::TopoKind::LeafSpine, 3, 2, 2), opt);

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 1) % net.num_hosts())},
        50000, 1000, sim::Rng(77 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(2));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);

  using Read = std::uint64_t (*)(sw::Switch&);
  const std::pair<const char*, Read> kSums[] = {
      {"fabric.queue_drops", [](sw::Switch& s) { return s.queue_drops(); }},
      {"fabric.forwarding_drops",
       [](sw::Switch& s) { return s.forwarding_drops(); }},
      {"fabric.ttl_drops", [](sw::Switch& s) { return s.ttl_drops(); }},
      {"fabric.snap.captures",
       [](sw::Switch& s) { return s.snapshot_captures(); }},
      {"fabric.snap.notifications",
       [](sw::Switch& s) { return s.snapshot_notifications(); }},
      {"fabric.notif.delivered",
       [](sw::Switch& s) { return s.notifications().delivered(); }},
      {"fabric.notif.dropped_overflow",
       [](sw::Switch& s) { return s.notifications().dropped_overflow(); }},
      {"fabric.notif.dropped_random",
       [](sw::Switch& s) { return s.notifications().dropped_random(); }},
      {"fabric.notif.backlog",
       [](sw::Switch& s) -> std::uint64_t {
         return s.notifications().backlog();
       }},
      {"fabric.cp.initiations_sent",
       [](sw::Switch& s) { return s.control_plane().initiations_sent(); }},
      {"fabric.cp.reinitiation_rounds",
       [](sw::Switch& s) { return s.control_plane().reinitiation_rounds(); }},
      {"fabric.cp.reports_sent",
       [](sw::Switch& s) { return s.control_plane().reports_sent(); }},
  };
  for (const auto& [name, read] : kSums) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      total += read(net.switch_at(s));
    }
    EXPECT_EQ(sample(net, name), total) << name;
  }

  std::uint64_t delivered = 0;
  std::uint64_t high = 0;
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    delivered += net.switch_at(s).notifications().delivered();
    high = std::max<std::uint64_t>(
        high, net.switch_at(s).notifications().max_backlog());
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(sample(net, "fabric.snap.captures"), 0u);
  EXPECT_GT(sample(net, "fabric.cp.reports_sent"), 0u);
  EXPECT_EQ(sample(net, "fabric.notif.max_backlog"), high);
  // Every delivered notification records its queue delay in the one
  // fabric-wide histogram.
  EXPECT_EQ(sample(net, "fabric.notif.queue_delay_ns.count"), delivered);
}

}  // namespace
}  // namespace speedlight
