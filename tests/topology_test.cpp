// Topology builders, validation, and ECMP route computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "net/soa.hpp"
#include "net/topology.hpp"

namespace speedlight::net {
namespace {

TEST(Topology, LeafSpineShape) {
  const TopologySpec spec = make_leaf_spine(2, 2, 3);
  spec.validate();
  EXPECT_EQ(spec.switches.size(), 4u);
  EXPECT_EQ(spec.hosts.size(), 6u);
  EXPECT_EQ(spec.trunks.size(), 4u);
  EXPECT_EQ(spec.switches[0].num_ports, 5u);  // 3 hosts + 2 uplinks.
  EXPECT_EQ(spec.switches[2].num_ports, 2u);  // Spines: one port per leaf.
}

TEST(Topology, ValidateCatchesPortReuse) {
  TopologySpec spec = make_leaf_spine(2, 2, 3);
  spec.hosts.push_back({"dup", 0, 0});  // Port 0 already used.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Topology, ValidateCatchesOutOfRange) {
  TopologySpec spec = make_star(2);
  spec.hosts.push_back({"bad", 7, 0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  TopologySpec spec2 = make_star(2);
  spec2.trunks.push_back({0, 0, 0, 1, 1e9, 1});
  EXPECT_THROW(spec2.validate(), std::invalid_argument);  // Self loop.
}

TEST(Topology, ValidateRejectsImpossibleLinkParameters) {
  // Programmatic specs fail like parsed ones: every host link and trunk
  // needs a finite, positive bandwidth and a non-negative propagation.
  auto rejects = [](auto&& mutate) {
    TopologySpec spec = make_line(2);
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bw : {0.0, -1e9, nan, inf}) {
    SCOPED_TRACE(bw);
    rejects([bw](TopologySpec& s) { s.trunks[0].bandwidth_bps = bw; });
    rejects([bw](TopologySpec& s) { s.host_link_bandwidth_bps = bw; });
  }
  rejects([](TopologySpec& s) { s.trunks[0].propagation = -5000; });
  rejects([](TopologySpec& s) { s.host_link_propagation = -1; });

  TopologySpec zero = make_line(2);
  zero.trunks[0].propagation = 0;
  zero.host_link_propagation = 0;
  EXPECT_NO_THROW(zero.validate());
}

TEST(Topology, EcmpRoutesLeafSpine) {
  const TopologySpec spec = make_leaf_spine(2, 2, 3);
  const EcmpRoutes routes = compute_ecmp_routes(spec);

  // Host 0 lives on leaf0 port 0.
  EXPECT_EQ(routes[0][0], (std::vector<PortId>{0}));
  // From leaf1 to host 0: both uplinks (ports 3 and 4).
  std::vector<PortId> up = routes[1][0];
  std::sort(up.begin(), up.end());
  EXPECT_EQ(up, (std::vector<PortId>{3, 4}));
  // From spine0 to host 0: the leaf0-facing port (0).
  EXPECT_EQ(routes[2][0], (std::vector<PortId>{0}));
  // From spine to a host on leaf1: port 1.
  EXPECT_EQ(routes[2][3], (std::vector<PortId>{1}));
}

TEST(Topology, EcmpRoutesLine) {
  const TopologySpec spec = make_line(4);
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  // Host 1 is on the last switch; every switch forwards right (port 2).
  for (std::size_t s = 0; s + 1 < 4; ++s) {
    EXPECT_EQ(routes[s][1], (std::vector<PortId>{2})) << s;
  }
  // Host 0 is on switch 0; downstream switches forward left (port 1).
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(routes[s][0], (std::vector<PortId>{1})) << s;
  }
}

TEST(Topology, EcmpRoutesRingUsesShortestDirection) {
  const TopologySpec spec = make_ring(4);
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  // From switch 1 to host on switch 0: one hop counter-clockwise.
  ASSERT_EQ(routes[1][0].size(), 1u);
  // From switch 2 to host 0: both directions are 2 hops -> ECMP set of 2.
  EXPECT_EQ(routes[2][0].size(), 2u);
}

TEST(Topology, FatTreeShape) {
  const TopologySpec spec = make_fat_tree(4);
  spec.validate();
  // k=4: 16 hosts, 8 edge + 8 agg + 4 core switches, 32 trunks.
  EXPECT_EQ(spec.hosts.size(), 16u);
  EXPECT_EQ(spec.switches.size(), 20u);
  EXPECT_EQ(spec.trunks.size(), 32u);
}

TEST(Topology, FatTreeEcmpDiversity) {
  const TopologySpec spec = make_fat_tree(4);
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  // Cross-pod traffic from an edge switch has 2 uplinks on the shortest
  // path (k/2 = 2).
  const std::size_t edge0 = 0;
  // Host 15 is in the last pod; host 0 is on edge0.
  EXPECT_EQ(routes[edge0][15].size(), 2u);
  // Every switch can reach every host.
  for (std::size_t s = 0; s < spec.switches.size(); ++s) {
    for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
      EXPECT_FALSE(routes[s][h].empty()) << "s=" << s << " h=" << h;
    }
  }
}

TEST(Topology, FatTreeRejectsOddK) {
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);
  EXPECT_THROW(make_fat_tree(0), std::invalid_argument);
}

TEST(Topology, Figure1Asymmetric) {
  const TopologySpec spec = make_figure1();
  spec.validate();
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  // From a (switch 0) to hy (host 3): direct link a->y only (1 hop).
  EXPECT_EQ(routes[0][3], (std::vector<PortId>{2}));
  // From b (switch 1) to hx (host 2): b->y->a->x is the only path... via
  // port 1 (b's only trunk).
  EXPECT_EQ(routes[1][2], (std::vector<PortId>{1}));
}

TEST(Topology, StarRoutesDirect) {
  const TopologySpec spec = make_star(4);
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_EQ(routes[0][h], (std::vector<PortId>{static_cast<PortId>(h)}));
  }
}

TEST(Topology, RoutesNeverUseHostPortsForTransit) {
  const TopologySpec spec = make_leaf_spine(3, 2, 4);
  const EcmpRoutes routes = compute_ecmp_routes(spec);
  // Transit routes (switch != attachment) must only use trunk ports.
  std::set<std::pair<std::size_t, PortId>> host_ports;
  for (const auto& h : spec.hosts) {
    host_ports.insert({h.attached_switch, h.switch_port});
  }
  for (std::size_t s = 0; s < spec.switches.size(); ++s) {
    for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
      if (spec.hosts[h].attached_switch == s) continue;
      for (const PortId p : routes[s][h]) {
        EXPECT_FALSE(host_ports.contains({s, p})) << "s=" << s << " h=" << h;
      }
    }
  }
}

TEST(CompactRoutes, MatchesEcmpRoutesEverywhere) {
  // The interned SoA route table must agree with the reference per-entity
  // computation for every (switch, host) pair — same ports, same order —
  // across every topology family (the pinned equivalence the RoutingTable
  // compact base relies on).
  const TopologySpec specs[] = {
      make_leaf_spine(3, 2, 4), make_fat_tree(4), make_ring(5),
      make_line(4),             make_star(3),
  };
  for (const TopologySpec& spec : specs) {
    SCOPED_TRACE(spec.switches.size());
    const EcmpRoutes ref = compute_ecmp_routes(spec);
    const CompactRoutes compact = compute_compact_routes(spec);
    for (std::size_t s = 0; s < spec.switches.size(); ++s) {
      std::uint64_t routable = 0;
      for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
        const auto span = compact.lookup(s, h);
        const std::vector<PortId> got(span.begin(), span.end());
        EXPECT_EQ(got, ref[s][h]) << "s=" << s << " h=" << h;
        if (!ref[s][h].empty()) ++routable;
      }
      EXPECT_EQ(compact.routable_destinations(s), routable) << "s=" << s;
    }
  }
}

TEST(CompactRoutes, InternsSharedNextHopSets) {
  // In a leaf-spine every leaf shares one uplink set toward all remote
  // hosts: the pool must hold far fewer sets than (switches x hosts)
  // route entries — the memory win the SoA core exists for.
  const TopologySpec spec = make_leaf_spine(4, 3, 4);
  const CompactRoutes compact = compute_compact_routes(spec);
  EXPECT_LT(compact.num_sets(),
            spec.switches.size() * spec.hosts.size() / 4);
}

}  // namespace
}  // namespace speedlight::net
