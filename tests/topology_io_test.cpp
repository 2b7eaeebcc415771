// Topology text serialization: round-trips, parsing, and error reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "net/topology.hpp"
#include "net/topology_io.hpp"

namespace speedlight::net {
namespace {

void expect_equivalent(const TopologySpec& a, const TopologySpec& b) {
  ASSERT_EQ(a.switches.size(), b.switches.size());
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    EXPECT_EQ(a.switches[i].name, b.switches[i].name);
    EXPECT_EQ(a.switches[i].num_ports, b.switches[i].num_ports);
    EXPECT_EQ(a.switches[i].snapshot_enabled, b.switches[i].snapshot_enabled);
  }
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].name, b.hosts[i].name);
    EXPECT_EQ(a.hosts[i].attached_switch, b.hosts[i].attached_switch);
    EXPECT_EQ(a.hosts[i].switch_port, b.hosts[i].switch_port);
  }
  ASSERT_EQ(a.trunks.size(), b.trunks.size());
  for (std::size_t i = 0; i < a.trunks.size(); ++i) {
    EXPECT_EQ(a.trunks[i].switch_a, b.trunks[i].switch_a);
    EXPECT_EQ(a.trunks[i].port_a, b.trunks[i].port_a);
    EXPECT_EQ(a.trunks[i].switch_b, b.trunks[i].switch_b);
    EXPECT_EQ(a.trunks[i].port_b, b.trunks[i].port_b);
    EXPECT_NEAR(a.trunks[i].bandwidth_bps, b.trunks[i].bandwidth_bps, 1.0);
    EXPECT_EQ(a.trunks[i].propagation, b.trunks[i].propagation);
  }
  EXPECT_NEAR(a.host_link_bandwidth_bps, b.host_link_bandwidth_bps, 1.0);
  EXPECT_EQ(a.host_link_propagation, b.host_link_propagation);
}

TEST(TopologyIo, RoundTripsAllBuilders) {
  for (const auto& spec :
       {make_leaf_spine(2, 2, 3), make_line(4), make_ring(5), make_star(3),
        make_fat_tree(4), make_figure1()}) {
    expect_equivalent(spec, topology_from_string(topology_to_string(spec)));
  }
}

TEST(TopologyIo, RoundTripsDisabledSwitches) {
  TopologySpec spec = make_line(3);
  spec.switches[1].snapshot_enabled = false;
  const TopologySpec back = topology_from_string(topology_to_string(spec));
  EXPECT_FALSE(back.switches[1].snapshot_enabled);
}

TEST(TopologyIo, ParsesHandWrittenFile) {
  const std::string text = R"(
# A tiny two-rack network.
host_links 25 500
switch tor0 3
switch tor1 3  # comments allowed anywhere
host web tor0 0
host db tor1 0
trunk tor0 2 tor1 2 40 750
)";
  const TopologySpec spec = topology_from_string(text);
  EXPECT_EQ(spec.switches.size(), 2u);
  EXPECT_EQ(spec.hosts.size(), 2u);
  ASSERT_EQ(spec.trunks.size(), 1u);
  EXPECT_NEAR(spec.trunks[0].bandwidth_bps, 40e9, 1.0);
  EXPECT_EQ(spec.trunks[0].propagation, 750);
  EXPECT_NEAR(spec.host_link_bandwidth_bps, 25e9, 1.0);
}

TEST(TopologyIo, TrunkDefaultsApply) {
  const TopologySpec spec = topology_from_string(
      "switch a 2\nswitch b 2\ntrunk a 0 b 0\n");
  ASSERT_EQ(spec.trunks.size(), 1u);
  EXPECT_NEAR(spec.trunks[0].bandwidth_bps, 100e9, 1.0);
}

TEST(TopologyIo, ErrorsCarryLineNumbers) {
  try {
    (void)topology_from_string("switch a 2\nhost h nosuch 0\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nosuch"), std::string::npos);
  }
}

TEST(TopologyIo, RejectsMalformedDirectives) {
  EXPECT_THROW(topology_from_string("switch a\n"), std::invalid_argument);
  EXPECT_THROW(topology_from_string("switch a 0\n"), std::invalid_argument);
  EXPECT_THROW(topology_from_string("frobnicate x\n"), std::invalid_argument);
  EXPECT_THROW(topology_from_string("switch a 2\nswitch a 2\n"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("switch a 2\nhost h a\n"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("host_links -1 5\n"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("switch a 2\nswitch b 2\ntrunk a 0 b 0 -4\n"),
               std::invalid_argument);
}

TEST(TopologyIo, RejectsImpossibleLinkParameters) {
  // Negative propagation would deliver frames before they are sent; zero
  // bandwidth would divide by zero when a frame serializes.
  const std::string two = "switch s0 2\nswitch s1 2\n";
  EXPECT_THROW(topology_from_string(two + "trunk s0 1 s1 1 100 -5000\n"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string(two + "trunk s0 1 s1 1 0\n"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("host_links 0 500\n" + two),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("host_links 25 -1\n" + two),
               std::invalid_argument);
  // Zero propagation is a valid (co-located) link.
  const TopologySpec spec =
      topology_from_string(two + "trunk s0 1 s1 1 100 0\n");
  EXPECT_EQ(spec.trunks[0].propagation, 0);
}

TEST(TopologyIo, ValidatesResult) {
  // Structurally parseable but semantically invalid (port reuse).
  EXPECT_THROW(topology_from_string(
                   "switch a 2\nhost h1 a 0\nhost h2 a 0\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace speedlight::net
