// Property-based sweeps: the protocol invariants of DESIGN.md section 7,
// checked over a grid of topologies, load balancers, wire-id spaces, and
// seeds (parameterized gtest).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "test_topologies.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

// Shared family factory (tests/test_topologies.hpp); the fuzzer's scenario
// generator draws from the same switch with randomized sizes.
using Topo = ::speedlight::testing::TopoKind;

net::TopologySpec make_topo(Topo t) {
  return ::speedlight::testing::make_test_topo(t);
}

std::string topo_name(Topo t) {
  return ::speedlight::testing::test_topo_name(t);
}

struct Params {
  Topo topo;
  sw::LoadBalancerKind lb;
  std::uint32_t modulus;  // 0 = unbounded
  std::uint64_t seed;
  snap::NotificationMode transport = snap::NotificationMode::RawSocket;
  sw::MetricKind metric = sw::MetricKind::PacketCount;
};

class SnapshotProperty : public ::testing::TestWithParam<Params> {};

std::vector<std::unique_ptr<wl::Generator>> start_traffic(Network& net,
                                                          std::uint64_t seed) {
  std::vector<std::unique_ptr<wl::Generator>> gens;
  std::vector<net::NodeId> all;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) all.push_back(net.host_id(h));
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    std::vector<net::NodeId> dsts;
    for (const auto id : all) {
      if (id != net.host_id(h)) dsts.push_back(id);
    }
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h), dsts, 60000, 1200,
        sim::Rng(seed * 977 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  return gens;
}

TEST_P(SnapshotProperty, ConservationCompletenessMonotonicity) {
  const Params p = GetParam();
  NetworkOptions opt;
  opt.seed = p.seed;
  opt.snapshot.channel_state = true;
  opt.snapshot.wire_id_modulus = p.modulus;
  opt.load_balancer = p.lb;
  opt.notification_mode = p.transport;
  opt.metric = p.metric;
  if (p.transport == snap::NotificationMode::Digest) {
    // Digest batching delays completion; give the observer headroom.
    opt.observer.completion_timeout = sim::msec(300);
  }
  Network net(make_topo(p.topo), opt);
  auto gens = start_traffic(net, p.seed);
  net.run_for(sim::msec(2));

  const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(3));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 6u) << "skipped=" << campaign.skipped;

  const snap::GlobalSnapshot* prev = nullptr;
  for (const auto* snap : results) {
    // Completeness: every unit of every device reported.
    EXPECT_TRUE(snap->complete);
    EXPECT_TRUE(snap->excluded_devices.empty());
    EXPECT_TRUE(snap->all_consistent()) << "snapshot " << snap->id;

    // Causal consistency (flow conservation) on every trunk direction.
    for (const auto& t : net.spec().trunks) {
      const net::UnitId eg_ab{static_cast<net::NodeId>(t.switch_a), t.port_a,
                              net::Direction::Egress};
      const net::UnitId in_ab{static_cast<net::NodeId>(t.switch_b), t.port_b,
                              net::Direction::Ingress};
      const net::UnitId eg_ba{static_cast<net::NodeId>(t.switch_b), t.port_b,
                              net::Direction::Egress};
      const net::UnitId in_ba{static_cast<net::NodeId>(t.switch_a), t.port_a,
                              net::Direction::Ingress};
      for (const auto& [eg, in] :
           {std::pair{eg_ab, in_ab}, std::pair{eg_ba, in_ba}}) {
        const auto e = snap->reports.find(eg);
        const auto i = snap->reports.find(in);
        ASSERT_NE(e, snap->reports.end());
        ASSERT_NE(i, snap->reports.end());
        if (!e->second.consistent || !i->second.consistent) continue;
        EXPECT_EQ(e->second.local_value,
                  i->second.local_value + i->second.channel_value)
            << "snapshot " << snap->id;
      }
    }

    // Monotonicity across snapshots, per unit.
    if (prev != nullptr) {
      for (const auto& [unit, report] : snap->reports) {
        const auto before = prev->reports.find(unit);
        ASSERT_NE(before, prev->reports.end());
        EXPECT_GE(report.local_value, before->second.local_value);
      }
    }
    prev = snap;

    // Synchronization: local snapshot instants spread < 100us (Section 3).
    EXPECT_LT(snap->advance_span(), sim::usec(100)) << "snapshot " << snap->id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SnapshotProperty,
    ::testing::Values(
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Ecmp, 0, 1},
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Flowlet, 0, 2},
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Ecmp, 16, 3},
        Params{Topo::Line, sw::LoadBalancerKind::Ecmp, 0, 4},
        Params{Topo::Line, sw::LoadBalancerKind::Ecmp, 8, 5},
        Params{Topo::Ring, sw::LoadBalancerKind::Ecmp, 0, 6},
        Params{Topo::Ring, sw::LoadBalancerKind::Flowlet, 16, 7},
        Params{Topo::FatTree, sw::LoadBalancerKind::Ecmp, 0, 8},
        Params{Topo::FatTree, sw::LoadBalancerKind::Flowlet, 0, 9},
        Params{Topo::Figure1, sw::LoadBalancerKind::Ecmp, 0, 10},
        Params{Topo::Figure1, sw::LoadBalancerKind::Ecmp, 8, 11},
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Flowlet, 8, 12},
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Ecmp, 0, 13,
               snap::NotificationMode::Digest},
        Params{Topo::Line, sw::LoadBalancerKind::Ecmp, 8, 14,
               snap::NotificationMode::Digest},
        Params{Topo::LeafSpine, sw::LoadBalancerKind::Ecmp, 0, 15,
               snap::NotificationMode::RawSocket, sw::MetricKind::ByteCount},
        Params{Topo::Ring, sw::LoadBalancerKind::Ecmp, 16, 16,
               snap::NotificationMode::RawSocket, sw::MetricKind::ByteCount}),
    // Named to dodge -Wshadow: INSTANTIATE_TEST_SUITE_P's expansion already
    // binds `info`.
    [](const ::testing::TestParamInfo<Params>& param_info) {
      const Params& p = param_info.param;
      return topo_name(p.topo) +
             (p.lb == sw::LoadBalancerKind::Ecmp ? "_Ecmp" : "_Flowlet") +
             "_M" + std::to_string(p.modulus) + "_S" +
             std::to_string(p.seed) +
             (p.transport == snap::NotificationMode::Digest ? "_Digest" : "") +
             (p.metric == sw::MetricKind::ByteCount ? "_Bytes" : "");
    });

// --- Hardware vs idealized algorithm equivalence -----------------------------

class ModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeEquivalence, IdenticalReportsWithoutSkips) {
  // One seeded simulation with the idealized Figure 3 oracle kept beside
  // the hardware-faithful data plane: every report the observer assembled
  // has an oracle report built at the same read, and whatever is
  // consistent must match exactly.
  NetworkOptions opt;
  opt.seed = GetParam();
  opt.snapshot.channel_state = true;
  opt.snapshot.oracle = true;
  auto net = std::make_unique<Network>(net::make_leaf_spine(2, 2, 2), opt);
  auto gens = start_traffic(*net, GetParam());
  net->run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(*net, 5, sim::msec(3));

  std::map<std::pair<snap::VirtualSid, net::UnitId>, snap::UnitReport> oracle;
  for (std::size_t i = 0; i < net->num_switches(); ++i) {
    for (const auto& r : net->switch_at(i).control_plane().oracle_reports()) {
      oracle.emplace(std::make_pair(r.sid, r.unit), r);
    }
  }
  const auto results = campaign.results(*net);
  ASSERT_EQ(results.size(), 5u);
  for (const auto* snap : results) {
    ASSERT_FALSE(snap->reports.empty());
    for (const auto& [unit, hw] : snap->reports) {
      const auto it = oracle.find({snap->id, unit});
      ASSERT_NE(it, oracle.end()) << snap->id;
      const snap::UnitReport& ideal = it->second;
      EXPECT_EQ(hw.consistent, ideal.consistent);
      if (hw.consistent) {
        EXPECT_EQ(hw.local_value, ideal.local_value);
        EXPECT_EQ(hw.channel_value, ideal.channel_value);
      }
    }
  }
}

TEST_P(ModeEquivalence, OracleDiffersOnlyWhereIdsAreSkipped) {
  // Snapshots 2 us apart, closer than the initiation skew between devices:
  // a unit meets a packet stamped two ids ahead before its own initiation
  // for the id between arrives, and jumps past that id. The hardware writes
  // one slot per packet (Section 5.3); the Figure 3 oracle back-fills every
  // id the jump passed.
  // - Without channel state, the control plane reads a skipped id and
  //   infers its value from the next valid slot (Figure 7): the shipped
  //   report is inferred, while the oracle's is a fresh read of the same
  //   value. An oracle that read the hardware array would ship the same
  //   inferred report, so some skipped id must differ.
  // - With channel state, a skipped id is marked inconsistent without a
  //   read, so the oracle reports the same there by construction; over
  //   seeds 21-25, neither a notification drop burst (50% and 90% loss with
  //   register polls) nor a 4-id wire space made a read land on an id the
  //   unit jumped past.
  for (const bool channel_state : {false, true}) {
    SCOPED_TRACE(channel_state ? "channel state" : "no channel state");
    NetworkOptions opt;
    opt.seed = GetParam();
    opt.snapshot.channel_state = channel_state;
    opt.snapshot.oracle = true;
    auto net = std::make_unique<Network>(net::make_leaf_spine(2, 2, 2), opt);
    auto gens = start_traffic(*net, GetParam());
    net->run_for(sim::msec(2));
    const auto campaign = core::run_snapshot_campaign(*net, 8, sim::usec(2));

    std::map<std::pair<snap::VirtualSid, net::UnitId>, snap::UnitReport>
        oracle;
    for (std::size_t i = 0; i < net->num_switches(); ++i) {
      for (const auto& r : net->switch_at(i).control_plane().oracle_reports()) {
        oracle.emplace(std::make_pair(r.sid, r.unit), r);
      }
    }
    const auto results = campaign.results(*net);
    ASSERT_EQ(results.size(), 8u);
    std::size_t skipped = 0;
    std::size_t differs = 0;
    for (const auto* snap : results) {
      for (const auto& [unit, hw] : snap->reports) {
        const auto it = oracle.find({snap->id, unit});
        ASSERT_NE(it, oracle.end()) << snap->id;
        const snap::UnitReport& ideal = it->second;
        const bool skip = channel_state ? !hw.consistent : hw.inferred;
        if (!skip) {
          EXPECT_EQ(ideal.consistent, hw.consistent);
          EXPECT_EQ(ideal.inferred, hw.inferred);
          EXPECT_EQ(ideal.local_value, hw.local_value);
          EXPECT_EQ(ideal.channel_value, hw.channel_value);
          continue;
        }
        ++skipped;
        if (channel_state) {
          EXPECT_FALSE(ideal.consistent);
        } else {
          EXPECT_EQ(ideal.local_value, hw.local_value);
          if (ideal.consistent && !ideal.inferred) ++differs;
        }
      }
    }
    EXPECT_GT(skipped, 0u) << "no id was skipped";
    if (!channel_state) {
      EXPECT_GT(differs, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25));

// --- Liveness under injected faults -------------------------------------------

class FaultLiveness : public ::testing::TestWithParam<double> {};

TEST_P(FaultLiveness, SnapshotsCompleteUnderNotificationLoss) {
  NetworkOptions opt;
  opt.seed = 42;
  opt.timing.notification_drop_probability = GetParam();
  opt.control.proactive_register_poll = true;
  opt.observer.completion_timeout = sim::msec(80);
  Network net(net::make_leaf_spine(2, 2, 2), opt);
  auto gens = start_traffic(net, 42);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 4, sim::msec(10));
  const auto results = campaign.results(net);
  EXPECT_EQ(results.size(), 4u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->excluded_devices.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, FaultLiveness,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6));

// --- Correctness under notification loss --------------------------------------

class LossyCorrectness : public ::testing::TestWithParam<double> {};

TEST_P(LossyCorrectness, ConsistentReportsRemainExact) {
  // Notification drops may conservatively mark snapshots inconsistent or
  // delay reads, but every report the control plane DOES deliver as
  // consistent must still satisfy flow conservation exactly: the registers
  // hold ground truth regardless of what the CPU saw.
  NetworkOptions opt;
  opt.seed = 71;
  opt.snapshot.channel_state = true;
  opt.timing.notification_drop_probability = GetParam();
  opt.control.proactive_register_poll = true;
  opt.observer.completion_timeout = sim::msec(120);
  Network net(net::make_leaf_spine(2, 2, 2), opt);
  auto gens = start_traffic(net, 71);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 5, sim::msec(15));
  const auto results = campaign.results(net);
  ASSERT_GE(results.size(), 4u);
  std::size_t checked = 0;
  for (const auto* snap : results) {
    for (const auto& t : net.spec().trunks) {
      const net::UnitId eg{static_cast<net::NodeId>(t.switch_a), t.port_a,
                           net::Direction::Egress};
      const net::UnitId in{static_cast<net::NodeId>(t.switch_b), t.port_b,
                           net::Direction::Ingress};
      const auto e = snap->reports.find(eg);
      const auto i = snap->reports.find(in);
      if (e == snap->reports.end() || i == snap->reports.end()) continue;
      if (!e->second.consistent || !i->second.consistent) continue;
      EXPECT_EQ(e->second.local_value,
                i->second.local_value + i->second.channel_value)
          << "snapshot " << snap->id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "loss rate so high nothing was checkable";
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyCorrectness,
                         ::testing::Values(0.05, 0.2, 0.4));

}  // namespace
}  // namespace speedlight
