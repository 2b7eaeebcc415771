// Property-based sweeps: the protocol invariants of DESIGN.md section 7,
// checked over a grid of topologies, load balancers, wire-id spaces, and
// seeds (parameterized gtest).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
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
  // The same seeded simulation run twice — hardware-faithful data plane vs
  // the idealized Figure 3 oracle. Event streams are identical, so every
  // consistent report must match exactly.
  auto run = [&](bool hardware) {
    NetworkOptions opt;
    opt.seed = GetParam();
    opt.snapshot.channel_state = true;
    opt.snapshot.hardware_faithful = hardware;
    auto net = std::make_unique<Network>(net::make_leaf_spine(2, 2, 2), opt);
    auto gens = start_traffic(*net, GetParam());
    net->run_for(sim::msec(2));
    const auto campaign = core::run_snapshot_campaign(*net, 5, sim::msec(3));
    std::vector<std::vector<std::pair<net::UnitId, snap::UnitReport>>> out;
    for (const auto* snap : campaign.results(*net)) {
      std::vector<std::pair<net::UnitId, snap::UnitReport>> sorted(
          snap->reports.begin(), snap->reports.end());
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      out.push_back(std::move(sorted));
    }
    return out;
  };

  const auto hw = run(true);
  const auto ideal = run(false);
  ASSERT_EQ(hw.size(), ideal.size());
  ASSERT_EQ(hw.size(), 5u);
  for (std::size_t s = 0; s < hw.size(); ++s) {
    ASSERT_EQ(hw[s].size(), ideal[s].size());
    for (std::size_t u = 0; u < hw[s].size(); ++u) {
      EXPECT_EQ(hw[s][u].first, ideal[s][u].first);
      EXPECT_EQ(hw[s][u].second.consistent, ideal[s][u].second.consistent);
      if (hw[s][u].second.consistent) {
        EXPECT_EQ(hw[s][u].second.local_value, ideal[s][u].second.local_value);
        EXPECT_EQ(hw[s][u].second.channel_value,
                  ideal[s][u].second.channel_value);
      }
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
