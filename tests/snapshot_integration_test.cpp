// End-to-end snapshot protocol tests on live simulated networks: causal
// consistency (flow conservation), completion, liveness under loss,
// wraparound, partial deployment, and device exclusion.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

NetworkOptions cs_options() {
  NetworkOptions opt;
  opt.snapshot.channel_state = true;
  opt.metric = sw::MetricKind::PacketCount;
  return opt;
}

/// Background cross-traffic between all host pairs.
std::vector<std::unique_ptr<wl::Generator>> start_all_to_all(
    Network& net, double rate_pps = 50000) {
  std::vector<std::unique_ptr<wl::Generator>> gens;
  std::vector<net::NodeId> all;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) all.push_back(net.host_id(h));
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    std::vector<net::NodeId> dsts;
    for (const auto id : all) {
      if (id != net.host_id(h)) dsts.push_back(id);
    }
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h), dsts, rate_pps, 1000,
        sim::Rng(1000 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  return gens;
}

/// For every trunk direction: egress value == ingress value + ingress
/// channel state (exact flow conservation on lossless links).
void expect_conservation(const Network& net, const snap::GlobalSnapshot& snap) {
  for (const auto& t : net.spec().trunks) {
    const struct {
      net::UnitId egress, ingress;
    } dirs[2] = {
        {{static_cast<net::NodeId>(t.switch_a), t.port_a, net::Direction::Egress},
         {static_cast<net::NodeId>(t.switch_b), t.port_b, net::Direction::Ingress}},
        {{static_cast<net::NodeId>(t.switch_b), t.port_b, net::Direction::Egress},
         {static_cast<net::NodeId>(t.switch_a), t.port_a, net::Direction::Ingress}},
    };
    for (const auto& d : dirs) {
      const auto eg = snap.reports.find(d.egress);
      const auto in = snap.reports.find(d.ingress);
      ASSERT_NE(eg, snap.reports.end());
      ASSERT_NE(in, snap.reports.end());
      if (!eg->second.consistent || !in->second.consistent) continue;
      EXPECT_EQ(eg->second.local_value,
                in->second.local_value + in->second.channel_value)
          << "snapshot " << snap.id << " trunk " << t.switch_a << ":"
          << t.port_a << " -> " << t.switch_b << ":" << t.port_b;
    }
  }
}

TEST(SnapshotIntegration, NoCsSnapshotCompletesQuickly) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->excluded_devices.empty());
  EXPECT_TRUE(snap->all_consistent());
  // 4 switches: (5+5+2+2)*2 = 28 units.
  EXPECT_EQ(snap->reports.size(), 28u);
  // Near-synchronous: all units advanced within < 100us (Section 3).
  EXPECT_LT(snap->advance_span(), sim::usec(100));
  EXPECT_GT(snap->total_value(false), 0u);
}

TEST(SnapshotIntegration, CsSnapshotConservation) {
  Network net(net::make_leaf_spine(2, 2, 3), cs_options());
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->all_consistent());
  expect_conservation(net, *snap);
}

TEST(SnapshotIntegration, CsCompletesWithoutTrafficViaProbes) {
  // No application traffic at all: only probes can complete a channel-state
  // snapshot (the Section 6 liveness mechanism).
  Network net(net::make_leaf_spine(2, 2, 3), cs_options());
  const snap::GlobalSnapshot* snap = net.take_snapshot(sim::msec(1), sim::msec(200));
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->excluded_devices.empty());
  EXPECT_TRUE(snap->all_consistent());
}

TEST(SnapshotIntegration, CampaignValuesMonotone) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 10, sim::msec(2));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    for (const auto& [unit, report] : results[i]->reports) {
      const auto prev = results[i - 1]->reports.find(unit);
      ASSERT_NE(prev, results[i - 1]->reports.end());
      EXPECT_GE(report.local_value, prev->second.local_value);
    }
  }
}

TEST(SnapshotIntegration, CampaignConservationEverySnapshot) {
  Network net(net::make_leaf_spine(2, 2, 3), cs_options());
  auto gens = start_all_to_all(net, 80000);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 8, sim::msec(3));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 8u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->all_consistent());
    expect_conservation(net, *snap);
  }
}

TEST(SnapshotIntegration, WraparoundLongCampaign) {
  NetworkOptions opt = cs_options();
  opt.snapshot.wire_id_modulus = 8;  // 3-bit wire ids.
  Network net(net::make_line(3), opt);
  auto gens = start_all_to_all(net, 100000);
  net.run_for(sim::msec(2));
  // 30 snapshots roll the 3-bit id space over multiple times.
  const auto campaign = core::run_snapshot_campaign(net, 30, sim::msec(3));
  EXPECT_EQ(campaign.skipped, 0u);
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 30u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->all_consistent()) << snap->id;
    expect_conservation(net, *snap);
  }
}

TEST(SnapshotIntegration, NotificationLossRecoveredByRegisterPoll) {
  NetworkOptions opt;  // No channel state: simpler completion.
  opt.timing.notification_drop_probability = 0.3;
  opt.control.proactive_register_poll = true;
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 5, sim::msec(5));
  const auto results = campaign.results(net);
  EXPECT_EQ(results.size(), 5u);
}

TEST(SnapshotIntegration, TrunkLossStillCompletes) {
  // 2% loss on every link: channel-state conservation no longer holds, but
  // snapshots must still complete via re-initiation + probes.
  NetworkOptions opt = cs_options();
  opt.observer.completion_timeout = sim::msec(200);
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  // Inject loss by running traffic over a queue-constrained network
  // (drops at queues) — the worst case for marker delivery.
  net.run_for(sim::msec(1));
  auto gens = start_all_to_all(net, 150000);
  const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(20));
  const auto results = campaign.results(net);
  EXPECT_EQ(results.size(), 3u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->excluded_devices.empty());
  }
}

TEST(SnapshotIntegration, PartialDeploymentNoCs) {
  // Disable one spine: snapshots cover the remaining devices; traffic still
  // crosses the disabled switch with headers intact.
  net::TopologySpec spec = net::make_leaf_spine(2, 2, 3);
  spec.switches[3].snapshot_enabled = false;  // spine1.
  Network net(spec, NetworkOptions{});
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  // 3 enabled switches: (5+5+2)*2 = 24 units.
  EXPECT_EQ(snap->reports.size(), 24u);
  EXPECT_TRUE(snap->all_consistent());
  // Hosts never see headers even with a disabled transit switch.
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    EXPECT_EQ(net.host(h).header_leaks(), 0u) << h;
  }
}

TEST(SnapshotIntegration, PartialDeploymentCsChainConservation) {
  // Chain s0 - s1(disabled) - s2: the logical channel s0<->s2 stays FIFO,
  // so channel-state consistency holds across the disabled transit switch
  // (Section 10).
  net::TopologySpec spec = net::make_line(3);
  spec.switches[1].snapshot_enabled = false;
  NetworkOptions opt = cs_options();
  opt.transit_neighbors_carry_markers = true;
  Network net(spec, opt);
  auto gens = start_all_to_all(net, 100000);
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->all_consistent());
  // Conservation across the *logical* channel s0.egress(2) -> s2.ingress(1):
  // the disabled middle neither counts nor drops.
  const auto eg = snap->reports.find({0, 2, net::Direction::Egress});
  const auto in = snap->reports.find({2, 1, net::Direction::Ingress});
  ASSERT_NE(eg, snap->reports.end());
  ASSERT_NE(in, snap->reports.end());
  EXPECT_EQ(eg->second.local_value,
            in->second.local_value + in->second.channel_value);
}

TEST(SnapshotIntegration, HungDeviceExcludedAtTimeout) {
  // With probes disabled and zero traffic, channel-state completion stalls
  // forever (re-initiation resends initiations, which carry no marker
  // across a link): the observer must exclude the devices and finish the
  // snapshot without them.
  NetworkOptions opt = cs_options();
  opt.control.probe_on_initiate = false;
  opt.control.probe_on_reinitiate = false;
  opt.observer.completion_timeout = sim::msec(30);
  Network net(net::make_line(2), opt);
  const snap::GlobalSnapshot* snap = net.take_snapshot(sim::msec(1), sim::msec(100));
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_EQ(snap->excluded_devices.size(), 2u);
  EXPECT_TRUE(snap->reports.empty());
}

TEST(SnapshotIntegration, RolloverWindowRefusesOverrun) {
  NetworkOptions opt;
  opt.snapshot.wire_id_modulus = 8;  // No-CS window: modulus/2 - 1 = 3.
  Network net(net::make_star(2), opt);
  // Request far more snapshots than the window allows, all at once and too
  // far in the future for any to complete first.
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 10; ++i) {
    if (net.observer().request_snapshot(net.now() + sim::sec(1))) {
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(refused, 7);
}

TEST(SnapshotIntegration, SpuriousReportsIgnored) {
  // Reports for never-requested ids (e.g. from a freshly attached device
  // jumping ahead, Section 6 "Node attachment") must not crash or corrupt
  // the observer.
  Network net(net::make_star(2), NetworkOptions{});
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_EQ(net.observer().completed_count(), 1u);
}

TEST(SnapshotIntegration, EwmaMetricSnapshotConsistent) {
  NetworkOptions opt;
  opt.metric = sw::MetricKind::EwmaInterarrival;
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net, 100000);
  net.run_for(sim::msec(10));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  // Loaded units report a plausible interarrival EWMA.
  std::size_t nonzero = 0;
  for (const auto& [unit, r] : snap->reports) {
    nonzero += r.local_value > 0;
  }
  EXPECT_GT(nonzero, 10u);
}

TEST(SnapshotIntegration, SynchronizationWellUnderPollingSweep) {
  // The headline claim: snapshot spread is orders of magnitude tighter
  // than a sequential polling sweep of the same units.
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  auto gens = start_all_to_all(net);
  net.register_all_units_for_polling();
  net.run_for(sim::msec(5));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  const auto sweeps = core::run_polling_campaign(net, 1, sim::msec(1));
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_LT(snap->advance_span(), sim::usec(100));
  EXPECT_GT(sweeps[0].span(), sim::msec(1));
}

}  // namespace
}  // namespace speedlight
