// Ground-truth audit tests: internal-channel flow conservation via
// SwitchAudit hooks, stamp monotonicity, and CoS sub-channel consistency.
#include <gtest/gtest.h>

#include <map>
#include <memory>
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

/// Records, per egress unit and snapshot id, how many counted packets were
/// committed to its internal channels pre-snapshot (stamp < id), plus the
/// queue drops that would break conservation.
class ConservationAudit final : public sw::SwitchAudit {
 public:
  void on_internal_send(net::NodeId swid, net::PortId /*in*/, net::PortId out,
                        std::uint64_t vsid, bool counts) override {
    if (!counts) return;
    // The packet is pre-snapshot for every id > vsid: record its stamp and
    // resolve per-id counts lazily.
    stamps_[key(swid, out)].push_back(vsid);
  }
  void on_queue_drop(net::NodeId swid, net::PortId out) override {
    ++drops_[key(swid, out)];
  }

  /// Packets sent into (switch, egress port)'s internal channels with
  /// stamp < id.
  [[nodiscard]] std::uint64_t sent_pre(net::NodeId swid, net::PortId out,
                                       std::uint64_t id) const {
    const auto it = stamps_.find(key(swid, out));
    if (it == stamps_.end()) return 0;
    std::uint64_t n = 0;
    for (const auto s : it->second) n += s < id;
    return n;
  }
  [[nodiscard]] std::uint64_t drops(net::NodeId swid, net::PortId out) const {
    const auto it = drops_.find(key(swid, out));
    return it == drops_.end() ? 0 : it->second;
  }

 private:
  static std::uint64_t key(net::NodeId swid, net::PortId out) {
    return (static_cast<std::uint64_t>(swid) << 16) | out;
  }
  std::map<std::uint64_t, std::vector<std::uint64_t>> stamps_;
  std::map<std::uint64_t, std::uint64_t> drops_;
};

TEST(AuditConservation, InternalChannelsConserveFlow) {
  NetworkOptions opt;
  opt.seed = 31;
  opt.snapshot.channel_state = true;
  Network net(testing::make_test_topo(testing::TopoKind::LeafSpine), opt);
  ConservationAudit audit;
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    net.switch_at(s).set_audit(&audit);
  }

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 1) % 4),
                                 net.host_id((h + 2) % 4)},
        60000, 900, sim::Rng(77 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(3));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 6u);

  // For every egress unit u and consistent snapshot i:
  //   sent_pre(i, internal channels of u) == value(u, i) + channel(u, i)
  // provided nothing was dropped at u's queue (true here: light load).
  for (const auto* snap : results) {
    for (net::NodeId swid = 0; swid < net.num_switches(); ++swid) {
      const auto ports = net.switch_at(swid).options().num_ports;
      for (net::PortId p = 0; p < ports; ++p) {
        ASSERT_EQ(audit.drops(swid, p), 0u);
        const auto it = snap->reports.find({swid, p, net::Direction::Egress});
        ASSERT_NE(it, snap->reports.end());
        if (!it->second.consistent) continue;
        EXPECT_EQ(audit.sent_pre(swid, p, snap->id),
                  it->second.local_value + it->second.channel_value)
            << "snapshot " << snap->id << " switch " << swid << " port " << p;
      }
    }
  }
}

TEST(AuditConservation, StampsNeverExceedReceiverSid) {
  // The causal-cut invariant in its rawest form: no unit ever emits a
  // packet stamped beyond its own id, and external receivers catch up to
  // at least the stamp before counting (checked implicitly by the
  // conservation equalities; here we check emitted stamps directly).
  NetworkOptions opt;
  opt.seed = 32;
  opt.snapshot.channel_state = true;
  Network net(testing::make_test_topo(testing::TopoKind::Line), opt);

  struct StampAudit final : sw::SwitchAudit {
    std::uint64_t max_stamp = 0;
    void on_external_send(net::NodeId, net::PortId, std::uint64_t vsid,
                          bool) override {
      max_stamp = std::max(max_stamp, vsid);
    }
  } audit;
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    net.switch_at(s).set_audit(&audit);
  }
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1), 1, 2e9,
                       1200);
  gen.start(net.now());
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 5, sim::msec(3));
  EXPECT_EQ(campaign.results(net).size(), 5u);
  // No packet ever carried an id beyond the highest initiated snapshot.
  EXPECT_LE(audit.max_stamp, 5u);
}

TEST(CosChannels, TwoClassSnapshotStaysConsistent) {
  // With two CoS classes, each internal channel splits into two FIFO
  // sub-channels (Figure 2); markers must stay per-sub-channel monotone
  // and conservation must hold across the union.
  NetworkOptions opt;
  opt.seed = 33;
  opt.snapshot.channel_state = true;
  opt.cos_classes = 2;
  opt.classifier = [](const net::Packet& p) {
    return static_cast<std::size_t>(p.flow % 2);  // odd flows: class 1
  };
  net::TopologySpec spec = check::make_topo(check::TopoKind::Line, 2);
  Network net(spec, opt);
  // Flow 1 (class 1) and flow 2 (class 0) cross the trunk in opposite
  // directions: markers traverse both sub-channels of each internal
  // channel, and consistency must hold across the interleave.
  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < 2; ++h) {
    auto g = std::make_unique<wl::CbrGenerator>(
        net.simulator(), net.host(h), net.host_id(1 - h),
        static_cast<net::FlowId>(h + 1), 3e9, 1200);
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(3));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 6u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->all_consistent());
    // Trunk conservation, same as the single-class case.
    const auto eg = snap->reports.find({0, 2, net::Direction::Egress});
    const auto in = snap->reports.find({1, 1, net::Direction::Ingress});
    ASSERT_NE(eg, snap->reports.end());
    ASSERT_NE(in, snap->reports.end());
    EXPECT_EQ(eg->second.local_value,
              in->second.local_value + in->second.channel_value);
  }
}

TEST(CosChannels, PriorityClassesDrainFirstEndToEnd) {
  // Verify CoS scheduling itself through a switch under contention: the
  // high-priority class suffers much less queueing delay.
  sw::FabricOptions fabric;
  fabric.cos_classes = 2;
  fabric.classifier = [](const net::Packet& p) {
    return static_cast<std::size_t>(p.flow % 2);  // odd flows: class 1
  };
  sw::SwitchOptions so;
  so.num_ports = 3;
  so.snapshot_enabled = false;

  sim::Simulator sim;
  sim::TimingModel timing;
  sw::Switch swch(sim, 0, "s", timing, fabric, so, sim::Rng(1));
  net::Host fast(sim, 10, "fast");
  net::Host slow(sim, 11, "slow");
  net::Host sink(sim, 12, "sink");
  net::Link up_fast(sim, 25e9, sim::nsec(500), sim::Rng(2));
  net::Link up_slow(sim, 25e9, sim::nsec(500), sim::Rng(3));
  net::Link down(sim, 2e9, sim::nsec(500), sim::Rng(4));  // Bottleneck.
  up_fast.connect(&swch, 0);
  up_slow.connect(&swch, 1);
  down.connect(&sink, 0);
  fast.attach_uplink(&up_fast);
  slow.attach_uplink(&up_slow);
  swch.attach_link(2, &down, /*to_host=*/true);
  swch.set_route(12, {2});
  swch.finalize();

  sim::SimTime last_fast = 0;
  sim::SimTime last_slow = 0;
  sink.set_receive_callback([&](const net::Packet& p, sim::SimTime t) {
    (last_fast = p.flow % 2 == 0 ? t : last_fast,
     last_slow = p.flow % 2 == 1 ? t : last_slow);
  });
  // Both hosts blast 200 packets at the 2G bottleneck simultaneously.
  for (int i = 0; i < 200; ++i) {
    fast.send(12, 2, 1500);  // flow 2 -> class 0 (high)
    slow.send(12, 3, 1500);  // flow 3 -> class 1 (low)
  }
  sim.run_until(sim::sec(1));
  EXPECT_GT(last_fast, 0);
  EXPECT_GT(last_slow, 0);
  // Strict priority: the last high-priority packet leaves well before the
  // last low-priority one.
  EXPECT_LT(last_fast, last_slow - sim::usec(500));
}

}  // namespace
}  // namespace speedlight
