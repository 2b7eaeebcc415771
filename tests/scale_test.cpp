// Scale and feature-interaction integration tests: larger fabrics and all
// optional switch features enabled at once.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "obs/process_stats.hpp"
#include "test_topologies.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

// AddressSanitizer's shadow memory and redzones count toward RSS, so an RSS
// budget read in an ASan build measures the sanitizer, not the simulator:
// the RSS comparisons below are compiled out there. Release builds (and
// CI's scale-smoke job) still enforce them.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssBudgetsApply = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRssBudgetsApply = false;
#else
constexpr bool kRssBudgetsApply = true;
#endif
#else
constexpr bool kRssBudgetsApply = true;
#endif

TEST(Scale, FatTree6ChannelStateSnapshot) {
  // k=6 fat-tree: 45 switches, 54 hosts, 432 processing units.
  NetworkOptions opt;
  opt.seed = 606;
  opt.snapshot.channel_state = true;
  Network net(check::make_topo(check::TopoKind::FatTree, 6), opt);
  ASSERT_EQ(net.num_switches(), 45u);
  ASSERT_EQ(net.num_hosts(), 54u);

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); h += 3) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 27) % 54)}, 30000, 1200,
        sim::Rng(606 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(3));
  const auto* snap = net.take_snapshot(sim::msec(1), sim::msec(400));
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->excluded_devices.empty());
  // 45 switches x 6 ports x 2 directions.
  EXPECT_EQ(snap->reports.size(), 540u);
}

TEST(Scale, FatTree6Conservation) {
  NetworkOptions opt;
  opt.seed = 607;
  opt.snapshot.channel_state = true;
  Network net(check::make_topo(check::TopoKind::FatTree, 6), opt);
  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); h += 2) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 13) % 54),
                                 net.host_id((h + 31) % 54)},
        40000, 1000, sim::Rng(707 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(3));
  const auto* snap = net.take_snapshot(sim::msec(1), sim::msec(400));
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->complete);
  EXPECT_TRUE(snap->all_consistent());
  // Conservation on every one of the 216 trunk directions.
  std::size_t checked = 0;
  for (const auto& t : net.spec().trunks) {
    for (const bool fwd : {true, false}) {
      const auto sa = static_cast<net::NodeId>(fwd ? t.switch_a : t.switch_b);
      const auto sb = static_cast<net::NodeId>(fwd ? t.switch_b : t.switch_a);
      const auto pa = fwd ? t.port_a : t.port_b;
      const auto pb = fwd ? t.port_b : t.port_a;
      const auto e = snap->reports.find({sa, pa, net::Direction::Egress});
      const auto i = snap->reports.find({sb, pb, net::Direction::Ingress});
      ASSERT_NE(e, snap->reports.end());
      ASSERT_NE(i, snap->reports.end());
      EXPECT_EQ(e->second.local_value,
                i->second.local_value + i->second.channel_value);
      ++checked;
    }
  }
  EXPECT_EQ(checked, net.spec().trunks.size() * 2);
  // Synchronization bound holds at this scale too.
  EXPECT_LT(snap->advance_span(), sim::usec(100));
}

/// CoS + channel-state snapshots + flowlet + small wire-id space,
/// simultaneously, over the given notification transport: features must
/// not interfere with the protocol's guarantees.
void run_everything_on_at_once(snap::NotificationMode transport) {
  NetworkOptions opt;
  opt.seed = 99;
  opt.notification_mode = transport;
  opt.snapshot.channel_state = true;
  opt.snapshot.wire_id_modulus = 16;
  opt.load_balancer = sw::LoadBalancerKind::Flowlet;
  opt.cos_classes = 2;
  opt.classifier = [](const net::Packet& p) {
    return static_cast<std::size_t>(p.flow % 2);
  };
  Network net(check::make_topo(check::TopoKind::LeafSpine, 2, 2, 3), opt);

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 1) % 6),
                                 net.host_id((h + 5) % 6)},
        80000, 1100, sim::Rng(99 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(3));
  const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(4));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), 6u);
  for (const auto* snap : results) {
    EXPECT_TRUE(snap->all_consistent());
    for (const auto& t : net.spec().trunks) {
      const auto e = snap->reports.find(
          {static_cast<net::NodeId>(t.switch_a), t.port_a, net::Direction::Egress});
      const auto i = snap->reports.find(
          {static_cast<net::NodeId>(t.switch_b), t.port_b, net::Direction::Ingress});
      ASSERT_NE(e, snap->reports.end());
      ASSERT_NE(i, snap->reports.end());
      EXPECT_EQ(e->second.local_value,
                i->second.local_value + i->second.channel_value);
    }
  }
}

TEST(FeatureInteraction, EverythingOnAtOnce) {
  run_everything_on_at_once(snap::NotificationMode::RawSocket);
}

TEST(FeatureInteraction, EverythingOnAtOnceOverDigestTransport) {
  run_everything_on_at_once(snap::NotificationMode::Digest);
}

TEST(Scale, FatTree16LazyMaterialization) {
  // k=16: 320 switches, 1,024 hosts, 5,120 switch ports. The SoA core must
  // construct it without materializing a single port unit, inside a hard
  // RSS ceiling, and traffic must materialize only the ports it touches.
  const std::int64_t rss_before =
      static_cast<std::int64_t>(obs::current_rss_kb());
  NetworkOptions opt;
  opt.seed = 1616;
  Network net(net::make_fat_tree(16), opt);
  ASSERT_EQ(net.num_switches(), 320u);
  ASSERT_EQ(net.num_hosts(), 1024u);
  EXPECT_EQ(net.materialized_ports(), 0u);
  const std::int64_t rss_built =
      static_cast<std::int64_t>(obs::current_rss_kb());
  if (kRssBudgetsApply && rss_before > 0) {
    // Measured ~5.5 MB of growth for the whole fabric; the ceiling leaves
    // headroom for allocator noise but forbids any per-port eager build
    // (eager dataplane units alone would cost tens of MB).
    EXPECT_LT(rss_built - rss_before, 40 * 1024)
        << "construction RSS growth (KiB) exceeds the k=16 ceiling";
  }

  // One flow between two hosts on the same edge switch: only that switch's
  // two access ports are on the path, and only they may materialize.
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1),
                       /*flow=*/1, /*rate_bps=*/1e9, /*packet_size=*/1000);
  gen.start(net.now());
  net.run_for(sim::usec(200));
  gen.stop();
  const std::size_t touched = net.materialized_ports();
  EXPECT_GT(touched, 0u);
  EXPECT_LE(touched, 4u) << "materialization must be O(ports touched), "
                            "not O(total ports)";
}

TEST(Scale, FatTree32SnapshotRoundUnderMemoryBudget) {
  // The acceptance fabric: fat-tree k=32 — 1,280 switches, 8,192 hosts,
  // 40,960 switch ports. It must construct and complete a full snapshot
  // round inside the documented memory budget (DESIGN.md §14: < 128 MB to
  // construct, < 256 MB through a probe-flood round).
  const std::int64_t rss_before =
      static_cast<std::int64_t>(obs::current_rss_kb());
  NetworkOptions opt;
  opt.seed = 3232;
  Network net(net::make_fat_tree(32), opt);
  ASSERT_EQ(net.num_switches(), 1280u);
  ASSERT_EQ(net.num_hosts(), 8192u);
  EXPECT_EQ(net.materialized_ports(), 0u);
  const std::int64_t rss_built =
      static_cast<std::int64_t>(obs::current_rss_kb());
  if (kRssBudgetsApply && rss_before > 0) {
    EXPECT_LT(rss_built - rss_before, 128 * 1024)
        << "construction RSS growth (KiB) exceeds the k=32 budget";
  }

  const auto* snap = net.take_snapshot(sim::msec(1), sim::msec(400));
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->excluded_devices.empty());
  // 1,280 switches x 32 ports x 2 directions.
  EXPECT_EQ(snap->reports.size(), 81920u);
  // The probe flood touches every switch port — and is allowed to.
  EXPECT_EQ(net.materialized_ports(), 40960u);
  const std::int64_t rss_after =
      static_cast<std::int64_t>(obs::current_rss_kb());
  if (kRssBudgetsApply && rss_before > 0) {
    EXPECT_LT(rss_after - rss_before, 256 * 1024)
        << "RSS growth (KiB) through a snapshot round exceeds the budget";
  }
}

}  // namespace
}  // namespace speedlight
