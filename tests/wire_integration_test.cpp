// End-to-end coverage of the control-plane wire path (DESIGN.md section
// 16): with byte-charging disabled the v2 codecs must be fully transparent
// — both encodings produce identical snapshot results — and with charging
// enabled the values (as opposed to the timings) are still exact. Also
// covers streaming digests vs retained reports, sync-group scoping (and
// its refusal while a round is outstanding), and observer restart across
// the wire session.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/wire.hpp"
#include "workload/basic.hpp"

namespace {

using namespace speedlight;
using core::Network;
using core::NetworkOptions;

NetworkOptions base_options() {
  NetworkOptions opt;
  opt.snapshot.channel_state = true;
  opt.metric = sw::MetricKind::PacketCount;
  return opt;
}

std::vector<std::unique_ptr<wl::Generator>> start_all_to_all(
    Network& net, std::uint64_t rate_pps = 50000) {
  std::vector<std::unique_ptr<wl::Generator>> gens;
  const std::size_t hosts = net.num_hosts();
  for (std::size_t h = 0; h < hosts; ++h) {
    std::vector<net::NodeId> dsts;
    for (std::size_t d = 0; d < hosts; ++d) {
      if (d != h) dsts.push_back(net.host_id(d));
    }
    gens.push_back(std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h), dsts, rate_pps, 1000,
        sim::Rng(1000 + h)));
    gens.back()->start(net.now());
  }
  return gens;
}

/// Everything we compare between runs, copied out of a GlobalSnapshot
/// (the snapshots die with their Network).
struct SnapSummary {
  bool complete = false;
  sim::SimTime completed_at = 0;
  std::size_t consistent = 0;
  std::uint64_t local_total = 0;
  std::uint64_t full_total = 0;
  sim::Duration advance_span = 0;
  sim::Duration finalize_span = 0;
  std::size_t excluded = 0;
  /// Per-unit (local, channel) values, ordered (only consistent units).
  std::map<net::UnitId, std::pair<std::uint64_t, std::uint64_t>> values;

  friend bool operator==(const SnapSummary&, const SnapSummary&) = default;
};

SnapSummary summarize(const snap::GlobalSnapshot& s) {
  SnapSummary out;
  out.complete = s.complete;
  out.completed_at = s.completed_at;
  out.consistent = s.consistent_count();
  out.local_total = s.total_value(false);
  out.full_total = s.total_value(true);
  out.advance_span = s.advance_span();
  out.finalize_span = s.finalize_span();
  out.excluded = s.excluded_devices.size();
  for (const auto& [unit, r] : s.reports) {
    if (r.consistent) out.values[unit] = {r.local_value, r.channel_value};
  }
  return out;
}

/// Build a 2x2x3 leaf-spine, drive identical all-to-all traffic, run a
/// campaign of `rounds` snapshots, and summarize each result.
std::vector<SnapSummary> run_campaign(const NetworkOptions& opt,
                                      std::size_t rounds) {
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, rounds, sim::msec(3));
  const auto results = campaign.results(net);
  std::vector<SnapSummary> out;
  for (const auto* s : results) out.push_back(summarize(*s));
  return out;
}

TEST(WireIntegration, UnchargedFastPathMatchesLegacyExactly) {
  // With byte-charging off, every frame costs the fixed service time, so
  // the event timeline — and therefore every snapshot result, including
  // the completion instants — must be bit-identical under both encodings.
  // This is the codec-transparency oracle; the digest pins carry the
  // equivalence with the retired v1 struct-shipping model.
  NetworkOptions delta = base_options();
  delta.wire.encoding = snap::WireEncoding::DeltaV2;
  delta.wire.compact_timestamps = true;
  delta.wire.charge_bytes = false;

  NetworkOptions full = base_options();
  full.wire.encoding = snap::WireEncoding::FullV2;
  full.wire.compact_timestamps = false;
  full.wire.charge_bytes = false;

  const auto ref = run_campaign(full, 6);
  const auto got = run_campaign(delta, 6);
  ASSERT_EQ(ref.size(), 6u);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(ref[i].complete) << i;
    EXPECT_GT(ref[i].completed_at, 0u) << i;
    EXPECT_FALSE(ref[i].values.empty()) << i;
    EXPECT_EQ(got[i], ref[i]) << "round " << i;
  }
}

TEST(WireIntegration, DeltaEncodingShrinksBytesWithoutErrors) {
  // No channel state: the fig10 configuration the >=5x notification-byte
  // claim is made for (typical delta frame 5B vs the 29B full frame; with
  // channel state the extra last-seen fields land around 4x).
  NetworkOptions delta;  // DeltaV2 + compact ts by default.
  delta.wire.charge_bytes = false;

  NetworkOptions full = delta;
  full.wire.encoding = snap::WireEncoding::FullV2;
  full.wire.compact_timestamps = false;

  snap::WireStats ds, fs;
  {
    Network net(net::make_leaf_spine(2, 2, 3), delta);
    auto gens = start_all_to_all(net);
    net.run_for(sim::msec(2));
    const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(3));
    ASSERT_EQ(campaign.results(net).size(), 6u);
    ds = net.wire_stats_total();
  }
  {
    Network net(net::make_leaf_spine(2, 2, 3), full);
    auto gens = start_all_to_all(net);
    net.run_for(sim::msec(2));
    const auto campaign = core::run_snapshot_campaign(net, 6, sim::msec(3));
    ASSERT_EQ(campaign.results(net).size(), 6u);
    fs = net.wire_stats_total();
  }
  // Same timeline (uncharged) => same frame counts; only the bytes differ.
  EXPECT_EQ(ds.notifications_encoded, fs.notifications_encoded);
  EXPECT_EQ(ds.reports_encoded, fs.reports_encoded);
  EXPECT_GT(ds.notifications_encoded, 0u);
  EXPECT_GT(ds.reports_encoded, 0u);
  // The paper-facing claim: delta + compact timestamps cut notification
  // bytes >= 5x against the 29-byte full frames.
  EXPECT_GE(fs.notification_bytes, 5 * ds.notification_bytes);
  EXPECT_LT(ds.report_bytes, fs.report_bytes);
  EXPECT_GT(ds.delta_bytes, 0u);
  EXPECT_GT(ds.keyframe_bytes, 0u);
  // Nothing fell back or failed on a healthy fabric.
  EXPECT_EQ(ds.decode_failures, 0u);
  EXPECT_EQ(ds.stale_session_drops, 0u);
  EXPECT_EQ(fs.decode_failures, 0u);
}

TEST(WireIntegration, ChargedDeltaConservesAndRegistersMetrics) {
  NetworkOptions opt = base_options();  // DeltaV2, compact ts, charged.
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));
  const snap::GlobalSnapshot* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->all_consistent());
  // Channel conservation is a value property: byte-dependent service times
  // move the timeline but can never corrupt the counts.
  for (std::size_t t = 0; t < net.spec().trunks.size(); ++t) {
    const auto& trunk = net.spec().trunks[t];
    const auto eg = snap->reports.find({static_cast<net::NodeId>(trunk.switch_a),
                                        trunk.port_a, net::Direction::Egress});
    const auto in = snap->reports.find({static_cast<net::NodeId>(trunk.switch_b),
                                        trunk.port_b, net::Direction::Ingress});
    ASSERT_NE(eg, snap->reports.end());
    ASSERT_NE(in, snap->reports.end());
    EXPECT_EQ(eg->second.local_value,
              in->second.local_value + in->second.channel_value)
        << "trunk " << t;
  }
  // The wire.* accounting series is registered and live.
  EXPECT_TRUE(net.metrics().contains("wire.notification_bytes"));
  EXPECT_TRUE(net.metrics().contains("wire.report_bytes"));
  const auto stats = net.wire_stats_total();
  EXPECT_GT(stats.notification_bytes, 0u);
  EXPECT_GT(stats.report_bytes, 0u);
  EXPECT_EQ(stats.decode_failures, 0u);
}

TEST(WireIntegration, DigestsMatchRetainedReports) {
  NetworkOptions retained = base_options();
  retained.wire.charge_bytes = false;

  NetworkOptions streaming = retained;
  streaming.observer.retain_unit_reports = false;
  streaming.observer.assembly_shards = 4;

  const auto ref = run_campaign(retained, 4);

  Network net(net::make_leaf_spine(2, 2, 3), streaming);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 4, sim::msec(3));
  const auto results = campaign.results(net);
  ASSERT_EQ(results.size(), ref.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& s = *results[i];
    // Digest-only assembly: no retained reports, aggregate getters agree
    // with the retained twin.
    EXPECT_TRUE(s.reports.empty()) << i;
    EXPECT_EQ(s.digests.size(), 4u);
    EXPECT_TRUE(s.complete) << i;
    EXPECT_EQ(s.completed_at, ref[i].completed_at) << i;
    EXPECT_EQ(s.consistent_count(), ref[i].consistent) << i;
    EXPECT_EQ(s.total_value(false), ref[i].local_total) << i;
    EXPECT_EQ(s.total_value(true), ref[i].full_total) << i;
    EXPECT_EQ(s.advance_span(), ref[i].advance_span) << i;
    EXPECT_EQ(s.finalize_span(), ref[i].finalize_span) << i;
    EXPECT_GT(s.latest_advance(), 0u) << i;
    // Per-device digests cover every registered switch.
    std::size_t digested = 0;
    for (const auto& shard : s.digests) digested += shard.size();
    EXPECT_EQ(digested, net.num_switches());
  }
}

TEST(WireIntegration, SyncGroupScopeFiltersReportsAtTheSource) {
  NetworkOptions opt = base_options();
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));

  // Full-scope round first: 28 units on a 2x2x3 leaf-spine.
  const snap::GlobalSnapshot* all = net.take_snapshot();
  ASSERT_NE(all, nullptr);
  ASSERT_TRUE(all->complete);
  EXPECT_EQ(all->expected_total, 28u);

  // Narrow the sync group to ingress units only and let the scope RPCs land.
  net.observer().set_scope([](const net::UnitId& u) {
    return u.direction == net::Direction::Ingress;
  });
  net.run_for(sim::msec(1));
  const snap::GlobalSnapshot* ingress = net.take_snapshot();
  ASSERT_NE(ingress, nullptr);
  EXPECT_TRUE(ingress->complete);
  EXPECT_TRUE(ingress->excluded_devices.empty());
  EXPECT_EQ(ingress->expected_total, 14u);
  EXPECT_EQ(ingress->reports.size(), 14u);
  for (const auto& [unit, r] : ingress->reports) {
    EXPECT_EQ(unit.direction, net::Direction::Ingress);
  }
  // Out-of-scope reports were dropped at the control planes, not shipped
  // and discarded at the observer. Completion only waited on the 14
  // ingress units, so drain the still-finalizing egress units first.
  net.run_for(sim::msec(2));
  std::uint64_t filtered = 0;
  for (std::size_t i = 0; i < net.num_switches(); ++i) {
    filtered += net.switch_at(i).control_plane().reports_filtered();
  }
  EXPECT_EQ(filtered, 14u);

  // Clearing the scope restores full membership.
  net.observer().set_scope(nullptr);
  net.run_for(sim::msec(1));
  const snap::GlobalSnapshot* again = net.take_snapshot();
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->complete);
  EXPECT_EQ(again->expected_total, 28u);
}

TEST(WireIntegration, SetScopeFailsClosedWhileARoundIsOutstanding) {
  NetworkOptions opt = base_options();
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));

  // The round is pinned to full membership. Narrowing the scope now would
  // leave its egress units unreported until the completion timeout, so
  // the call is refused and changes nothing.
  const auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
  ASSERT_TRUE(id.has_value());
  const auto ingress_only = [](const net::UnitId& u) {
    return u.direction == net::Direction::Ingress;
  };
  EXPECT_THROW(net.observer().set_scope(ingress_only), std::logic_error);
  net.run_for(sim::msec(20));
  const snap::GlobalSnapshot* round = net.observer().result(*id);
  ASSERT_NE(round, nullptr);
  EXPECT_TRUE(round->complete);
  EXPECT_TRUE(round->excluded_devices.empty());
  EXPECT_EQ(round->expected_total, 28u);
  EXPECT_EQ(round->received_total, 28u);

  // With nothing outstanding the same call is accepted.
  net.observer().set_scope(ingress_only);
  net.run_for(sim::msec(1));
  const snap::GlobalSnapshot* ingress = net.take_snapshot();
  ASSERT_NE(ingress, nullptr);
  EXPECT_TRUE(ingress->complete);
  EXPECT_EQ(ingress->expected_total, 14u);
}

TEST(WireIntegration, ObserverRestartBumpsSessionAndRecovers) {
  NetworkOptions opt = base_options();
  opt.observer.completion_timeout = sim::msec(5);
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  auto gens = start_all_to_all(net);
  net.run_for(sim::msec(2));

  const snap::GlobalSnapshot* before = net.take_snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->complete);
  EXPECT_EQ(net.observer().wire_session(), 0u);

  // Crash the observer across a scheduled round: its reports are lost, the
  // round times out with exclusions, and the restart bumps the session.
  const auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
  ASSERT_TRUE(id.has_value());
  net.simulator().at(net.now() + sim::usec(900),
                     [&net]() { net.observer().set_down(true); });
  net.simulator().at(net.now() + sim::usec(2500),
                     [&net]() { net.observer().set_down(false); });
  net.run_for(sim::msec(10));
  const snap::GlobalSnapshot* lost = net.observer().result(*id);
  ASSERT_NE(lost, nullptr);
  EXPECT_TRUE(lost->complete);
  EXPECT_FALSE(lost->excluded_devices.empty());
  EXPECT_GT(net.observer().reports_dropped_while_down(), 0u);
  EXPECT_EQ(net.observer().wire_session(), 1u);

  // The re-keyframed links carry the next round cleanly.
  const snap::GlobalSnapshot* after = net.take_snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->complete);
  EXPECT_TRUE(after->excluded_devices.empty());
  EXPECT_TRUE(after->all_consistent());
  EXPECT_EQ(net.wire_stats_total().decode_failures, 0u);
}

}  // namespace
