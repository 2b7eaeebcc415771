// The consistency checker's invariants on a simulated campaign and on
// hand-built snapshots: monotonicity applies to counter metrics only.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

std::size_t count_of(const std::vector<check::Violation>& violations,
                     const std::string& invariant) {
  std::size_t n = 0;
  for (const auto& v : violations) n += v.invariant == invariant ? 1 : 0;
  return n;
}

/// A 2x2x3 leaf-spine under all-to-all Poisson traffic (50k pps per host),
/// 10 snapshots 2 ms apart, audited by check_all.
std::vector<check::Violation> all_to_all_campaign(sw::MetricKind metric) {
  core::NetworkOptions opt;
  opt.metric = metric;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    std::vector<net::NodeId> dsts;
    for (std::size_t d = 0; d < net.num_hosts(); ++d) {
      if (d != h) dsts.push_back(net.host_id(d));
    }
    gens.push_back(std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h), dsts, 50000, 1000,
        sim::Rng(1000 + h)));
    gens.back()->start(net.now());
  }
  net.run_for(sim::msec(2));
  const auto campaign = core::run_snapshot_campaign(net, 10, sim::msec(2));
  EXPECT_EQ(campaign.results(net).size(), 10u);
  check::ConsistencyChecker checker(net, {});
  return checker.check_all(campaign);
}

TEST(Checker, MonotonicityAuditsCounterMetricsOnly) {
  // An EWMA of interarrival times legitimately falls between snapshots;
  // only counters must never decrease.
  const auto ewma = all_to_all_campaign(sw::MetricKind::EwmaInterarrival);
  EXPECT_EQ(count_of(ewma, "monotonicity"), 0u);
  const auto packets = all_to_all_campaign(sw::MetricKind::PacketCount);
  EXPECT_TRUE(packets.empty()) << packets.front().detail;
}

TEST(Checker, FallingCounterIsFlagged) {
  const net::UnitId unit{0, 1, net::Direction::Egress};
  snap::GlobalSnapshot prev;
  prev.id = 1;
  snap::GlobalSnapshot cur;
  cur.id = 2;
  snap::UnitReport r;
  r.device = unit.node;
  r.unit = unit;
  r.sid = 1;
  r.local_value = 10;
  prev.reports.emplace(unit, r);
  r.sid = 2;
  r.local_value = 7;  // A packet count cannot fall.
  cur.reports.emplace(unit, r);

  std::vector<check::Violation> out;
  check::ConsistencyChecker::check_monotonicity(prev, cur, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "monotonicity");
  EXPECT_EQ(out[0].snapshot, 2u);
}

}  // namespace
}  // namespace speedlight
