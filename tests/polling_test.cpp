// The counter-polling baseline: sweep mechanics and its intrinsic
// asynchronicity (the property Figures 9/12/13 compare against).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(Polling, SweepVisitsAllUnitsInOrder) {
  Network net(net::make_star(2), NetworkOptions{});
  net.register_all_units_for_polling();
  EXPECT_EQ(net.poller().num_units(), 4u);
  std::vector<poll::PollSweep> sweeps;
  net.poller().sweep_at(net.now() + sim::msec(1),
                        [&](poll::PollSweep s) { sweeps.push_back(std::move(s)); });
  net.run_for(sim::msec(20));
  ASSERT_EQ(sweeps.size(), 1u);
  ASSERT_EQ(sweeps[0].samples.size(), 4u);
  // Strictly increasing read times (sequential polls).
  for (std::size_t i = 1; i < sweeps[0].samples.size(); ++i) {
    EXPECT_GT(sweeps[0].samples[i].time, sweeps[0].samples[i - 1].time);
  }
}

TEST(Polling, SweepSpanScalesWithUnitCount) {
  Network small(net::make_star(2), NetworkOptions{});
  small.register_all_units_for_polling();
  Network large(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  large.register_all_units_for_polling();

  auto span_of = [](Network& net) {
    const auto sweeps = core::run_polling_campaign(net, 1, sim::msec(1));
    return sweeps.empty() ? sim::Duration{0} : sweeps[0].span();
  };
  const auto s_small = span_of(small);
  const auto s_large = span_of(large);
  EXPECT_GT(s_large, s_small * 3);
}

TEST(Polling, TestbedScaleSweepSpansMilliseconds) {
  // The paper: a full sequence of network-wide polls has a median
  // first-to-last spread of ~2.6ms on the 4-switch testbed.
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  net.register_all_units_for_polling();
  const auto sweeps = core::run_polling_campaign(net, 20, sim::msec(10));
  ASSERT_EQ(sweeps.size(), 20u);
  std::vector<double> spans;
  for (const auto& s : sweeps) spans.push_back(static_cast<double>(s.span()));
  std::sort(spans.begin(), spans.end());
  const double median_ms = spans[spans.size() / 2] / sim::kMillisecond;
  EXPECT_GT(median_ms, 1.5);
  EXPECT_LT(median_ms, 4.5);
}

TEST(Polling, ValuesReflectLiveCounters) {
  Network net(net::make_star(2), NetworkOptions{});
  net.register_all_units_for_polling();
  for (int i = 0; i < 9; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  const auto sweeps = core::run_polling_campaign(net, 1, sim::msec(1));
  ASSERT_EQ(sweeps.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& s : sweeps[0].samples) total += s.value;
  EXPECT_EQ(total, 18u);  // 9 at ingress 0, 9 at egress 1.
}

TEST(Polling, ExtractValuesFindsUnits) {
  Network net(net::make_star(2), NetworkOptions{});
  net.register_all_units_for_polling();
  const auto sweeps = core::run_polling_campaign(net, 1, sim::msec(1));
  ASSERT_EQ(sweeps.size(), 1u);
  std::vector<double> out;
  EXPECT_TRUE(core::extract_values(
      sweeps[0], {{0, 0, net::Direction::Ingress}}, out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(core::extract_values(
      sweeps[0], {{9, 0, net::Direction::Ingress}}, out));
}

}  // namespace
}  // namespace speedlight
