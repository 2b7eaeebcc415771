// Snapshot observer: assembly, spans, totals, timeouts, and rollover
// enforcement, on small real networks.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(Observer, AssemblesAllUnits) {
  Network net(net::make_star(3), NetworkOptions{});
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_EQ(snap->reports.size(), 6u);  // 3 ports x 2 directions.
  EXPECT_EQ(snap->id, 1u);
}

TEST(Observer, SequentialIdsAssigned) {
  Network net(net::make_star(2), NetworkOptions{});
  const auto a = net.observer().request_snapshot(net.now() + sim::msec(1));
  const auto b = net.observer().request_snapshot(net.now() + sim::msec(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a + 1, *b);
}

TEST(Observer, CompletionCallbackFires) {
  Network net(net::make_star(2), NetworkOptions{});
  std::vector<snap::VirtualSid> completed;
  net.observer().set_completion_callback(
      [&](const snap::GlobalSnapshot& s) { completed.push_back(s.id); });
  net.take_snapshot();
  net.take_snapshot();
  EXPECT_EQ(completed, (std::vector<snap::VirtualSid>{1, 2}));
  EXPECT_EQ(net.observer().completed_count(), 2u);
  EXPECT_EQ(net.observer().requested_count(), 2u);
}

TEST(Observer, TotalValueSumsConsistentReports) {
  Network net(net::make_star(2), NetworkOptions{});
  // 5 packets host0 -> host1: counted at ingress 0 and egress 1 only.
  for (int i = 0; i < 5; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->total_value(false), 10u);  // 5 at ingress + 5 at egress.
}

TEST(Observer, AdvanceSpanPositiveAndBounded) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->advance_span(), 0);
  EXPECT_LT(snap->advance_span(), sim::usec(100));
  EXPECT_GE(snap->finalize_span(), 0);
}

TEST(Observer, ResultForUnknownIdIsNull) {
  Network net(net::make_star(2), NetworkOptions{});
  EXPECT_EQ(net.observer().result(999), nullptr);
}

TEST(Observer, RolloverWindowRecoversAfterCompletion) {
  NetworkOptions opt;
  opt.snapshot.wire_id_modulus = 8;  // No-CS window = 3.
  Network net(net::make_star(2), opt);
  // Fill the window, let them complete, then more must be accepted.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.take_snapshot() != nullptr);
  }
  const auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
  EXPECT_TRUE(id.has_value());
  EXPECT_EQ(*id, 4u);
}

TEST(Observer, RolloverWindowFollowsOutOfOrderCompletion) {
  NetworkOptions opt;
  opt.snapshot.wire_id_modulus = 8;  // No-CS window = 3.
  Network net(net::make_star(2), opt);
  snap::Observer& observer = net.observer();

  // Round 1's reports reach a dead observer, so it waits for its completion
  // timeout while rounds 2 and 3 complete after the restart.
  const sim::SimTime first_fire = net.now() + sim::msec(1);
  ASSERT_EQ(observer.request_snapshot(first_fire).value_or(0), 1u);
  observer.set_down(true);
  net.run_until(first_fire + sim::msec(1));
  observer.set_down(false);
  const sim::SimTime fire = net.now() + sim::msec(1);
  ASSERT_EQ(observer.request_snapshot(fire).value_or(0), 2u);
  ASSERT_EQ(observer.request_snapshot(fire + sim::msec(1)).value_or(0), 3u);
  net.run_until(fire + sim::msec(3));
  ASSERT_FALSE(observer.result(1)->complete);
  ASSERT_TRUE(observer.result(2)->complete);
  ASSERT_TRUE(observer.result(3)->complete);

  // Round 1 still bounds the window: id 4 would be 3 ids past it.
  const sim::SimTime next = net.now() + sim::msec(1);
  EXPECT_FALSE(observer.request_snapshot(next).has_value());

  // Its timeout closes it, and the window moves past rounds 2 and 3 too.
  net.run_until(first_fire + opt.observer.completion_timeout + sim::usec(1));
  ASSERT_TRUE(observer.result(1)->complete);
  EXPECT_EQ(observer.result(1)->excluded_devices.size(), 1u);
  const sim::SimTime later = net.now() + sim::msec(1);
  EXPECT_EQ(observer.request_snapshot(later).value_or(0), 4u);
  EXPECT_EQ(observer.request_snapshot(later).value_or(0), 5u);
  EXPECT_EQ(observer.request_snapshot(later).value_or(0), 6u);
  EXPECT_FALSE(observer.request_snapshot(later).has_value());
}

TEST(Observer, ChannelStateSnapshotHasChannelValues) {
  NetworkOptions opt;
  opt.snapshot.channel_state = true;
  Network net(net::make_line(2), opt);
  // Keep a steady stream so in-flight packets exist at snapshot time.
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1), 1,
                       8e9, 1500);
  gen.start(net.now());
  net.run_for(sim::msec(2));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  // At 8Gbps over a 100G trunk the wire is often occupied; channel state is
  // at least well-defined (>= 0) and the totals line up.
  EXPECT_GE(snap->total_value(true), snap->total_value(false));
  gen.stop();
}

}  // namespace
}  // namespace speedlight
