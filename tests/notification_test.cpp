// The data plane -> CPU notification channel: latency, serialization,
// overflow, and loss.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/digest_channel.hpp"
#include "snapshot/notification_channel.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {
namespace {

Notification make_notification(WireSid sid) {
  Notification n;
  n.unit = net::UnitId{0, 0, net::Direction::Ingress};
  n.new_sid = sid;
  return n;
}

/// Frames of the production encoding at fixed-cost service: every frame
/// costs the full service time, so the asserted instants are exact.
WireOptions uncharged() {
  WireOptions w;
  w.charge_bytes = false;
  return w;
}

struct Fixture {
  explicit Fixture(sim::TimingModel tm = {})
      : timing(tm),
        channel(sim, timing, sim::Rng(1),
                [this](const Notification& n) {
                  delivered.push_back({n.new_sid, sim.now()});
                },
                /*device=*/0, uncharged(), &wire) {}

  sim::Simulator sim;
  sim::TimingModel timing;
  std::vector<std::pair<WireSid, sim::SimTime>> delivered;
  WireStats wire;
  NotificationChannel channel;
};

TEST(NotificationChannel, DeliversAfterPcieAndService) {
  Fixture f;
  f.channel.push(make_notification(1));
  f.sim.run_until(sim::sec(1));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, f.timing.notification_pcie_latency +
                                       f.timing.notification_service_time);
}

TEST(NotificationChannel, ServiceIsSerialized) {
  Fixture f;
  for (WireSid i = 0; i < 5; ++i) f.channel.push(make_notification(i));
  f.sim.run_until(sim::sec(1));
  ASSERT_EQ(f.delivered.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.delivered[i].first, i);  // FIFO.
    const sim::SimTime expected =
        f.timing.notification_pcie_latency +
        static_cast<sim::SimTime>(i + 1) * f.timing.notification_service_time;
    EXPECT_EQ(f.delivered[i].second, expected);
  }
  EXPECT_EQ(f.channel.max_backlog(), 5u);
  EXPECT_EQ(f.channel.backlog(), 0u);
  // Every notification crossed as a frame and decoded.
  EXPECT_EQ(f.wire.notifications_encoded, 5u);
  EXPECT_GT(f.wire.notification_bytes, 0u);
  EXPECT_EQ(f.wire.decode_failures, 0u);
}

TEST(NotificationChannel, OverflowDrops) {
  sim::TimingModel tm;
  tm.notification_buffer_capacity = 3;
  Fixture f(tm);
  for (WireSid i = 0; i < 10; ++i) f.channel.push(make_notification(i));
  f.sim.run_until(sim::sec(1));
  // One may begin service before later arrivals; at least the clear
  // overflow amount is dropped.
  EXPECT_GE(f.channel.dropped_overflow(), 6u);
  EXPECT_EQ(f.delivered.size() + f.channel.dropped_overflow(), 10u);
}

TEST(NotificationChannel, RandomLoss) {
  sim::TimingModel tm;
  tm.notification_drop_probability = 0.5;
  Fixture f(tm);
  for (WireSid i = 0; i < 1000; ++i) f.channel.push(make_notification(i));
  f.sim.run_until(sim::sec(10));
  EXPECT_NEAR(static_cast<double>(f.channel.dropped_random()), 500.0, 60.0);
  EXPECT_EQ(f.delivered.size() + f.channel.dropped_random(), 1000u);
}

TEST(NotificationChannel, SustainedOverloadBacklogGrows) {
  // Arrivals every 10us vs 110us service: the backlog must build.
  Fixture f;
  for (int i = 0; i < 200; ++i) {
    f.sim.at(i * sim::usec(10), [&f, i]() {
      f.channel.push(make_notification(static_cast<WireSid>(i)));
    });
  }
  f.sim.run_until(sim::msec(2));  // Mid-burst.
  EXPECT_GT(f.channel.backlog(), 50u);
}

// --- Digest-stream alternative ------------------------------------------------

struct DigestFixture {
  explicit DigestFixture(sim::TimingModel tm = {})
      : timing(tm),
        channel(sim, timing, sim::Rng(1),
                [this](const Notification& n) {
                  delivered.push_back({n.new_sid, sim.now()});
                },
                /*device=*/0, uncharged(), &wire) {}

  sim::Simulator sim;
  sim::TimingModel timing;
  std::vector<std::pair<WireSid, sim::SimTime>> delivered;
  WireStats wire;
  DigestChannel channel;
};

TEST(DigestChannel, FlushesOnTimeoutForPartialBatch) {
  DigestFixture f;
  f.channel.push(make_notification(1));
  f.sim.run_until(sim::sec(1));
  ASSERT_EQ(f.delivered.size(), 1u);
  // Timeout + PCIe + one-digest service with one entry.
  const sim::SimTime expected =
      f.timing.digest_flush_timeout + f.timing.notification_pcie_latency +
      f.timing.digest_batch_overhead + f.timing.digest_per_entry_cost;
  EXPECT_EQ(f.delivered[0].second, expected);
  EXPECT_EQ(f.channel.digests_flushed(), 1u);
}

TEST(DigestChannel, FlushesImmediatelyWhenFull) {
  DigestFixture f;
  for (std::size_t i = 0; i < f.timing.digest_batch_size; ++i) {
    f.channel.push(make_notification(static_cast<WireSid>(i)));
  }
  f.sim.run_until(sim::sec(1));
  EXPECT_EQ(f.delivered.size(), f.timing.digest_batch_size);
  EXPECT_EQ(f.channel.digests_flushed(), 1u);
  // Delivered well before the flush timeout would have fired plus service.
  EXPECT_LT(f.delivered[0].second,
            f.timing.digest_flush_timeout + sim::msec(10));
}

TEST(DigestChannel, PreservesOrderAcrossDigests) {
  DigestFixture f;
  for (WireSid i = 0; i < 100; ++i) f.channel.push(make_notification(i));
  f.sim.run_until(sim::sec(10));
  ASSERT_EQ(f.delivered.size(), 100u);
  for (WireSid i = 0; i < 100; ++i) EXPECT_EQ(f.delivered[i].first, i);
}

TEST(DigestChannel, OverflowDropsWholeDigests) {
  sim::TimingModel tm;
  tm.digest_queue_capacity = 1;
  tm.digest_batch_size = 4;
  DigestFixture f(tm);
  for (WireSid i = 0; i < 64; ++i) f.channel.push(make_notification(i));
  f.sim.run_until(sim::sec(10));
  EXPECT_GT(f.channel.dropped_overflow(), 0u);
  EXPECT_EQ(f.delivered.size() + f.channel.dropped_overflow(), 64u);
}

TEST(DigestChannel, HigherLatencyThanRawSocket) {
  // The reason the paper picked raw sockets: a single notification takes
  // much longer through the digest path.
  DigestFixture digest;
  Fixture raw;
  digest.channel.push(make_notification(1));
  raw.channel.push(make_notification(1));
  digest.sim.run_until(sim::sec(1));
  raw.sim.run_until(sim::sec(1));
  ASSERT_EQ(digest.delivered.size(), 1u);
  ASSERT_EQ(raw.delivered.size(), 1u);
  EXPECT_GT(digest.delivered[0].second, raw.delivered[0].second * 3);
}

}  // namespace
}  // namespace speedlight::snap
