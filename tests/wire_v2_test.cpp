// Wire format v2 (DESIGN.md section 16): varint/zigzag primitives,
// truncated-timestamp epoch recovery, and the notification/report codecs.
// The codecs must be exactly lossless — the fuzzer's twin-run oracle
// compares delta-encoded runs byte-for-byte against full-encoding runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/snapshot_wire.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {
namespace {

/// Deterministic 64-bit generator (splitmix64) for property sweeps.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// --- Primitives --------------------------------------------------------------

TEST(WirePrimitives, VarintRoundTrip) {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       0xFFFFFFFFull, ~0ull};
  Mix mix(7);
  for (int i = 0; i < 200; ++i) {
    values.push_back(mix.next() >> (mix.next() % 64));
  }
  for (const std::uint64_t v : values) {
    std::uint8_t buf[10];
    const std::size_t n = net::put_varint(v, buf);
    EXPECT_EQ(n, net::varint_len(v));
    std::uint64_t back = 0;
    EXPECT_EQ(net::get_varint({buf, n}, &back), n);
    EXPECT_EQ(back, v);
    // Truncated buffers must be rejected, not misread.
    if (n > 1) {
      EXPECT_EQ(net::get_varint({buf, n - 1}, &back), 0u);
    }
  }
}

TEST(WirePrimitives, ZigzagRoundTrip) {
  Mix mix(11);
  std::vector<std::int64_t> values = {0, 1, -1, 2, -2, INT64_MAX, INT64_MIN};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<std::int64_t>(mix.next()));
  }
  for (const std::int64_t v : values) {
    EXPECT_EQ(net::zigzag_decode(net::zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (what makes deltas cheap).
  EXPECT_LE(net::zigzag_encode(-3), 6u);
  EXPECT_LE(net::varint_len(net::zigzag_encode(-3)), 1u);
}

TEST(WirePrimitives, TruncatedTimestampRecoveryAcrossWraparound) {
  // recover_truncated is exact whenever |true - ref| < 2^(bits-1),
  // including when the truncated window straddles an epoch boundary.
  for (const unsigned bits : {16u, 24u}) {
    const std::int64_t half = std::int64_t{1} << (bits - 1);
    const std::uint64_t mod = std::uint64_t{1} << bits;
    Mix mix(bits);
    for (int i = 0; i < 2000; ++i) {
      // Reference times clustered around epoch rollovers and random.
      std::int64_t ref;
      switch (i % 3) {
        case 0:
          ref = static_cast<std::int64_t>((i / 3 + 1) * mod) +
                static_cast<std::int64_t>(mix.next() % 64) - 32;
          break;
        case 1:
          ref = static_cast<std::int64_t>(mix.next() % (mod * 1024));
          break;
        default:
          ref = static_cast<std::int64_t>(16777216) +  // 2^24 ns
                static_cast<std::int64_t>(mix.next() % 4096) - 2048;
          break;
      }
      if (ref < half) ref = half;
      const std::int64_t offset =
          static_cast<std::int64_t>(mix.next() % (2 * half - 1)) - (half - 1);
      const std::int64_t truth = ref + offset;
      const std::uint64_t low = static_cast<std::uint64_t>(truth) & (mod - 1);
      EXPECT_EQ(net::recover_truncated(ref, low, bits), truth)
          << "bits=" << bits << " ref=" << ref << " offset=" << offset;
    }
  }
}

TEST(WirePrimitives, RecoveryFailsBeyondHalfWindow) {
  // One past the half window aliases to the other side — the encoders'
  // ts_fits() guard exists precisely because of this.
  const std::int64_t half = std::int64_t{1} << 23;
  const std::int64_t ref = 100 * half;
  const std::int64_t truth = ref + half;  // exactly half: ambiguous
  const std::uint64_t low = static_cast<std::uint64_t>(truth) & ((1u << 24) - 1);
  EXPECT_NE(net::recover_truncated(ref, low, 24), truth);
}

// --- Service cost model ------------------------------------------------------

TEST(WireServiceCost, FullFrameCostsExactlyTheReference) {
  // Calibration invariant: a 29-byte FullV2 notification costs exactly the
  // v1 notification_service_time, so the full encoding reproduces v1 rates.
  EXPECT_EQ(wire_service_cost(110000, kFullNotificationBytes), 110000);
  EXPECT_EQ(wire_service_cost(42000, kFullNotificationBytes), 42000);
  // Smaller frames cost proportionally less, floored by the fixed fraction.
  const sim::Duration five = wire_service_cost(110000, 5);
  EXPECT_LT(five, 110000 / 4);
  EXPECT_GT(five, static_cast<sim::Duration>(110000 * kFixedServiceFraction) - 1);
  EXPECT_GE(wire_service_cost(1, 0), 1);  // Never free.
}

// --- Notification codec ------------------------------------------------------

Notification make_notification(Mix& mix, bool channel_state) {
  Notification n;
  n.unit.node = 3;
  n.unit.port = static_cast<net::PortId>(mix.next() % 64);
  n.unit.direction =
      (mix.next() & 1) != 0 ? net::Direction::Egress : net::Direction::Ingress;
  n.new_sid = static_cast<WireSid>(mix.next());
  n.old_sid = n.new_sid - static_cast<WireSid>(mix.next() % 5);
  if (channel_state) {
    n.channel = static_cast<std::uint16_t>(mix.next() % 64);
    n.new_last_seen = static_cast<WireSid>(mix.next());
    n.old_last_seen = n.new_last_seen - static_cast<WireSid>(mix.next() % 5);
  }
  n.timestamp = static_cast<sim::SimTime>(mix.next() % (1ull << 40));
  return n;
}

TEST(NotificationCodec, RoundTripBothEncodings) {
  for (const auto encoding : {WireEncoding::FullV2, WireEncoding::DeltaV2}) {
    for (const bool compact : {false, true}) {
      WireOptions opts;
      opts.encoding = encoding;
      opts.compact_timestamps = compact;
      const sim::Duration pcie = sim::usec(2);
      NotificationCodec codec(opts, pcie);
      Mix mix(99);
      for (int i = 0; i < 500; ++i) {
        const Notification n = make_notification(mix, (i & 1) != 0);
        std::uint8_t buf[kMaxNotificationFrameBytes];
        const std::size_t len = codec.encode(n, buf);
        ASSERT_LE(len, kMaxNotificationFrameBytes);
        if (encoding == WireEncoding::FullV2) {
          EXPECT_EQ(len, kFullNotificationBytes);
        }
        // Arrival = emission + PCIe transit, the recovery reference.
        const auto back = codec.decode({buf, len}, n.unit.node,
                                       n.timestamp + pcie);
        ASSERT_TRUE(back.has_value()) << "i=" << i;
        EXPECT_EQ(back->unit, n.unit);
        EXPECT_EQ(back->old_sid, n.old_sid);
        EXPECT_EQ(back->new_sid, n.new_sid);
        EXPECT_EQ(back->channel, n.channel);
        EXPECT_EQ(back->old_last_seen, n.old_last_seen);
        EXPECT_EQ(back->new_last_seen, n.new_last_seen);
        EXPECT_EQ(back->timestamp, n.timestamp) << "i=" << i;
      }
    }
  }
}

TEST(NotificationCodec, DeltaFramesAreSmall) {
  WireOptions opts;  // DeltaV2 + compact timestamps
  NotificationCodec codec(opts, sim::usec(2));
  Notification n;
  n.unit.port = 5;
  n.old_sid = 41;
  n.new_sid = 42;  // +1: fits the 2-bit advance code
  n.timestamp = sim::msec(3);
  std::uint8_t buf[kMaxNotificationFrameBytes];
  const std::size_t len = codec.encode(n, buf);
  // flags + port(1) + new_sid(1) + ts(2) = 5 bytes; >5x under the 29-byte
  // full frame (the Figure 10 rate win).
  EXPECT_EQ(len, 5u);
}

TEST(NotificationCodec, CompactTsFallsBackWhenTransitExceedsWindow) {
  WireOptions opts;
  // Transit beyond the 2^15 ns recovery guard: encoder must use 64-bit.
  NotificationCodec codec(opts, sim::usec(40));
  Notification n;
  n.unit.port = 1;
  n.old_sid = 1;
  n.new_sid = 2;
  n.timestamp = sim::sec(5);
  std::uint8_t buf[kMaxNotificationFrameBytes];
  const std::size_t len = codec.encode(n, buf);
  const auto back = codec.decode({buf, len}, 0, n.timestamp + sim::usec(40));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timestamp, n.timestamp);
}

TEST(NotificationCodec, RejectsTruncatedFrames) {
  WireOptions opts;
  NotificationCodec codec(opts, sim::usec(2));
  Mix mix(5);
  const Notification n = make_notification(mix, true);
  std::uint8_t buf[kMaxNotificationFrameBytes];
  const std::size_t len = codec.encode(n, buf);
  for (std::size_t cut = 0; cut < len; ++cut) {
    EXPECT_FALSE(codec.decode({buf, cut}, 0, n.timestamp).has_value())
        << "cut=" << cut;
  }
}

// --- Report codec ------------------------------------------------------------

UnitReport make_report(Mix& mix, net::PortId port, VirtualSid sid,
                       std::uint64_t local, sim::SimTime ship) {
  UnitReport r;
  r.device = 3;
  r.unit.node = 3;
  r.unit.port = port;
  r.unit.direction =
      (port & 1) != 0 ? net::Direction::Egress : net::Direction::Ingress;
  r.sid = sid;
  r.consistent = (mix.next() % 4) != 0;
  r.inferred = (mix.next() % 8) == 0;
  r.local_value = local;
  r.channel_value = local / 2;
  r.finalize_time = ship - static_cast<sim::SimTime>(mix.next() % sim::usec(50));
  r.advance_time =
      r.finalize_time - static_cast<sim::SimTime>(mix.next() % sim::usec(20));
  return r;
}

void expect_report_eq(const UnitReport& a, const UnitReport& b, int tag) {
  EXPECT_EQ(a.device, b.device) << tag;
  EXPECT_EQ(a.unit, b.unit) << tag;
  EXPECT_EQ(a.sid, b.sid) << tag;
  EXPECT_EQ(a.consistent, b.consistent) << tag;
  EXPECT_EQ(a.inferred, b.inferred) << tag;
  EXPECT_EQ(a.local_value, b.local_value) << tag;
  EXPECT_EQ(a.channel_value, b.channel_value) << tag;
  EXPECT_EQ(a.advance_time, b.advance_time) << tag;
  EXPECT_EQ(a.finalize_time, b.finalize_time) << tag;
}

TEST(ReportCodec, ChainRoundTripWithKeyframes) {
  for (const auto encoding : {WireEncoding::FullV2, WireEncoding::DeltaV2}) {
    WireOptions opts;
    opts.encoding = encoding;
    const sim::Duration rpc = sim::usec(50);
    WireStats stats;
    ReportEncoder enc;
    enc.configure(opts, rpc, &stats);
    ReportDecoder dec;
    dec.configure(opts, /*device=*/3, &stats);
    for (net::PortId p = 0; p < 4; ++p) {
      enc.add_unit({3, p, net::Direction::Ingress});
      dec.add_unit({3, p, net::Direction::Ingress});
      enc.add_unit({3, p, net::Direction::Egress});
      dec.add_unit({3, p, net::Direction::Egress});
    }

    Mix mix(17);
    sim::SimTime ship = sim::msec(1);
    std::uint64_t local = 1000;
    for (int i = 0; i < 400; ++i) {
      ship += static_cast<sim::SimTime>(mix.next() % sim::usec(200));
      local += mix.next() % 97;
      const UnitReport r =
          make_report(mix, static_cast<net::PortId>(mix.next() % 4),
                      /*sid=*/1 + static_cast<VirtualSid>(i / 16), local, ship);
      std::uint8_t buf[kMaxReportFrameBytes];
      const std::size_t len = enc.encode(r, ship, buf);
      ASSERT_LE(len, kMaxReportFrameBytes);
      const auto back = dec.decode({buf, len}, ship + rpc);
      ASSERT_TRUE(back.has_value()) << "i=" << i;
      expect_report_eq(*back, r, i);
    }
    if (encoding == WireEncoding::DeltaV2) {
      // Periodic keyframes refresh the baselines, deltas carry the rest.
      EXPECT_GT(stats.keyframe_bytes, 0u);
      EXPECT_GT(stats.delta_bytes, 0u);
      EXPECT_EQ(stats.decode_failures, 0u);
      EXPECT_EQ(stats.stale_session_drops, 0u);
    }
  }
}

TEST(ReportCodec, CompactTimestampSurvivesEpochRollover) {
  // Finalize timestamps straddling a 2^24 ns epoch boundary recover
  // exactly against the RPC arrival reference.
  WireOptions opts;
  const sim::Duration rpc = sim::usec(50);
  ReportEncoder enc;
  enc.configure(opts, rpc, nullptr);
  ReportDecoder dec;
  dec.configure(opts, 3, nullptr);
  const net::UnitId unit{3, 0, net::Direction::Ingress};
  enc.add_unit(unit);
  dec.add_unit(unit);

  const sim::SimTime epoch = sim::SimTime{1} << 24;  // 16.777 ms
  Mix mix(23);
  for (int i = 0; i < 64; ++i) {
    UnitReport r;
    r.device = 3;
    r.unit = unit;
    r.sid = 1 + i;
    r.consistent = true;
    r.local_value = 5;
    // Ship times walking across the boundary; finalize slightly earlier.
    const sim::SimTime ship = epoch - sim::usec(300) + i * sim::usec(10);
    r.finalize_time = ship - static_cast<sim::SimTime>(mix.next() % sim::usec(40));
    r.advance_time = r.finalize_time - sim::usec(3);
    std::uint8_t buf[kMaxReportFrameBytes];
    const std::size_t len = enc.encode(r, ship, buf);
    const auto back = dec.decode({buf, len}, ship + rpc);
    ASSERT_TRUE(back.has_value()) << i;
    EXPECT_EQ(back->finalize_time, r.finalize_time) << i;
    EXPECT_EQ(back->advance_time, r.advance_time) << i;
  }
}

TEST(ReportCodec, StaleSessionFramesAreDroppedWithoutStateDamage) {
  WireOptions opts;
  WireStats stats;
  ReportEncoder enc;
  enc.configure(opts, sim::usec(50), &stats);
  ReportDecoder dec;
  dec.configure(opts, 3, &stats);
  const net::UnitId unit{3, 0, net::Direction::Ingress};
  enc.add_unit(unit);
  dec.add_unit(unit);

  Mix mix(31);
  const UnitReport r1 = make_report(mix, 0, 1, 100, sim::msec(1));
  std::uint8_t old_frame[kMaxReportFrameBytes];
  const std::size_t old_len = enc.encode(r1, sim::msec(1), old_frame);

  // Observer restarts: both sides adopt session 1; the session-0 frame is
  // still in flight.
  enc.begin_session(1);
  dec.begin_session(1);
  EXPECT_FALSE(dec.decode({old_frame, old_len}, sim::msec(2)).has_value());
  EXPECT_EQ(stats.stale_session_drops, 1u);
  EXPECT_EQ(stats.decode_failures, 0u);

  // The first post-restart report is a keyframe and decodes cleanly.
  const UnitReport r2 = make_report(mix, 0, 2, 200, sim::msec(3));
  std::uint8_t buf[kMaxReportFrameBytes];
  const std::size_t len = enc.encode(r2, sim::msec(3), buf);
  const auto back = dec.decode({buf, len}, sim::msec(3) + sim::usec(50));
  ASSERT_TRUE(back.has_value());
  expect_report_eq(*back, r2, 0);
}

TEST(ReportCodec, DeltaWithoutBaselineFailsClosed) {
  WireOptions opts;
  WireStats stats;
  ReportEncoder enc;
  enc.configure(opts, sim::usec(50), &stats);
  const net::UnitId unit{3, 0, net::Direction::Ingress};
  enc.add_unit(unit);

  Mix mix(37);
  // Warm the encoder past its keyframe so the next frame is a delta.
  std::uint8_t buf[kMaxReportFrameBytes];
  enc.encode(make_report(mix, 0, 1, 100, sim::msec(1)), sim::msec(1), buf);
  const UnitReport r = make_report(mix, 0, 2, 150, sim::msec(2));
  const std::size_t len = enc.encode(r, sim::msec(2), buf);

  // A fresh decoder (no baseline) must refuse the delta frame rather than
  // reconstruct garbage.
  ReportDecoder dec;
  dec.configure(opts, 3, &stats);
  dec.add_unit(unit);
  EXPECT_FALSE(dec.decode({buf, len}, sim::msec(2)).has_value());
  EXPECT_EQ(stats.decode_failures, 1u);
}

TEST(ReportCodec, UnregisteredPortFailsClosed) {
  // The decoder's baseline table covers exactly the registered units: a
  // well-formed keyframe naming a port outside it is refused and counted.
  WireOptions opts;
  WireStats stats;
  ReportEncoder enc;
  enc.configure(opts, sim::usec(50), &stats);
  const net::UnitId stranger{3, 9, net::Direction::Egress};
  enc.add_unit(stranger);
  ReportDecoder dec;
  dec.configure(opts, 3, &stats);
  dec.add_unit({3, 0, net::Direction::Ingress});

  Mix mix(43);
  const UnitReport r = make_report(mix, stranger.port, 1, 100, sim::msec(1));
  ASSERT_EQ(r.unit, stranger);
  std::uint8_t buf[kMaxReportFrameBytes];
  const std::size_t len = enc.encode(r, sim::msec(1), buf);
  EXPECT_EQ(stats.keyframe_bytes, len);  // First frame: a keyframe.
  EXPECT_FALSE(dec.decode({buf, len}, sim::msec(1)).has_value());
  EXPECT_EQ(stats.decode_failures, 1u);
}

TEST(ReportCodec, EveryFrameFitsTheInlineBudget) {
  // Adversarial values: huge deltas, timestamps outside the compact
  // window, absolute advance fallbacks — nothing may exceed 45 bytes.
  WireOptions opts;
  ReportEncoder enc;
  enc.configure(opts, sim::usec(50), nullptr);
  const net::UnitId unit{3, 1023, net::Direction::Egress};
  enc.add_unit(unit);
  Mix mix(41);
  for (int i = 0; i < 300; ++i) {
    UnitReport r;
    r.device = 3;
    r.unit = unit;
    r.sid = mix.next();
    r.consistent = true;
    r.local_value = mix.next();
    r.channel_value = mix.next();
    r.finalize_time = static_cast<sim::SimTime>(mix.next() % (1ull << 62));
    r.advance_time = static_cast<sim::SimTime>(mix.next() % (1ull << 62));
    std::uint8_t buf[kMaxReportFrameBytes];
    const std::size_t len =
        enc.encode(r, static_cast<sim::SimTime>(mix.next() % (1ull << 62)), buf);
    EXPECT_LE(len, kMaxReportFrameBytes) << i;
    EXPECT_GT(len, 0u) << i;
  }
}

}  // namespace
}  // namespace speedlight::snap
