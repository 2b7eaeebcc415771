// Snapshot-id arithmetic: wire<->virtual mapping and rollover handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/config.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/ids.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {
namespace {

TEST(SidSpace, UnboundedPassThrough) {
  const SidSpace s(0);
  EXPECT_EQ(s.modulus(), std::uint64_t{1} << 32);
  EXPECT_EQ(s.to_wire(12345), 12345u);
  EXPECT_EQ(s.unroll_monotonic(100, 105), 105u);
  EXPECT_EQ(s.unroll_serial(100, 95), 95u);
}

TEST(SidSpace, WireWraps) {
  const SidSpace s(8);
  EXPECT_EQ(s.to_wire(0), 0u);
  EXPECT_EQ(s.to_wire(7), 7u);
  EXPECT_EQ(s.to_wire(8), 0u);
  EXPECT_EQ(s.to_wire(17), 1u);
}

TEST(SidSpace, MonotonicUnrollBasics) {
  const SidSpace s(8);
  // Reference 10 (wire 2): wire 2 -> 10 itself, wire 3 -> 11, wire 1 -> 17.
  EXPECT_EQ(s.unroll_monotonic(10, 2), 10u);
  EXPECT_EQ(s.unroll_monotonic(10, 3), 11u);
  EXPECT_EQ(s.unroll_monotonic(10, 1), 17u);
}

TEST(SidSpace, MonotonicUnrollSupportsSpreadModulusMinusOne) {
  const SidSpace s(8);
  // The sender may be up to modulus-1 ahead of the reference.
  for (VirtualSid ref = 0; ref < 40; ++ref) {
    for (std::uint64_t ahead = 0; ahead < 8; ++ahead) {
      const VirtualSid actual = ref + ahead;
      EXPECT_EQ(s.unroll_monotonic(ref, s.to_wire(actual)), actual)
          << "ref=" << ref << " ahead=" << ahead;
    }
  }
}

TEST(SidSpace, MonotonicUnrollNeverRegresses) {
  const SidSpace s(16);
  for (VirtualSid ref = 0; ref < 64; ++ref) {
    for (WireSid w = 0; w < 16; ++w) {
      EXPECT_GE(s.unroll_monotonic(ref, w), ref);
    }
  }
}

TEST(SidSpace, SerialUnrollBothDirections) {
  const SidSpace s(16);
  // Within +/- modulus/2 of the reference, values resolve exactly.
  for (VirtualSid ref = 20; ref < 60; ++ref) {
    for (std::int64_t delta = -7; delta <= 7; ++delta) {
      const VirtualSid actual = ref + delta;
      EXPECT_EQ(s.unroll_serial(ref, s.to_wire(actual)), actual)
          << "ref=" << ref << " delta=" << delta;
    }
  }
}

TEST(SidSpace, SerialUnrollClampsBelowZero) {
  const SidSpace s(16);
  // Reference 2, wire of "actual -5" is ambiguous; the implementation never
  // goes negative.
  const VirtualSid v = s.unroll_serial(2, s.to_wire(11 + 16));  // wire 11
  EXPECT_GE(v, 0u);
}

TEST(SidSpace, SerialUnrollEarlyRun) {
  const SidSpace s(16);
  // At the very start (local sid 0), small wire ids resolve to themselves.
  EXPECT_EQ(s.unroll_serial(0, 0), 0u);
  EXPECT_EQ(s.unroll_serial(0, 1), 1u);
  EXPECT_EQ(s.unroll_serial(0, 7), 7u);
  EXPECT_EQ(s.unroll_serial(3, 1), 1u);
}

TEST(SidSpace, MaxSpreadMatchesVariant) {
  const SidSpace s(16);
  EXPECT_EQ(s.max_spread(/*channel_state=*/true), 15u);
  EXPECT_EQ(s.max_spread(/*channel_state=*/false), 7u);
}

TEST(SidSpace, RolloverRoundTripLongRun) {
  // A long monotone run of ids, communicated wire-only hop by hop, is
  // reconstructed exactly when consecutive increments stay < modulus.
  const SidSpace s(8);
  VirtualSid reference = 0;
  VirtualSid actual = 0;
  const std::uint64_t increments[] = {1, 3, 7, 2, 1, 1, 6, 5, 4, 7, 1};
  for (const auto inc : increments) {
    actual += inc;
    reference = s.unroll_monotonic(reference, s.to_wire(actual));
    EXPECT_EQ(reference, actual);
  }
}

TEST(SidSpace, ModulusMustBeAPowerOfTwo) {
  for (const std::uint32_t m : {0u, 2u, 4u, 8u, 16u, 32u, 64u, 1u << 31}) {
    EXPECT_TRUE(SidSpace::valid_modulus(m)) << m;
  }
  for (const std::uint32_t m : {1u, 3u, 6u, 12u, 100u, 0xffffffffu}) {
    EXPECT_FALSE(SidSpace::valid_modulus(m)) << m;
  }
}

TEST(SidSpace, UnitControlPlaneAndObserverRejectNonPowerOfTwoModulus) {
  // Wire ids are masked, so modulus 3 would mask with 2 and alias ids.
  // Each component that builds an id space refuses it in every build type,
  // not only where asserts are compiled in.
  SnapshotConfig config;
  config.wire_id_modulus = 3;
  sim::Simulator sim;
  sim::TimingModel timing;
  const auto make_unit = [&config] {
    return std::make_unique<DataplaneUnit>(
        net::UnitId{0, 0, net::Direction::Ingress}, config, 2, 1,
        [] { return std::uint64_t{0}; },
        [](const PacketView&) { return std::uint64_t{1}; },
        [](const Notification&) {});
  };
  EXPECT_THROW(SidSpace(3), std::invalid_argument);
  EXPECT_THROW(make_unit(), std::invalid_argument);
  EXPECT_THROW(ControlPlane(sim, 0, "sw", timing, config, {}, sim::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(Observer(sim, timing, config, WireOptions{}, nullptr, {}),
               std::invalid_argument);
}

TEST(SidSpace, MaskedArithmeticMatchesModuloDefinition) {
  // The masks must reproduce the division-based definitions exactly for
  // every modulus in use, across wraps and early-run references.
  for (const std::uint32_t m : {4u, 8u, 16u, 32u, 64u, 0u}) {
    const SidSpace s(m);
    const std::uint64_t mod = s.modulus();
    for (VirtualSid ref = 0; ref < 300; ref += 7) {
      for (std::uint64_t step = 0; step < 3 * 64; ++step) {
        const auto w = static_cast<WireSid>((ref * 13 + step) % mod);
        EXPECT_EQ(s.to_wire(ref + step), (ref + step) % mod);
        const std::uint64_t ahead = (w + mod - ref % mod) % mod;
        EXPECT_EQ(s.unroll_monotonic(ref, w), ref + ahead);
        const VirtualSid serial =
            ahead <= mod / 2 ? ref + ahead
            : ref >= mod - ahead ? ref - (mod - ahead)
                                 : ref + ahead;
        EXPECT_EQ(s.unroll_serial(ref, w), serial);
      }
    }
  }
}

}  // namespace
}  // namespace speedlight::snap
