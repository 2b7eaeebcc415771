// Unit tests for the per-processing-unit snapshot state machine
// (Figure 3 semantics, hardware constraints, wraparound, notifications).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "snapshot/dataplane.hpp"

namespace speedlight::snap {
namespace {

constexpr net::UnitId kUnit{1, 2, net::Direction::Ingress};

struct Harness {
  explicit Harness(SnapshotConfig config, std::uint16_t channels = 2,
                   std::uint16_t cpu = 1)
      : unit(kUnit, config, channels, cpu, [this]() { return state; },
             [](const PacketView&) { return std::uint64_t{1}; },
             [this](const Notification& n) { notifications.push_back(n); }) {}

  std::uint64_t state = 0;
  std::vector<Notification> notifications;
  DataplaneUnit unit;

  WireSid packet(WireSid sid, std::uint16_t channel = 0, bool counts = true,
                 sim::SimTime now = 0) {
    PacketView v;
    v.wire_sid = sid;
    v.counts_for_metrics = counts;
    return unit.on_packet(v, channel, now);
  }
};

SnapshotConfig cs_config(std::uint32_t modulus = 0) {
  SnapshotConfig c;
  c.channel_state = true;
  c.wire_id_modulus = modulus;
  return c;
}

SnapshotConfig nocs_config(std::uint32_t modulus = 0) {
  SnapshotConfig c = cs_config(modulus);
  c.channel_state = false;
  return c;
}

// A unit that also keeps the Figure 3 oracle array beside the hardware one.
SnapshotConfig oracle_config() {
  SnapshotConfig c = cs_config();
  c.oracle = true;
  return c;
}

void expect_unwritten(const SlotValue& slot, VirtualSid id) {
  EXPECT_FALSE(slot.initialized) << id;
  EXPECT_EQ(slot.local_value, 0u) << id;
  EXPECT_EQ(slot.channel_value, 0u) << id;
  EXPECT_EQ(slot.wire_sid, 0u) << id;
  EXPECT_EQ(slot.saved_at, 0) << id;
}

TEST(Dataplane, AdvanceSavesStateBeforeCounting) {
  Harness h(cs_config());
  h.state = 42;
  const WireSid out = h.packet(1);
  EXPECT_EQ(out, 1u);
  const SlotValue& slot = h.unit.read_slot(1);
  EXPECT_TRUE(slot.initialized);
  // The advancing packet itself is post-snapshot: the slot holds the value
  // *before* any update the caller performs afterwards.
  EXPECT_EQ(slot.local_value, 42u);
  EXPECT_EQ(slot.channel_value, 0u);
  EXPECT_EQ(h.unit.virtual_sid(), 1u);
}

TEST(Dataplane, SameEpochPacketIsNoOp) {
  Harness h(cs_config());
  h.packet(1);
  const auto before = h.notifications.size();
  const WireSid out = h.packet(1);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(h.unit.virtual_sid(), 1u);
  EXPECT_EQ(h.notifications.size(), before);  // No change -> no notification.
}

TEST(Dataplane, StampsDepartingPacketsWithLocalSid) {
  Harness h(nocs_config());
  h.packet(3);
  // An in-flight packet (older sid) departs re-stamped with the local sid.
  EXPECT_EQ(h.packet(1), 3u);
}

TEST(Dataplane, MarkerlessPacketsOnlyStamp) {
  Harness h(cs_config());
  h.packet(2);
  PacketView v;
  v.has_marker = false;
  const WireSid out = h.unit.on_packet(v, 0, 0);
  EXPECT_EQ(out, 2u);
  EXPECT_EQ(h.unit.virtual_sid(), 2u);
  EXPECT_EQ(h.unit.virtual_last_seen(0), 2u);  // Untouched by markerless.
}

TEST(Dataplane, InFlightBookedIntoCurrentSlot) {
  // The unit advances via the CPU (initiation); packets from the old epoch
  // then arrive on the data channel and count as channel state. (On a FIFO
  // channel an in-flight packet can never follow a newer-id packet, so the
  // advance must come from a *different* channel.)
  Harness h(cs_config());
  h.state = 10;
  h.unit.on_initiation(1, 0);
  h.state = 15;
  h.packet(0, /*channel=*/0);     // in-flight from epoch 0
  h.packet(0, /*channel=*/0);     // another
  const SlotValue& slot = h.unit.read_slot(1);
  EXPECT_EQ(slot.local_value, 10u);
  EXPECT_EQ(slot.channel_value, 2u);
}

TEST(Dataplane, ControlMessagesNeverInFlight) {
  Harness h(cs_config());
  h.unit.on_initiation(2, 0);
  const auto before = h.unit.read_slot(2).channel_value;
  h.packet(1, 0, /*counts=*/false);  // e.g. a probe from an old epoch
  EXPECT_EQ(h.unit.read_slot(2).channel_value, before);
}

TEST(Dataplane, LastSeenTracksPerChannel) {
  Harness h(cs_config(0), /*channels=*/3, /*cpu=*/2);
  h.packet(4, 0);
  h.packet(2, 1);
  EXPECT_EQ(h.unit.virtual_last_seen(0), 4u);
  EXPECT_EQ(h.unit.virtual_last_seen(1), 2u);
  EXPECT_EQ(h.unit.virtual_sid(), 4u);
}

TEST(Dataplane, NotificationCarriesAllFourValues) {
  Harness h(cs_config());
  h.packet(1, 0);
  ASSERT_EQ(h.notifications.size(), 1u);
  const Notification& n = h.notifications[0];
  EXPECT_EQ(n.unit, kUnit);
  EXPECT_EQ(n.old_sid, 0u);
  EXPECT_EQ(n.new_sid, 1u);
  EXPECT_EQ(n.channel, 0);
  EXPECT_EQ(n.old_last_seen, 0u);
  EXPECT_EQ(n.new_last_seen, 1u);
  EXPECT_TRUE(n.sid_changed());
  EXPECT_TRUE(n.last_seen_changed());
}

TEST(Dataplane, NotificationOnLastSeenOnlyProgress) {
  Harness h(cs_config(0), 3, 2);
  h.packet(2, 0);  // sid -> 2
  h.notifications.clear();
  h.packet(1, 1);  // in-flight, but lastSeen[1] 0 -> 1
  ASSERT_EQ(h.notifications.size(), 1u);
  EXPECT_FALSE(h.notifications[0].sid_changed());
  EXPECT_TRUE(h.notifications[0].last_seen_changed());
  EXPECT_EQ(h.notifications[0].channel, 1);
}

TEST(Dataplane, NoCsEmitsNoLastSeen) {
  Harness h(nocs_config());
  h.packet(1);
  ASSERT_EQ(h.notifications.size(), 1u);
  EXPECT_EQ(h.notifications[0].channel, kNoChannel);
  EXPECT_FALSE(h.notifications[0].last_seen_changed());
}

TEST(Dataplane, HardwareJumpSkipsIntermediateSlots) {
  Harness h(cs_config());
  h.state = 7;
  h.packet(5, 0);
  EXPECT_TRUE(h.unit.read_slot(5).initialized);
  for (VirtualSid i = 1; i <= 4; ++i) {
    EXPECT_FALSE(h.unit.read_slot(i).initialized) << i;
  }
}

TEST(Dataplane, IdealJumpFillsIntermediateSlots) {
  // A jump from 1 to 4: the hardware captures id 4 only, the oracle array
  // back-fills ids 2-3 with the state at the jump.
  Harness h(oracle_config());
  Harness plain(cs_config());
  for (Harness* u : {&h, &plain}) {
    u->state = 7;
    u->unit.on_initiation(1, 0);
    u->state = 9;
    u->packet(4, /*channel=*/0, /*counts=*/true, /*now=*/20);
  }
  for (VirtualSid i = 2; i <= 3; ++i) {
    expect_unwritten(h.unit.read_slot(i), i);
    const SlotValue oracle = h.unit.read_oracle_slot(i);
    EXPECT_TRUE(oracle.initialized) << i;
    EXPECT_EQ(oracle.local_value, 9u) << i;
    EXPECT_EQ(oracle.wire_sid, i) << i;
    EXPECT_EQ(oracle.saved_at, 20) << i;
  }
  EXPECT_EQ(h.unit.read_slot(1).local_value, 7u);
  EXPECT_EQ(h.unit.read_oracle_slot(1).local_value, 7u);
  EXPECT_EQ(h.unit.read_slot(4).local_value, 9u);
  EXPECT_EQ(h.unit.read_oracle_slot(4).local_value, 9u);
  // Oracle writes count no captures, and the oracle array is not a
  // hardware register: the unit's footprint is the plain unit's.
  EXPECT_EQ(h.unit.captures(), 2u);
  EXPECT_EQ(h.unit.captures(), plain.unit.captures());
  EXPECT_EQ(h.unit.value_bytes(), plain.unit.value_bytes());
  // A unit without the oracle has no oracle array to read.
  expect_unwritten(plain.unit.read_oracle_slot(1), 1);
}

TEST(Dataplane, IdealInFlightUpdatesAllCoveredSlots) {
  // A packet in flight on channel 0 since before snapshot 1: the hardware
  // books it into the current id only, the oracle into every id it covers.
  Harness h(oracle_config());
  h.unit.on_initiation(3, 0);  // Advance via CPU so channel 0 stays behind.
  h.packet(0, 0);              // In-flight for snapshots 1..3.
  EXPECT_EQ(h.unit.read_slot(3).channel_value, 1u);
  for (VirtualSid i = 1; i <= 2; ++i) {
    EXPECT_EQ(h.unit.read_slot(i).channel_value, 0u) << i;
  }
  for (VirtualSid i = 1; i <= 3; ++i) {
    EXPECT_EQ(h.unit.read_oracle_slot(i).channel_value, 1u) << i;
  }
  EXPECT_EQ(h.unit.captures(), 1u);
}

TEST(Dataplane, InitiationAdvancesViaCpuChannel) {
  Harness h(cs_config());
  h.state = 99;
  const WireSid out = h.unit.on_initiation(1, 5);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(h.unit.virtual_sid(), 1u);
  EXPECT_EQ(h.unit.virtual_last_seen(1), 1u);  // CPU channel.
  EXPECT_EQ(h.unit.virtual_last_seen(0), 0u);  // Data channel untouched.
  EXPECT_EQ(h.unit.read_slot(1).local_value, 99u);
  EXPECT_EQ(h.unit.read_slot(1).saved_at, 5);
}

TEST(Dataplane, DuplicateInitiationIgnored) {
  Harness h(cs_config());
  h.unit.on_initiation(1, 0);
  const auto notifications = h.notifications.size();
  h.state = 123;
  h.unit.on_initiation(1, 0);  // Duplicate.
  EXPECT_EQ(h.unit.read_slot(1).local_value, 0u);  // Not overwritten.
  EXPECT_EQ(h.notifications.size(), notifications);
}

TEST(Dataplane, StaleInitiationIgnored) {
  Harness h(cs_config());
  h.unit.on_initiation(1, 0);
  h.unit.on_initiation(2, 0);
  h.state = 55;
  h.unit.on_initiation(1, 0);  // Out of date; must not regress.
  EXPECT_EQ(h.unit.virtual_sid(), 2u);
}

TEST(Dataplane, WraparoundLongRunMonotone) {
  Harness h(cs_config(/*modulus=*/4));
  // Drive 20 snapshots through a 2-bit wire id space, one at a time.
  for (VirtualSid i = 1; i <= 20; ++i) {
    h.state = i * 100;
    h.unit.on_initiation(static_cast<WireSid>(i % 4), 0);
    EXPECT_EQ(h.unit.virtual_sid(), i);
  }
}

TEST(Dataplane, WraparoundSlotTagsDetectStaleness) {
  Harness h(cs_config(/*modulus=*/4));
  h.unit.on_initiation(1, 0);
  h.unit.on_initiation(2, 0);
  // Slot 1 holds snapshot 1 (wire 1). After rolling to virtual 5 (wire 1),
  // the slot is overwritten and tagged with the same wire id, so only the
  // no-lap discipline distinguishes them: verify tags are stored at all.
  EXPECT_EQ(h.unit.read_slot(1).wire_sid, 1u);
  EXPECT_EQ(h.unit.read_slot(2).wire_sid, 2u);
}

TEST(Dataplane, NoCsSerialArithmeticHandlesBehindPackets) {
  Harness h(nocs_config(/*modulus=*/16));
  for (WireSid i = 1; i <= 9; ++i) h.unit.on_initiation(i, 0);
  EXPECT_EQ(h.unit.virtual_sid(), 9u);
  // A packet from epoch 7 (behind by 2, wire 7): no action, stamped 9.
  EXPECT_EQ(h.packet(7), 9u % 16);
  EXPECT_EQ(h.unit.virtual_sid(), 9u);
}

TEST(Dataplane, HardwareMatchesIdealWithoutSkips) {
  // A +1-at-a-time script: the oracle array agrees with the hardware one
  // exactly, and keeping it leaves the hardware program untouched.
  Harness h(oracle_config());
  Harness plain(cs_config());
  const struct {
    WireSid sid;
    std::uint16_t ch;
  } script[] = {{1, 0}, {1, 0}, {0, 0}, {1, 0}, {2, 0}, {1, 0}, {2, 0}, {3, 0}};
  std::uint64_t state = 0;
  for (const auto& step : script) {
    ++state;
    h.state = plain.state = state;
    h.packet(step.sid, step.ch);
    plain.packet(step.sid, step.ch);
  }
  EXPECT_EQ(h.unit.virtual_sid(), plain.unit.virtual_sid());
  EXPECT_EQ(h.notifications.size(), plain.notifications.size());
  EXPECT_EQ(h.unit.captures(), plain.unit.captures());
  for (VirtualSid i = 1; i <= 3; ++i) {
    const SlotValue& hw = h.unit.read_slot(i);
    const SlotValue oracle = h.unit.read_oracle_slot(i);
    EXPECT_TRUE(hw.initialized) << i;
    EXPECT_EQ(hw.local_value, oracle.local_value) << i;
    EXPECT_EQ(hw.channel_value, oracle.channel_value) << i;
    EXPECT_EQ(hw.wire_sid, oracle.wire_sid) << i;
    EXPECT_EQ(hw.local_value, plain.unit.read_slot(i).local_value) << i;
    EXPECT_EQ(hw.channel_value, plain.unit.read_slot(i).channel_value) << i;
  }
}

TEST(Dataplane, ValueArrayStoresOnlyWrittenSlots) {
  Harness h(cs_config());
  ASSERT_EQ(h.unit.num_slots(), 64u);
  EXPECT_EQ(h.unit.value_bytes(), 0u);
  // An unwritten slot reads as a zeroed register.
  const SlotValue& unwritten = h.unit.read_slot(17);
  EXPECT_FALSE(unwritten.initialized);
  EXPECT_EQ(unwritten.local_value, 0u);
  EXPECT_EQ(unwritten.channel_value, 0u);
  EXPECT_EQ(unwritten.wire_sid, 0u);
  EXPECT_EQ(unwritten.saved_at, 0);

  // Storage grows with the ids written, not with the configured slots.
  h.state = 5;
  h.unit.on_initiation(1, 0);
  const std::size_t after_one = h.unit.value_bytes();
  EXPECT_GT(after_one, 0u);
  EXPECT_LE(after_one, 2 * sizeof(SlotValue));
  for (WireSid i = 2; i <= 9; ++i) {
    h.state = i * 10;
    h.unit.on_initiation(i, 0);
  }
  EXPECT_GT(h.unit.value_bytes(), after_one);
  EXPECT_LE(h.unit.value_bytes(), 16 * sizeof(SlotValue));
  EXPECT_FALSE(h.unit.read_slot(10).initialized);
  EXPECT_FALSE(h.unit.read_slot(40).initialized);

  // Reads wrap at slots(): index 64 + i is slot i, written or not.
  EXPECT_EQ(h.unit.read_slot(64 + 1).local_value, 5u);
  EXPECT_EQ(h.unit.read_slot(64 + 9).local_value, 90u);
  EXPECT_EQ(h.unit.read_slot(64 + 9).wire_sid, 9u);
  EXPECT_FALSE(h.unit.read_slot(64 + 40).initialized);

  // Capped at the configured slot count once every slot has been written.
  for (WireSid i = 10; i <= 70; ++i) h.unit.on_initiation(i, 0);
  EXPECT_EQ(h.unit.value_bytes(), 64 * sizeof(SlotValue));
  EXPECT_EQ(h.unit.read_slot(70).wire_sid, 70u);
  EXPECT_EQ(h.unit.read_slot(6).wire_sid, 70u);
}

TEST(Dataplane, IdealOracleSeesEverySlot) {
  // A jump past the slot count back-fills the last slots() ids: the oracle
  // array holds all 64 slots, whatever prefix the hardware has written.
  Harness h(oracle_config());
  Harness plain(cs_config());
  h.state = plain.state = 3;
  h.packet(100, 0);
  plain.packet(100, 0);
  for (VirtualSid i = 100 - 63; i <= 100; ++i) {
    const SlotValue oracle = h.unit.read_oracle_slot(i);
    EXPECT_TRUE(oracle.initialized) << i;
    EXPECT_EQ(oracle.wire_sid, i) << i;
    EXPECT_EQ(oracle.local_value, 3u) << i;
  }
  EXPECT_TRUE(h.unit.read_slot(100).initialized);
  for (VirtualSid i = 100 - 63; i < 100; ++i) {
    EXPECT_FALSE(h.unit.read_slot(i).initialized) << i;
  }
  EXPECT_EQ(h.unit.captures(), 1u);
  EXPECT_EQ(h.unit.value_bytes(), plain.unit.value_bytes());
}

}  // namespace
}  // namespace speedlight::snap
