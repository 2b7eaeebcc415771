// Control-plane logic (Figure 7) exercised against real data-plane units
// through fake handles: completion detection, inconsistency marking, value
// inference, re-initiation, and register-poll recovery.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/unit_handle.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {
namespace {

class FakeUnit final : public UnitHandle {
 public:
  FakeUnit(sim::Simulator& sim, net::UnitId id, const SnapshotConfig& config,
           std::uint16_t channels, std::uint16_t cpu)
      : sim_(sim),
        dp_(id, config, channels, cpu, [this]() { return state; },
            [](const PacketView&) { return std::uint64_t{1}; },
            [this](const Notification& n) {
              if (notify) notify(n);
            }) {}

  [[nodiscard]] net::UnitId unit_id() const override { return dp_.id(); }
  [[nodiscard]] bool is_ingress() const override { return true; }
  [[nodiscard]] std::uint16_t num_channels() const override {
    return dp_.num_channels();
  }
  [[nodiscard]] std::uint16_t cpu_channel() const override {
    return dp_.cpu_channel();
  }

  void inject_initiation(WireSid sid) override {
    ++initiations;
    if (drop_initiations > 0) {
      --drop_initiations;
      return;
    }
    sim_.after(sim::usec(2), [this, sid]() { dp_.on_initiation(sid, sim_.now()); });
  }

  void inject_probe() override { ++probes; }

  [[nodiscard]] SlotValue read_value_slot(std::size_t index) const override {
    return dp_.read_slot(index);
  }
  [[nodiscard]] WireSid read_sid_register() const override {
    return dp_.sid_register();
  }
  [[nodiscard]] WireSid read_last_seen_register(
      std::uint16_t channel) const override {
    return dp_.last_seen_register(channel);
  }
  [[nodiscard]] std::uint64_t read_live_counter() const override {
    return state;
  }

  WireSid packet(WireSid sid, std::uint16_t channel) {
    PacketView v;
    v.wire_sid = sid;
    return dp_.on_packet(v, channel, sim_.now());
  }

  sim::Simulator& sim_;
  std::uint64_t state = 0;
  int initiations = 0;
  int probes = 0;
  int drop_initiations = 0;
  std::function<void(const Notification&)> notify;
  DataplaneUnit dp_;
};

/// The observer's end of a control plane's report link: decodes every
/// frame and keeps the report. Attach after the control plane's units are
/// added (the decoder's baseline table covers exactly those units).
struct ReportCapture {
  ReportCapture(sim::Simulator& simulator, ControlPlane& cp)
      : sim(simulator) {
    decoder.configure(WireOptions{}, cp.device(), &wire);
    for (const auto& u : cp.unit_ids()) decoder.add_unit(u);
    cp.set_report_link(this, &ReportCapture::on_frame, /*dev_index=*/0,
                       WireOptions{}, &wire);
  }

  static void on_frame(void* ctx, std::uint16_t /*dev_index*/,
                       const std::uint8_t* bytes, std::uint8_t len) {
    auto* self = static_cast<ReportCapture*>(ctx);
    const auto r = self->decoder.decode({bytes, len}, self->sim.now());
    if (r) self->reports.push_back(*r);
  }

  sim::Simulator& sim;
  WireStats wire;
  ReportDecoder decoder;
  std::vector<UnitReport> reports;
};

struct Fixture {
  explicit Fixture(SnapshotConfig config, ControlPlane::Options options = {},
                   std::uint16_t data_channels = 1) {
    timing.reinitiation_timeout = sim::msec(1);
    cp = std::make_unique<ControlPlane>(sim, 7, "sw7", timing, config, options,
                                        sim::Rng(11));
    // One unit: data channels 0 .. data_channels - 1, then the CPU channel.
    unit = std::make_unique<FakeUnit>(
        sim, net::UnitId{7, 0, net::Direction::Ingress}, config,
        data_channels + 1, data_channels);
    unit->notify = [this](const Notification& n) { cp->on_notification(n); };
    cp->add_unit(unit.get(), std::vector<bool>(data_channels + 1, true));
    capture = std::make_unique<ReportCapture>(sim, *cp);
  }

  const UnitReport* report_for(VirtualSid sid) const {
    for (const auto& r : capture->reports) {
      if (r.sid == sid) return &r;
    }
    return nullptr;
  }

  sim::Simulator sim;
  sim::TimingModel timing;
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<FakeUnit> unit;
  std::unique_ptr<ReportCapture> capture;
};

SnapshotConfig cs_config() {
  SnapshotConfig c;
  c.channel_state = true;
  return c;
}

SnapshotConfig nocs_config() { return SnapshotConfig{}; }

TEST(ControlPlane, AddUnitRejectsNullHandleAndWrongMaskLength) {
  // add_unit writes the CPU channel's mask bit and sizes per-channel state
  // from the handle, so a bad argument must not get that far.
  sim::Simulator sim;
  sim::TimingModel timing;
  ControlPlane cp(sim, 7, "sw7", timing, cs_config(), {}, sim::Rng(11));
  FakeUnit unit(sim, net::UnitId{7, 0, net::Direction::Ingress}, cs_config(),
                /*channels=*/3, /*cpu=*/2);
  EXPECT_THROW(cp.add_unit(nullptr, std::vector<bool>(3, true)),
               std::invalid_argument);
  EXPECT_THROW(cp.add_unit(&unit, std::vector<bool>(2, true)),
               std::invalid_argument);
  EXPECT_THROW(cp.add_unit(&unit, std::vector<bool>(4, true)),
               std::invalid_argument);
  EXPECT_TRUE(cp.unit_ids().empty());
  cp.add_unit(&unit, std::vector<bool>(3, true));
  EXPECT_EQ(cp.unit_ids().size(), 1u);
}

TEST(ControlPlaneCs, CompletesWhenLastSeenCatchesUp) {
  Fixture f(cs_config());
  f.unit->state = 5;
  f.cp->schedule_snapshot(1, 0);
  f.sim.run_until(sim::usec(500));
  EXPECT_EQ(f.unit->dp_.virtual_sid(), 1u);
  EXPECT_TRUE(f.capture->reports.empty())
      << "not complete until the neighbor catches up";

  // The upstream neighbor advances: a packet stamped 1 arrives.
  f.unit->packet(1, 0);
  f.sim.run_until(sim::msec(800));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_EQ(r->local_value, 5u);
  EXPECT_EQ(r->device, 7u);
}

TEST(ControlPlaneCs, InFlightPacketsInChannelValue) {
  Fixture f(cs_config());
  f.cp->schedule_snapshot(1, 0);
  f.sim.run_until(sim::usec(500));
  f.unit->packet(0, 0);  // In-flight.
  f.unit->packet(0, 0);  // In-flight.
  f.unit->packet(1, 0);  // Neighbor catches up.
  f.sim.run_until(sim::msec(800));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_EQ(r->channel_value, 2u);
}

TEST(ControlPlaneCs, SkippedIdsMarkedInconsistent) {
  Fixture f(cs_config());
  // The unit jumps straight to 3 via a data packet (e.g. its initiations
  // were lost but a neighbor advanced).
  f.unit->state = 42;
  f.unit->packet(3, 0);
  f.sim.run_until(sim::msec(800));
  for (VirtualSid i = 1; i <= 2; ++i) {
    const UnitReport* r = f.report_for(i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_FALSE(r->consistent) << i;
  }
  const UnitReport* r3 = f.report_for(3);
  ASSERT_NE(r3, nullptr);
  EXPECT_TRUE(r3->consistent);
  EXPECT_EQ(r3->local_value, 42u);
}

TEST(ControlPlaneCs, JumpPastEverySlotMarksEverySkippedId) {
  // Figure 7 marks every id a unit advances past before its channel state
  // is final, however far one notification moves it. With 2^32 ids the
  // unit jumps from 1 to 70, past all 64 value slots (id 70 reuses skipped
  // id 6's slot), while a packet sent before snapshot 1 is still in flight
  // on its other channel; that packet is booked into id 70.
  constexpr VirtualSid kTo = SnapshotConfig::kValueSlots + 6;
  const auto to = static_cast<WireSid>(kTo);
  Fixture f(cs_config(), {}, /*data_channels=*/2);
  f.unit->state = 5;
  f.unit->packet(1, 0);   // Channel 0's neighbor reaches 1 ...
  f.unit->packet(to, 0);  // ... then 70, in one jump.
  f.unit->packet(0, 1);   // In flight on channel 1 since before snapshot 1.
  f.unit->packet(to, 1);  // Channel 1 catches up: ids 1..70 are final.
  f.sim.run_until(sim::msec(5));
  for (VirtualSid i = 1; i <= kTo; ++i) {
    const UnitReport* r = f.report_for(i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_EQ(r->consistent, i == kTo) << i;
  }
  EXPECT_EQ(f.report_for(kTo)->local_value, 5u);
  EXPECT_EQ(f.report_for(kTo)->channel_value, 1u);
}

TEST(ControlPlaneCs, AdvanceTimeIsTheNotificationThatPassedTheId) {
  // The completion floor lags across two advances; each id's advance_time
  // is the timestamp of the notification that advanced the unit past it.
  Fixture f(cs_config());
  f.sim.run_until(sim::usec(10));
  f.unit->dp_.on_initiation(2, f.sim.now());  // 0 -> 2 at 10 us.
  f.sim.run_until(sim::usec(30));
  f.unit->dp_.on_initiation(5, f.sim.now());  // 2 -> 5 at 30 us.
  f.sim.run_until(sim::usec(50));
  f.unit->packet(5, 0);  // Last Seen catches up: ids 1..5 are final.
  f.sim.run_until(sim::msec(5));
  for (VirtualSid i = 1; i <= 5; ++i) {
    const UnitReport* r = f.report_for(i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_EQ(r->advance_time, i <= 2 ? sim::usec(10) : sim::usec(30)) << i;
  }
}

TEST(ControlPlaneNoCs, CompleteOnAdvance) {
  Fixture f(nocs_config());
  f.unit->state = 9;
  f.cp->schedule_snapshot(1, 0);
  f.sim.run_until(sim::msec(800));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_FALSE(r->inferred);
  EXPECT_EQ(r->local_value, 9u);
}

TEST(ControlPlaneNoCs, SkippedIdsInferred) {
  Fixture f(nocs_config());
  f.unit->state = 77;
  f.unit->packet(3, 0);  // Jump 0 -> 3.
  f.sim.run_until(sim::msec(800));
  for (VirtualSid i = 1; i <= 3; ++i) {
    const UnitReport* r = f.report_for(i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_TRUE(r->consistent) << i;
    EXPECT_EQ(r->local_value, 77u) << i;
    EXPECT_EQ(r->inferred, i != 3) << i;
  }
}

TEST(ControlPlane, ReinitiationRecoversLostInitiation) {
  Fixture f(cs_config());
  f.unit->drop_initiations = 1;  // First initiation never reaches the ASIC.
  f.cp->schedule_snapshot(1, 0);
  f.sim.run_until(sim::msec(10));
  EXPECT_GE(f.unit->initiations, 2);
  EXPECT_EQ(f.unit->dp_.virtual_sid(), 1u);
  EXPECT_GE(f.cp->reinitiation_rounds(), 1u);
}

TEST(ControlPlane, ReinitiationStopsAfterMaxAttempts) {
  Fixture f(cs_config());
  f.unit->drop_initiations = 1000;  // Permanently broken.
  f.cp->schedule_snapshot(1, 0);
  f.sim.run_until(sim::sec(1));
  EXPECT_EQ(f.unit->initiations, 1 + ControlPlane::kMaxReinitiations);
  EXPECT_EQ(f.cp->reinitiation_rounds(),
            std::uint64_t{ControlPlane::kMaxReinitiations});
}

TEST(ControlPlane, ProbesFloodOnReinitiationWhenEnabled) {
  ControlPlane::Options opts;
  opts.probe_on_reinitiate = true;
  Fixture f(cs_config(), opts);
  f.cp->schedule_snapshot(1, 0);
  // sid advances via initiation but lastSeen[0] stays behind -> incomplete
  // -> re-initiation rounds flood probes.
  f.sim.run_until(sim::msec(10));
  EXPECT_GE(f.unit->probes, 1);
}

TEST(ControlPlane, RegisterPollRecoversLostNotifications) {
  ControlPlane::Options opts;
  opts.proactive_register_poll = true;
  Fixture f(nocs_config(), opts);
  f.cp->start_register_poll();
  // Cut the notification path entirely.
  f.unit->notify = nullptr;
  f.unit->state = 31;
  f.unit->packet(1, 0);
  f.sim.run_until(sim::msec(20));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_EQ(r->local_value, 31u);
}

TEST(ControlPlane, RegisterPollRecoversChannelStateToo) {
  // With channel state, the poll must also reconstruct the Last Seen
  // registers, or completion would hang after a dropped notification.
  ControlPlane::Options opts;
  opts.proactive_register_poll = true;
  Fixture f(cs_config(), opts);
  f.cp->start_register_poll();
  f.unit->notify = nullptr;  // Every notification lost.
  f.unit->state = 12;
  f.unit->dp_.on_initiation(1, f.sim.now());  // sid -> 1.
  f.unit->packet(0, 0);                       // In-flight booked.
  f.unit->packet(1, 0);                       // lastSeen[0] -> 1.
  f.sim.run_until(sim::msec(30));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_EQ(r->local_value, 12u);
  EXPECT_EQ(r->channel_value, 1u);
}

TEST(ControlPlaneCs, SimultaneousSidAndLastSeenChange) {
  // One packet can advance the sid AND the lastSeen of its channel; the
  // single notification carries all four values and must complete the
  // snapshot in one step (this is why the paper needs all four).
  Fixture f(cs_config());
  f.unit->state = 8;
  f.unit->packet(1, 0);  // Neighbor-initiated: sid 0->1, lastSeen[0] 0->1.
  f.sim.run_until(sim::msec(5));
  const UnitReport* r = f.report_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->consistent);
  EXPECT_EQ(r->local_value, 8u);
}

TEST(ControlPlaneNoCs, InferenceAcrossWraparound) {
  // Skipped ids spanning a wire rollover still infer correctly.
  SnapshotConfig config = nocs_config();
  config.wire_id_modulus = 8;  // Serial window: ids within +/-3.
  Fixture f(config);
  // Walk to virtual 7 (wire 7), then jump to virtual 9 (wire 1): virtual 8
  // (wire 0) is skipped across the rollover.
  for (WireSid i = 1; i <= 7; ++i) {
    f.unit->state = i * 10;
    f.unit->packet(i, 0);
  }
  f.sim.run_until(f.sim.now() + sim::msec(5));
  f.unit->state = 90;
  f.unit->packet(9 % 8, 0);  // wire 1 -> virtual 9.
  f.sim.run_until(f.sim.now() + sim::msec(5));
  const UnitReport* r8 = f.report_for(8);
  const UnitReport* r9 = f.report_for(9);
  ASSERT_NE(r8, nullptr);
  ASSERT_NE(r9, nullptr);
  EXPECT_TRUE(r8->inferred);
  EXPECT_FALSE(r9->inferred);
  // Virtual 8 was skipped: its value is inferred from slot 9, which holds
  // the state at the moment of the jump (90).
  EXPECT_EQ(r9->local_value, 90u);
  EXPECT_EQ(r8->local_value, 90u);
}

TEST(ControlPlane, DuplicateNotificationsIdempotent) {
  Fixture f(nocs_config());
  Notification n;
  n.unit = f.unit->unit_id();
  n.old_sid = 0;
  n.new_sid = 1;
  n.timestamp = 5;
  f.unit->state = 3;
  f.unit->packet(1, 0);  // Real advance (generates its own notification).
  f.cp->on_notification(n);  // Duplicate.
  f.cp->on_notification(n);  // Duplicate.
  f.sim.run_until(sim::msec(5));
  int count = 0;
  for (const auto& r : f.capture->reports) count += r.sid == 1;
  EXPECT_EQ(count, 1);
}

TEST(ControlPlane, MaskedChannelDoesNotGateCompletion) {
  // A unit whose only data channel is masked out (e.g. host-facing
  // ingress) completes as soon as its id advances.
  SnapshotConfig config = cs_config();
  sim::Simulator sim;
  sim::TimingModel timing;
  ControlPlane cp(sim, 1, "sw", timing, config, {}, sim::Rng(2));
  FakeUnit unit(sim, net::UnitId{1, 0, net::Direction::Ingress}, config, 2, 1);
  unit.notify = [&](const Notification& n) { cp.on_notification(n); };
  cp.add_unit(&unit, {false, false});  // External channel masked out.
  ReportCapture capture(sim, cp);
  const std::vector<UnitReport>& reports = capture.reports;
  cp.schedule_snapshot(1, 0);
  sim.run_until(sim::msec(500));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].sid, 1u);
  EXPECT_TRUE(reports[0].consistent);
}

TEST(ControlPlane, WraparoundNotificationsUnrolled) {
  SnapshotConfig config = cs_config();
  config.wire_id_modulus = 4;
  Fixture f(config);
  // Walk through 10 snapshots in a 2-bit wire space.
  for (VirtualSid i = 1; i <= 10; ++i) {
    f.unit->state = i;
    f.unit->dp_.on_initiation(static_cast<WireSid>(i % 4), f.sim.now());
    f.unit->packet(static_cast<WireSid>(i % 4), 0);
    f.sim.run_until(f.sim.now() + sim::msec(2));
  }
  f.sim.run_until(f.sim.now() + sim::msec(5));
  for (VirtualSid i = 1; i <= 10; ++i) {
    const UnitReport* r = f.report_for(i);
    ASSERT_NE(r, nullptr) << i;
    EXPECT_TRUE(r->consistent) << i;
    EXPECT_EQ(r->local_value, i) << i;
  }
}

}  // namespace
}  // namespace speedlight::snap
