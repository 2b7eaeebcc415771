// Section 6, "Node attachment": devices registered with the observer
// mid-operation join from the next snapshot on; their state starts at 0
// and jumps ahead on the first marker; spurious completions for snapshots
// they were never part of are ignored.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/unit_handle.hpp"

namespace speedlight::snap {
namespace {

// Minimal device: one ingress unit behind a control plane, initiations
// applied directly.
class MiniDevice {
 public:
  MiniDevice(sim::Simulator& sim, const sim::TimingModel& timing,
             net::NodeId id, const SnapshotConfig& config)
      : unit_(sim, id, config), cp_(sim, id, "dev" + std::to_string(id),
                                    timing, config, {}, sim::Rng(id)) {
    unit_.notify = [this](const Notification& n) { cp_.on_notification(n); };
    cp_.add_unit(&unit_, {false, false});
  }

  [[nodiscard]] ControlPlane& cp() { return cp_; }
  /// A marker-carrying packet from a neighbor already at wire sid `sid`.
  void deliver_marker(WireSid sid) { unit_.packet(sid); }
  [[nodiscard]] VirtualSid sid() const { return unit_.dp().virtual_sid(); }

 private:
  class Unit final : public UnitHandle {
   public:
    Unit(sim::Simulator& sim, net::NodeId id, const SnapshotConfig& config)
        : sim_(sim),
          dp_(net::UnitId{id, 0, net::Direction::Ingress}, config, 2, 1,
              [this]() { return state; },
              [](const PacketView&) { return std::uint64_t{1}; },
              [this](const Notification& n) {
                if (notify) notify(n);
              }) {}

    [[nodiscard]] net::UnitId unit_id() const override { return dp_.id(); }
    [[nodiscard]] bool is_ingress() const override { return true; }
    [[nodiscard]] std::uint16_t num_channels() const override { return 2; }
    [[nodiscard]] std::uint16_t cpu_channel() const override { return 1; }
    void inject_initiation(WireSid sid) override {
      sim_.after(sim::usec(2),
                 [this, sid]() { dp_.on_initiation(sid, sim_.now()); });
    }
    void inject_probe() override {}
    [[nodiscard]] SlotValue read_value_slot(std::size_t i) const override {
      return dp_.read_slot(i);
    }
    [[nodiscard]] SlotValue read_oracle_slot(std::size_t i) const override {
      return dp_.read_oracle_slot(i);
    }
    [[nodiscard]] WireSid read_sid_register() const override {
      return dp_.sid_register();
    }
    [[nodiscard]] WireSid read_last_seen_register(std::uint16_t ch) const override {
      return dp_.last_seen_register(ch);
    }
    [[nodiscard]] std::uint64_t read_live_counter() const override {
      return state;
    }
    void packet(WireSid sid) {
      PacketView v;
      v.wire_sid = sid;
      dp_.on_packet(v, 0, sim_.now());
      ++state;
    }
    [[nodiscard]] const DataplaneUnit& dp() const { return dp_; }

    std::uint64_t state = 0;
    std::function<void(const Notification&)> notify;

   private:
    sim::Simulator& sim_;
    DataplaneUnit dp_;
  };

  Unit unit_;
  ControlPlane cp_;
};

TEST(NodeAttachment, LateDeviceJoinsNextSnapshot) {
  sim::Simulator sim;
  sim::TimingModel timing;
  SnapshotConfig config;  // No channel state: completion on advance.
  Observer::Options obs_options;
  obs_options.completion_timeout = sim::msec(100);
  Observer observer(sim, timing, config, WireOptions{}, nullptr, obs_options);

  MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());

  // Snapshot 1: only device A exists.
  const auto s1 = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(s1.has_value());
  sim.run_until(sim::msec(10));
  const GlobalSnapshot* snap1 = observer.result(*s1);
  ASSERT_NE(snap1, nullptr);
  EXPECT_TRUE(snap1->complete);
  EXPECT_EQ(snap1->reports.size(), 1u);

  // Device B attaches: state initialized to 0 (Section 6).
  MiniDevice b(sim, timing, 2, config);
  observer.register_device(&b.cp());
  EXPECT_EQ(b.sid(), 0u);

  // Traffic from A's epoch reaches B before any initiation: B jumps ahead.
  b.deliver_marker(1);
  EXPECT_EQ(b.sid(), 1u);
  sim.run_until(sim::msec(20));
  // B's report for snapshot 1 is spurious (B was not in the device set):
  // snapshot 1 must be unchanged.
  EXPECT_EQ(observer.result(*s1)->reports.size(), 1u);

  // Snapshot 2 covers both devices.
  const auto s2 = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(s2.has_value());
  sim.run_until(sim.now() + sim::msec(20));
  const GlobalSnapshot* snap2 = observer.result(*s2);
  ASSERT_NE(snap2, nullptr);
  EXPECT_TRUE(snap2->complete);
  EXPECT_EQ(snap2->reports.size(), 2u);
  EXPECT_TRUE(snap2->excluded_devices.empty());
}

TEST(NodeAttachment, OutstandingSnapshotUnaffectedByAttachment) {
  sim::Simulator sim;
  sim::TimingModel timing;
  SnapshotConfig config;
  Observer::Options obs_options;
  obs_options.completion_timeout = sim::msec(100);
  Observer observer(sim, timing, config, WireOptions{}, nullptr, obs_options);
  MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());

  // Request a snapshot, then attach B *before* it completes.
  const auto s1 = observer.request_snapshot(sim.now() + sim::msec(5));
  ASSERT_TRUE(s1.has_value());
  MiniDevice b(sim, timing, 2, config);
  observer.register_device(&b.cp());

  sim.run_until(sim::msec(50));
  const GlobalSnapshot* snap1 = observer.result(*s1);
  ASSERT_NE(snap1, nullptr);
  // Completes with A alone — B (which never got the schedule) neither
  // blocks completion nor is reported missing.
  EXPECT_TRUE(snap1->complete);
  EXPECT_TRUE(snap1->excluded_devices.empty());
  EXPECT_EQ(snap1->reports.size(), 1u);
}

TEST(NodeAttachment, DeviceAttachedAfterScopeChangeJoinsSyncGroup) {
  sim::Simulator sim;
  sim::TimingModel timing;
  SnapshotConfig config;
  Observer::Options obs_options;
  obs_options.completion_timeout = sim::msec(100);
  Observer observer(sim, timing, config, WireOptions{}, nullptr, obs_options);
  MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());
  observer.set_scope([](const net::UnitId&) { return true; });

  // B attaches after the scope change: its control plane was never sent a
  // mask and reports its unit, which the observer must count, not drop.
  MiniDevice b(sim, timing, 2, config);
  observer.register_device(&b.cp());
  const auto s1 = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(s1.has_value());
  sim.run_until(sim::msec(20));
  const GlobalSnapshot* snap1 = observer.result(*s1);
  ASSERT_NE(snap1, nullptr);
  EXPECT_TRUE(snap1->complete);  // Long before the 100 ms timeout.
  EXPECT_TRUE(snap1->excluded_devices.empty());
  EXPECT_EQ(snap1->reports.size(), 2u);
}

}  // namespace
}  // namespace speedlight::snap
