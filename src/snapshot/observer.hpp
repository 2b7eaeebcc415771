// The snapshot observer (Sections 3 and 6): a host process that schedules
// network-wide snapshots with every device control plane, assembles the
// per-unit reports into global snapshots, detects completion, enforces the
// id-rollover window out-of-band, and times out failed devices.
//
// Assembly is streaming (DESIGN.md section 16.4): each arriving unit report
// folds into a per-device digest — counts, consistent-value sums, and
// advance/finalize extrema — so completion checks are O(1) and a round's
// assembly state is O(devices), not O(units). Retaining the raw per-unit
// reports is optional (`retain_unit_reports`, on by default for the audit
// tooling and tests); large-fabric runs turn it off and read everything
// through the digests.
//
// The request and report paths index instead of searching. Ids are issued
// densely from 1, so round `id` lives at `rounds_[id - 1]`, and a cursor to
// the oldest incomplete round, advanced as rounds complete, gives the
// rollover check its lower bound in O(1). A report frame names its device
// by the index the device was registered under and the unit by its slot
// (net::unit_slot), so the unit's duplicate and sync-group bits sit at the
// device's first slot plus that slot. One hash lookup per report remains:
// the device's digest within the round.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/endpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/config.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/report.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

/// Per-device streaming aggregate of one snapshot round: everything the
/// global getters need, folded in as reports arrive.
struct DeviceDigest {
  std::size_t expected = 0;  ///< Units this device owes the round.
  std::size_t received = 0;
  std::size_t consistent = 0;
  /// Value sums over *consistent* reports only (total_value semantics).
  std::uint64_t local_sum = 0;
  std::uint64_t channel_sum = 0;
  /// Extrema over nonzero timestamps (0 = none recorded yet).
  sim::SimTime advance_min = 0;
  sim::SimTime advance_max = 0;
  sim::SimTime finalize_min = 0;
  sim::SimTime finalize_max = 0;

  void fold(const UnitReport& r);
};

/// A fully assembled network-wide snapshot.
struct GlobalSnapshot {
  VirtualSid id = 0;
  sim::SimTime scheduled_at = 0;
  /// One report per processing unit (excluded devices' units missing).
  /// Populated only when the observer retains unit reports; the aggregate
  /// getters below never need it.
  std::unordered_map<net::UnitId, UnitReport> reports;
  /// Streaming assembly state, one digest per expected device, all in
  /// `digests[0]`. It stays a range of maps for its readers (fig11,
  /// perfbench), which count entries over every map.
  std::vector<std::unordered_map<net::NodeId, DeviceDigest>> digests;
  std::size_t expected_total = 0;  ///< Relevant units over non-excluded devices.
  std::size_t received_total = 0;
  std::vector<net::NodeId> excluded_devices;
  bool complete = false;
  /// True time the observer assembled the last report (or timed out).
  sim::SimTime completed_at = 0;
  /// Devices (and their relevant unit counts) registered when this snapshot
  /// was requested. Devices attached later (Section 6, "Node attachment")
  /// are not part of this snapshot and their reports for it are ignored.
  std::unordered_map<net::NodeId, std::size_t> expected_devices;
  /// Per-round duplicate suppression, one bit per device slot (a device's
  /// first slot plus net::unit_slot); released on completion (the digests
  /// make re-folding a duplicate unrecoverable).
  std::vector<bool> seen;

  [[nodiscard]] bool all_consistent() const;
  [[nodiscard]] std::size_t consistent_count() const;

  /// Paper Section 8.1: "Synchronization of a snapshot ID is defined as the
  /// difference between the earliest and latest timestamps on any
  /// notification with that ID." advance_span() uses the local-state
  /// instants ("Switch State" in Figure 9); finalize_span() additionally
  /// waits for upstream neighbors ("Switch + Channel State").
  [[nodiscard]] sim::Duration advance_span() const;
  [[nodiscard]] sim::Duration finalize_span() const;

  /// Latest local-state advance timestamp across the round (0 if none) —
  /// the scalability benches read this instead of scanning unit reports.
  [[nodiscard]] sim::SimTime latest_advance() const;

  /// Sum of local values over consistent reports (+ channel state if
  /// `include_channel`): e.g. a causally consistent network-wide packet
  /// count.
  [[nodiscard]] std::uint64_t total_value(bool include_channel) const;
};

class Observer {
 public:
  /// What the caller chooses. The snapshot variant and the wire format are
  /// not among them: an observer always runs its data plane's.
  struct Options {
    /// Devices missing reports this long after the scheduled fire time are
    /// excluded from the global snapshot.
    sim::Duration completion_timeout = sim::msec(100);
    /// Keep per-unit reports in GlobalSnapshot::reports. Off = digests
    /// only: O(devices) assembly memory per round.
    bool retain_unit_reports = true;
  };

  /// `snapshot` and `wire` are the data plane's variant and the report
  /// links' format (encoded frames + per-link decoder, DESIGN.md section
  /// 16); `wire_stats` is the fabric-wide wire accounting sink the report
  /// links share, and may be null.
  Observer(sim::Simulator& sim, const sim::TimingModel& timing,
           const SnapshotConfig& snapshot, const WireOptions& wire,
           WireStats* wire_stats, Options options);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Register a device; wires the control plane's report link to this
  /// observer. May be called at any time (Section 6, "Node attachment"):
  /// snapshots already outstanding keep their original device set, and the
  /// new device participates from the next request on.
  ///
  /// `rpc` is the keyed endpoint request RPCs travel through to reach the
  /// device; unwired (the default) posts them at key 0 on the observer's
  /// simulator, in plain schedule order. The device-side report encoder
  /// accounts into `wire_stats`.
  void register_device(ControlPlane* cp, sim::Endpoint rpc = {});

  /// Request a network-wide snapshot at true time `when` (the observer's
  /// clock is the reference). Returns the assigned id, or nullopt if the
  /// rollover window would be violated (the caller should retry after
  /// outstanding snapshots complete — the out-of-band enforcement of
  /// Section 5.3).
  std::optional<VirtualSid> request_snapshot(sim::SimTime when);

  /// Result access. Snapshots stay available, at a stable address, until
  /// the observer is destroyed.
  [[nodiscard]] const GlobalSnapshot* result(VirtualSid id) const;
  [[nodiscard]] std::size_t completed_count() const { return completed_; }
  [[nodiscard]] std::size_t requested_count() const { return rounds_.size(); }

  /// Invoked whenever a snapshot completes (possibly with exclusions).
  void set_completion_callback(std::function<void(const GlobalSnapshot&)> cb) {
    on_complete_ = std::move(cb);
  }

  /// Restrict the observer's sync group to units matched by `pred` (null =
  /// everything). Broadcasts per-device relevancy masks to every control
  /// plane over the same keyed RPC channel snapshot requests travel, so a
  /// snapshot requested after this call observes the new scope on every
  /// device. Throws std::logic_error, changing nothing, while any requested
  /// snapshot is incomplete: rounds in flight were pinned against the old
  /// membership and would time out their filtered devices. A device
  /// registered afterwards joins with every unit in scope, as its control
  /// plane (never sent a mask) reports them all.
  void set_scope(const std::function<bool(const net::UnitId&)>& pred);

  /// Fault injection: simulate an observer process crash + restart. While
  /// down, incoming unit reports are lost (the report RPCs land on a dead
  /// socket); affected snapshots recover only via the completion timeout,
  /// which excludes the devices whose reports were dropped. Completion
  /// timeouts still fire while down (they are re-armed state the restarted
  /// process recovers from its request log). Coming back up bumps the wire
  /// session: the restarted decoders start empty, and every control plane
  /// is told to re-keyframe, so stale in-flight frames are dropped
  /// identically under every encoding.
  void set_down(bool down);
  [[nodiscard]] bool is_down() const { return down_; }
  [[nodiscard]] std::uint64_t reports_dropped_while_down() const {
    return reports_dropped_while_down_;
  }
  [[nodiscard]] std::uint8_t wire_session() const { return session_; }

 private:
  struct Device {
    ControlPlane* cp = nullptr;
    std::vector<net::UnitId> units;
    sim::Endpoint rpc;  ///< Observer -> device request path.
    std::size_t first_slot = 0;      ///< Global bit of this device's slot 0.
    std::size_t relevant_units = 0;  ///< In-scope units (== units.size()
                                     ///< without a sync-group filter).
    ReportDecoder decoder;           ///< Report-link state.
  };

  static void report_frame_thunk(void* ctx, std::uint16_t dev_index,
                                 const std::uint8_t* bytes, std::uint8_t len);
  void on_report_frame(std::uint16_t dev_index,
                       std::span<const std::uint8_t> bytes);
  void on_report(const Device& dev, const UnitReport& r);
  void check_complete(GlobalSnapshot& snap);
  void timeout_snapshot(VirtualSid id);

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  Options options_;
  WireOptions wire_;
  WireStats* wire_stats_;
  /// Largest live id spread the wire id space disambiguates (Section 5.3).
  std::uint64_t max_spread_;

  std::vector<Device> devices_;
  std::size_t total_units_ = 0;
  /// Width of the per-round bitsets: every device's slots, end to end.
  std::size_t total_slots_ = 0;
  /// Sync-group relevancy by global slot; empty = everything.
  std::vector<bool> relevant_;

  /// Round `id` at index id - 1. A deque, so push_back never moves a round
  /// a result() pointer already refers to.
  std::deque<GlobalSnapshot> rounds_;
  /// Index of the oldest incomplete round (rounds_.size() when none is).
  std::size_t oldest_incomplete_ = 0;
  std::size_t completed_ = 0;
  bool down_ = false;
  std::uint8_t session_ = 0;  ///< Wire report-link session (bumps on restart).
  std::uint64_t reports_dropped_while_down_ = 0;
  std::function<void(const GlobalSnapshot&)> on_complete_;
  /// Scheduled-fire-time -> assembly latency (registry-owned).
  obs::Histogram* completion_latency_ = nullptr;
};

}  // namespace speedlight::snap
