// The per-device snapshot control plane (Section 6).
//
// Responsibilities, mirroring the paper:
//  * synchronized initiation: fire at a local-clock deadline (PTP-aligned)
//    and dispatch initiation messages to every ingress unit;
//  * completion/inconsistency detection from data-plane notifications
//    (Figure 7, with and without channel state);
//  * liveness: re-initiation after timeouts, optional probe injection when
//    channel-state snapshots stall for lack of traffic, optional proactive
//    register polling to recover from notification drops;
//  * shipping per-unit values to the snapshot observer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/clock.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/config.hpp"
#include "snapshot/report.hpp"
#include "snapshot/unit_handle.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

class NotificationTransport;

class ControlPlane {
 public:
  /// The liveness choices (Section 6). The snapshot variant is not among
  /// them: a control plane always runs its data plane's SnapshotConfig.
  struct Options {
    /// Flood probes on re-initiation (unblocks channel-state snapshots
    /// that stall because a channel carries no traffic). Both probe flags
    /// apply only with channel state: a probe moves Last Seen entries, and
    /// only the channel-state variant has them.
    bool probe_on_reinitiate = true;
    /// Flood probes immediately after every initiation: proactively pushes
    /// fresh markers across every internal sub-channel and every directly
    /// attached link, so channel-state snapshots complete promptly even on
    /// channels that structurally never carry traffic (Section 6 cites
    /// up-down routing as the canonical case). The alternative is masking
    /// those channels out of completion by hand.
    bool probe_on_initiate = true;
    /// Periodically (kRegisterPollInterval) read data-plane registers to
    /// recover from lost notifications.
    bool proactive_register_poll = false;
  };

  /// Re-initiation rounds per snapshot, kept while it is locally
  /// incomplete, one reinitiation_timeout apart.
  static constexpr int kMaxReinitiations = 8;
  /// Period of the proactive register poll.
  static constexpr sim::Duration kRegisterPollInterval = sim::msec(2);

  ControlPlane(sim::Simulator& sim, net::NodeId device, std::string name,
               const sim::TimingModel& timing, const SnapshotConfig& snapshot,
               Options options, sim::Rng rng);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Register a data-plane unit. `completion_mask[ch]` marks the channels
  /// whose Last Seen gates completion; the CPU channel and host-facing
  /// channels are masked out (Section 6: "operators can configure the
  /// removal of non-utilized upstream neighbors"). A null `unit`, or a mask
  /// whose length is not the unit's channel count, throws
  /// std::invalid_argument.
  void add_unit(UnitHandle* unit, std::vector<bool> completion_mask);

  /// Receiver of encoded report frames (the observer side of the report
  /// RPC). A plain function pointer + context keeps the shipped closure
  /// within the inline event capture.
  using ReportFrameFn = void (*)(void* ctx, std::uint16_t dev_index,
                                 const std::uint8_t* bytes, std::uint8_t len);

  /// The report link to the observer (DESIGN.md section 16): ship()
  /// encodes each report through a stateful per-link delta encoder and
  /// posts the byte frame to `fn`. `dev_index` is the observer's dense index
  /// for this device (frames do not carry node ids). Until a link is set,
  /// reports are counted and dropped.
  void set_report_link(void* ctx, ReportFrameFn fn, std::uint16_t dev_index,
                       const WireOptions& opts, WireStats* stats);

  /// Sync-group membership (per local unit index, unit_ids() order): ship()
  /// drops reports for units outside the observer's scope. An empty vector
  /// (the default) means every unit is relevant. The change also forces
  /// keyframes so the observer's next frame per unit carries absolutes.
  void set_report_scope(std::vector<bool> relevant);

  /// Observer restart announcement: adopt the new report-link session and
  /// re-keyframe every unit (the restarted decoder starts empty).
  void on_observer_session(std::uint8_t session);

  /// Post shipped reports to the observer (the report RPC) under merge key
  /// `key`. The default key 0 posts in plain schedule order. Either way the
  /// frame lands observer_rpc_latency after ship time.
  void set_report_key(sim::MergeKey key) { report_key_ = key; }

  /// The notification transport feeding this control plane, whose
  /// in_flight() tells the proactive register poll whether the path is
  /// quiet. The poll must not fast-forward the controller's view while
  /// notifications are still in flight: their (older) wire sids would later
  /// unroll as near-modulus forward jumps, corrupting
  /// ctrl_sid/ctrl_last_seen. Unset, the path counts as quiet.
  void set_transport(const NotificationTransport* transport) {
    transport_ = transport;
  }

  /// This device's clock; the PTP service periodically re-aligns it.
  [[nodiscard]] sim::LocalClock& clock() { return clock_; }
  [[nodiscard]] const sim::LocalClock& clock() const { return clock_; }

  /// Observer RPC: schedule snapshot `id` to fire when the local clock
  /// reads `local_fire_time`.
  void schedule_snapshot(VirtualSid id, sim::SimTime local_fire_time);

  /// Entry point wired to the notification channel (Figure 7 handlers).
  void on_notification(const Notification& n);

  /// Start the proactive register-poll loop; a no-op unless
  /// `Options::proactive_register_poll` is set.
  void start_register_poll();

  [[nodiscard]] net::NodeId device() const { return device_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::vector<net::UnitId> unit_ids() const;
  [[nodiscard]] const Options& options() const { return options_; }

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] std::uint64_t initiations_sent() const { return initiations_sent_; }
  [[nodiscard]] std::uint64_t reinitiation_rounds() const { return reinit_rounds_; }
  [[nodiscard]] std::uint64_t reports_sent() const { return reports_sent_; }
  [[nodiscard]] std::uint64_t reports_filtered() const {
    return reports_filtered_;
  }

  /// With SnapshotConfig::oracle: for every report this control plane
  /// built, in build order, the report the units' Figure 3 oracle slots
  /// yield at the same read. Never shipped: no event, no wire byte, no
  /// counter. A report that reads no slot (an id marked inconsistent) is
  /// its own oracle report. Empty without the oracle.
  [[nodiscard]] const std::vector<UnitReport>& oracle_reports() const {
    return oracle_reports_;
  }

 private:
  /// One notification that moved ctrl_sid: the unit advanced through
  /// `through` at data-plane time `at`.
  struct Advance {
    VirtualSid through = 0;
    sim::SimTime at = 0;
  };

  struct UnitState {
    UnitHandle* handle = nullptr;
    VirtualSid ctrl_sid = 0;                  ///< ctrlSnapID[unit]
    std::vector<VirtualSid> ctrl_last_seen;   ///< ctrlLastSeen[unit][*]
    std::vector<bool> completion_mask;
    VirtualSid last_read = 0;                 ///< lastRead[unit]
    /// Audit: the advances not yet read past, oldest first. Id i advanced
    /// at the first entry whose `through` reaches it.
    std::vector<Advance> advances;

    /// Move ctrl_sid to `to`, which the data plane reached at time `at`.
    void advance(VirtualSid to, sim::SimTime at);
    /// Data-plane time of the advance past `sid` (last_read < sid <=
    /// ctrl_sid).
    [[nodiscard]] sim::SimTime advance_time(VirtualSid sid) const;
    /// Drop the advances whose ids are all at or below `floor`.
    void trim_advances(VirtualSid floor);
  };

  /// `slot_pos_` entry of a slot no unit is registered at.
  static constexpr std::uint32_t kNoUnit = 0xFFFFFFFFu;

  void initiate_now(VirtualSid id);
  void arm_reinitiation(VirtualSid id, int attempt);
  // Per-unit steps take the unit's position in units_: it addresses the
  // unit's state and its sync-group bit without a lookup.
  void handle_notification_cs(std::size_t pos, const Notification& n);
  void handle_notification_nocs(std::size_t pos, const Notification& n);
  /// Figure 7: read every finalized-but-unread snapshot value from the unit
  /// and ship it. `finalize_ts` stamps the finalize_time of the reports.
  void advance_reads(std::size_t pos, sim::SimTime finalize_ts);
  [[nodiscard]] VirtualSid completion_floor(const UnitState& u) const;
  void read_and_report(std::size_t pos, VirtualSid sid,
                       sim::SimTime finalize_ts);
  /// A register read event: ship the reports for ids [from, through]
  /// built from the unit's slots, then, with the oracle, keep the reports
  /// its oracle slots yield.
  void read_and_ship(std::size_t pos, VirtualSid from, VirtualSid through,
                     sim::SimTime advance_ts, sim::SimTime finalize_ts);
  /// Build the reports for ids [from, through] into read_reports_ from the
  /// unit's Snapshot Value slots (its oracle slots when `oracle`): with
  /// channel state, the one id read and stamped `advance_ts`; without, the
  /// downward value-inference walk.
  void build_reports(std::size_t pos, VirtualSid from, VirtualSid through,
                     sim::SimTime advance_ts, sim::SimTime finalize_ts,
                     bool oracle);
  void report_inconsistent(std::size_t pos, VirtualSid sid);
  void ship(const UnitReport& r, std::size_t pos);
  void register_poll_tick();
  [[nodiscard]] bool locally_complete(VirtualSid id) const;

  sim::Simulator& sim_;
  net::NodeId device_;
  std::string name_;
  const sim::TimingModel& timing_;
  SnapshotConfig snapshot_;
  Options options_;
  sim::Rng rng_;
  SidSpace space_;
  sim::LocalClock clock_;

  /// In add_unit order (a switch adds every ingress unit, then every egress
  /// unit).
  std::vector<UnitState> units_;
  /// Position in units_ by net::unit_slot (kNoUnit where none registered).
  std::vector<std::uint32_t> slot_pos_;
  sim::MergeKey report_key_ = 0;

  // --- Report link (null fn = no observer yet) -----------------------------
  ReportFrameFn frame_fn_ = nullptr;
  void* frame_ctx_ = nullptr;
  std::uint16_t frame_dev_index_ = 0;
  ReportEncoder report_enc_;
  /// Sync-group relevancy by local unit index; empty = all relevant.
  std::vector<bool> scope_;

  /// build_reports' output, reused by every read.
  std::vector<UnitReport> read_reports_;
  std::vector<UnitReport> oracle_reports_;

  VirtualSid latest_initiated_ = 0;
  std::uint64_t track_ = 0;  ///< Flight-recorder lane (obs::cpu_track).
  std::uint64_t initiations_sent_ = 0;
  std::uint64_t reinit_rounds_ = 0;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t reports_filtered_ = 0;
  bool poll_running_ = false;
  const NotificationTransport* transport_ = nullptr;
};

}  // namespace speedlight::snap
