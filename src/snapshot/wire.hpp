// Wire format v2 for the snapshot control plane (DESIGN.md section 16).
//
// Two message families cross process boundaries on the snapshot hot path:
//
//  * notifications (data plane -> control plane, over the PCIe raw socket) —
//    the Figure 10 bottleneck; and
//  * unit reports (control plane -> observer, over the report RPC).
//
// v1 shipped both as full structs. v2 adds a delta encoding:
//
//  * notifications: stateless per-message compression — varint port/sid,
//    2-bit sid/last-seen advance codes with varint escape, and a 16-bit
//    truncated timestamp recovered against the socket-buffer arrival time
//    (the PCIe latency is orders of magnitude below the 32.7 us recovery
//    half-window). Reference full frame: 29 bytes; typical delta frame:
//    5-6 bytes without channel state.
//
//  * reports: per-link stateful compression with per-unit value baselines
//    (varint-packed changed-field bitmap + zigzag deltas), a sid chained on
//    the previous frame of the link, a 24-bit truncated finalize timestamp
//    recovered against RPC arrival, and the advance timestamp as a zigzag
//    delta from finalize. Every kReportKeyframeInterval-th report of a unit
//    (and the first after a session or sync-group change) is a keyframe
//    carrying absolutes, bounding any baseline loss. An 8-bit session id —
//    bumped when the observer restarts and announced to every control
//    plane — makes stale in-flight frames self-identifying, so both
//    encodings drop exactly the same reports across observer crashes.
//
// Encoders fall back to absolute fields whenever a compact form would be
// ambiguous (timestamp outside the recovery window, oversized delta), so
// decoding is always exact: the fuzzer's twin-run oracle requires snapshots
// reconstructed from delta frames to be byte-identical to full-encoding
// runs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/snapshot_wire.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "snapshot/notification.hpp"
#include "snapshot/report.hpp"

namespace speedlight::snap {

enum class WireEncoding : std::uint8_t {
  FullV2,   ///< Fixed-layout frames, 64-bit timestamps. Reference encoding.
  DeltaV2,  ///< Delta/varint frames (the default).
};

/// Control-plane wire configuration, plumbed NetworkOptions -> SwitchOptions
/// -> notification transport, and NetworkOptions -> Observer -> report links.
/// The defaults are the production posture; uncharged service is the
/// fixed-cost compatibility baseline the fuzzer and the calibrated ablations
/// run.
struct WireOptions {
  WireEncoding encoding = WireEncoding::DeltaV2;
  /// Truncated timestamps (16-bit notifications / 24-bit reports) with
  /// receiver-side epoch recovery; off = full 64-bit timestamps.
  bool compact_timestamps = true;
  /// Scale notification service time with the encoded frame size (the
  /// honest model behind the Figure 10 rate win). Off = every frame costs
  /// the full notification_service_time regardless of encoding: the paper's
  /// fixed-cost calibration, under which runs with different encodings are
  /// event-for-event comparable (the twin oracle mode).
  bool charge_bytes = true;
};

/// Fabric-wide wire accounting, registered as `wire.*` in the metrics
/// registry.
struct WireStats {
  std::uint64_t notification_bytes = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t keyframe_bytes = 0;  ///< Subset of report_bytes.
  std::uint64_t delta_bytes = 0;     ///< Subset of report_bytes.
  std::uint64_t notifications_encoded = 0;
  std::uint64_t reports_encoded = 0;
  std::uint64_t ts_fallbacks = 0;          ///< Compact window missed; sent 64-bit.
  std::uint64_t stale_session_drops = 0;   ///< Frames from a pre-restart session.
  std::uint64_t decode_failures = 0;       ///< Malformed / baseline-less frames.
};

// --- Frame sizing ------------------------------------------------------------

/// FullV2 notification frame: flags(1) port(2) old_sid(4) new_sid(4)
/// channel(2) old_ls(4) new_ls(4) ts(8). Also the byte-cost reference every
/// service charge is normalized against.
inline constexpr std::size_t kFullNotificationBytes = 29;
/// DeltaV2 worst case: flags(1) port(3) new_sid(5) sid-escape(5) channel(3)
/// new_ls(5) ls-escape(5) ts(8) = 35, rounded up.
inline constexpr std::size_t kMaxNotificationFrameBytes = 36;

/// FullV2 report frame: flags(1) session(1) port(2) sid(8) local(8)
/// channel(8) finalize(8) advance(8).
inline constexpr std::size_t kFullReportBytes = 44;
/// DeltaV2 keyframe worst case: flags(1) session(1) port(3) sid(8) local(8)
/// channel(8) finalize(8) advance(8) = 45. The encoder re-encodes any delta
/// frame that would exceed kFullReportBytes as a keyframe, so this bounds
/// every report frame (and keeps the shipped closure within the 64-byte
/// inline event capture).
inline constexpr std::size_t kMaxReportFrameBytes = 45;

inline constexpr unsigned kNotificationTsBits = 16;  ///< 65.5 us window.
inline constexpr unsigned kReportTsBits = 24;        ///< 16.78 ms window.

/// Full keyframe refresh cadence per unit (reports between keyframes).
inline constexpr std::uint32_t kReportKeyframeInterval = 32;

/// Fraction of notification_service_time that is fixed per-message overhead
/// (interrupt + dispatch); the remainder scales linearly with the frame size
/// relative to the full-encoding reference. Calibrated so a FullV2 frame
/// costs exactly notification_service_time, preserving the v1 model.
inline constexpr double kFixedServiceFraction = 0.08;

/// Byte-proportional service cost: full * (f + (1-f) * bytes / 29).
[[nodiscard]] sim::Duration wire_service_cost(sim::Duration full_service,
                                              std::size_t bytes);

// --- Notification codec (stateless) ------------------------------------------

class NotificationCodec {
 public:
  NotificationCodec() = default;
  /// `transit_latency` is the fixed sender->receiver delay (PCIe); the
  /// encoder falls back to 64-bit timestamps if it does not clear the
  /// compact recovery window.
  NotificationCodec(const WireOptions& opts, sim::Duration transit_latency);

  /// Encode into `out` (>= kMaxNotificationFrameBytes). Returns frame length.
  std::size_t encode(const Notification& n, std::uint8_t* out) const;

  /// `device` owns the channel (frames do not carry the node id); `arrival`
  /// is the receiver-side arrival time the compact timestamp is recovered
  /// against.
  [[nodiscard]] std::optional<Notification> decode(
      std::span<const std::uint8_t> bytes, net::NodeId device,
      sim::SimTime arrival) const;

 private:
  WireOptions opts_;
  bool compact_ts_ok_ = false;
};

// --- Report codec (per control-plane -> observer link) ------------------------

class ReportEncoder {
 public:
  void configure(const WireOptions& opts, sim::Duration rpc_latency,
                 WireStats* stats);

  /// Grow the baseline table to cover `unit`, so encoding never allocates
  /// on the ship path (the data-path allocation guard watches it). A report
  /// for a unit outside the table ships as a keyframe.
  void add_unit(const net::UnitId& unit);

  /// Observer restart announcement: adopt the new session, invalidate every
  /// baseline (the restarted decoder starts empty).
  void begin_session(std::uint8_t session);

  /// Sync-group membership change: next report of every unit is a keyframe.
  void force_keyframes();

  /// Encode `r` shipped at `now` into `out` (>= kMaxReportFrameBytes).
  /// Returns frame length.
  std::size_t encode(const UnitReport& r, sim::SimTime now, std::uint8_t* out);

 private:
  struct Base {
    std::uint64_t local = 0;
    std::uint64_t channel = 0;
    std::uint32_t since_keyframe = 0;
    bool valid = false;
  };

  std::size_t encode_keyframe(const UnitReport& r, sim::SimTime now,
                              std::uint8_t* out, Base& base);

  WireOptions opts_;
  sim::Duration rpc_latency_ = 0;
  WireStats* stats_ = nullptr;
  std::uint8_t session_ = 0;
  VirtualSid last_sid_ = 0;  ///< Chain base: previous frame's sid on this link.
  bool have_last_sid_ = false;
  std::vector<Base> base_;  ///< Indexed by net::unit_slot.
};

class ReportDecoder {
 public:
  void configure(const WireOptions& opts, net::NodeId device,
                 WireStats* stats);

  /// Grow the baseline table to cover `unit`. Frames naming a port outside
  /// the table decode to nullopt.
  void add_unit(const net::UnitId& unit);

  /// Restart: expect `session`, drop all reconstruction state.
  void begin_session(std::uint8_t session);

  /// Decode a frame arriving now. Returns nullopt (and counts why) for
  /// stale-session frames, baseline-less delta frames, frames for a port
  /// outside the table, or malformed input — never a wrong report.
  [[nodiscard]] std::optional<UnitReport> decode(
      std::span<const std::uint8_t> bytes, sim::SimTime arrival);

 private:
  struct Base {
    std::uint64_t local = 0;
    std::uint64_t channel = 0;
    bool valid = false;
  };

  WireOptions opts_;
  net::NodeId device_ = net::kInvalidNode;
  WireStats* stats_ = nullptr;
  std::uint8_t session_ = 0;
  VirtualSid last_sid_ = 0;
  bool have_last_sid_ = false;
  std::vector<Base> base_;  ///< Indexed by net::unit_slot.
};

}  // namespace speedlight::snap
