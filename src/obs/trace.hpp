// The structured trace layer of the flight recorder: fixed-size records
// written into a bounded ring, categorized by subsystem, with both a
// runtime switch (`enable()`) and a compile-time kill switch
// (-DSPEEDLIGHT_TRACE_DISABLED, CMake option SPEEDLIGHT_TRACE=OFF).
//
// Design constraints, matching PR 1's allocation-free event core:
//  * recording never allocates — records are 48-byte PODs written into a
//    pre-sized ring; when the ring is full the oldest record is overwritten
//    (a flight recorder keeps the most recent history);
//  * a disabled tracer costs one predictable branch per call site (and
//    nothing at all when compiled out);
//  * no strings on the hot path — event names and categories are enums
//    resolved to strings only at export time.
//
// Consumers: obs/chrome_trace.hpp renders the ring as Chrome trace-event
// JSON (Perfetto / chrome://tracing); obs/timeline.hpp reconstructs the
// causal chain of one snapshot id from the same records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace speedlight::obs {

/// Subsystem that emitted a record (one lane of the paper's control/data
/// plane interaction surface).
enum class Category : std::uint8_t {
  SnapshotSm,    ///< Data-plane snapshot state machine (Figures 3-5).
  NotifChannel,  ///< ASIC -> CPU notification transport (Section 7.2).
  ControlPlane,  ///< On-switch control plane (Figures 6-7).
  Observer,      ///< Snapshot observer / polling baseline.
  Sim,           ///< Simulator internals.
};

/// Every event the recorder knows how to emit. Keep in sync with
/// `event_name()` in trace.cpp.
enum class EventName : std::uint16_t {
  SnapCapture,    ///< Unit saved local state for a snapshot id (a0=vsid, a1=unit key).
  SnapNotify,     ///< Unit emitted a notification (a0=vsid, a1=unit key).
  NotifService,   ///< CPU serviced one notification (span; a0=wire sid, a1=unit key).
  NotifDrop,      ///< Notification lost (a0: 0=overflow, 1=random).
  CpInitiate,     ///< Control plane dispatched initiations (a0=vsid).
  CpReinitiate,   ///< Liveness re-initiation round (a0=vsid).
  CpProcess,      ///< Control plane digested a notification (a0=vsid, a1=unit key).
  CpReport,       ///< Control plane shipped a unit report (a0=vsid, a1=unit key).
  ObsRequest,     ///< Observer requested a network-wide snapshot (a0=vsid).
  ObsCollect,     ///< Observer collected one unit report (a0=vsid, a1=unit key).
  ObsComplete,    ///< Global snapshot assembled (a0=vsid, a1=#reports).
  PollSweep,      ///< One polling sweep (span; a0=#samples).
  PollRead,       ///< One polled register read (a0=unit key, a1=value).
};

[[nodiscard]] const char* event_name(EventName n);
[[nodiscard]] const char* category_name(Category c);

/// One fixed-size trace record. `dur == 0` encodes an instant event;
/// `dur > 0` a complete span starting at `ts`.
struct TraceEvent {
  sim::SimTime ts = 0;
  sim::Duration dur = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t track = 0;
  EventName name{};
  Category cat{};
};
static_assert(sizeof(TraceEvent) <= 48, "trace records must stay compact");

// --- Track identity ---------------------------------------------------------
// A track is one timeline lane in the exported trace: `pid` groups lanes
// into a process box (one per device), `tid` separates lanes inside it.
// Convention: tid 0 = the device's CPU control plane, tid 1 = its
// notification channel, tid 2+ = data-plane units (2 + port*2 + direction).

inline constexpr std::uint32_t kObserverPid = 0xFFFFFFFFu;
inline constexpr std::uint32_t kPollerPid = 0xFFFFFFFEu;

[[nodiscard]] constexpr std::uint64_t make_track(std::uint32_t pid,
                                                 std::uint32_t tid) {
  return (static_cast<std::uint64_t>(pid) << 32) | tid;
}
[[nodiscard]] constexpr std::uint32_t track_pid(std::uint64_t track) {
  return static_cast<std::uint32_t>(track >> 32);
}
[[nodiscard]] constexpr std::uint32_t track_tid(std::uint64_t track) {
  return static_cast<std::uint32_t>(track);
}

[[nodiscard]] constexpr std::uint64_t cpu_track(net::NodeId device) {
  return make_track(device, 0);
}
[[nodiscard]] constexpr std::uint64_t notif_track(net::NodeId device) {
  return make_track(device, 1);
}
[[nodiscard]] constexpr std::uint64_t unit_track(const net::UnitId& u) {
  return make_track(u.node, 2u + static_cast<std::uint32_t>(net::unit_slot(u)));
}
[[nodiscard]] constexpr std::uint64_t observer_track() {
  return make_track(kObserverPid, 0);
}
[[nodiscard]] constexpr std::uint64_t poller_track() {
  return make_track(kPollerPid, 0);
}

/// Pack a processing-unit identity into one record argument (and back).
[[nodiscard]] constexpr std::uint64_t pack_unit(const net::UnitId& u) {
  return (static_cast<std::uint64_t>(u.node) << 24) |
         (static_cast<std::uint64_t>(u.port) << 8) |
         static_cast<std::uint64_t>(u.direction);
}
[[nodiscard]] constexpr net::UnitId unpack_unit(std::uint64_t key) {
  net::UnitId u;
  u.node = static_cast<net::NodeId>(key >> 24);
  u.port = static_cast<net::PortId>((key >> 8) & 0xFFFF);
  u.direction = (key & 1) ? net::Direction::Egress : net::Direction::Ingress;
  return u;
}

// --- The recorder -----------------------------------------------------------

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Pre-size the ring and start recording. Idempotent; a second call with
  /// a different capacity resizes (dropping recorded history).
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() { enabled_ = false; }

  [[nodiscard]] bool enabled() const {
#ifdef SPEEDLIGHT_TRACE_DISABLED
    return false;
#else
    return enabled_;
#endif
  }
  /// False when the trace layer was compiled out entirely.
  [[nodiscard]] static constexpr bool compiled_in() {
#ifdef SPEEDLIGHT_TRACE_DISABLED
    return false;
#else
    return true;
#endif
  }

  void instant(Category cat, EventName name, std::uint64_t track,
               sim::SimTime ts, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (!enabled()) return;
    push({ts, 0, a0, a1, track, name, cat});
  }

  /// A span covering [start, start+dur]; recorded when it completes.
  void complete(Category cat, EventName name, std::uint64_t track,
                sim::SimTime start, sim::Duration dur, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0) {
    if (!enabled()) return;
    push({start, dur > 0 ? dur : 1, a0, a1, track, name, cat});
  }

  // --- Ring access (export / reconstruction; not hot) ----------------------
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Records overwritten because the ring was full.
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  void clear();

  /// Visit records oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(head_ + i) % n]);
    }
  }

  // --- Track naming (export metadata; cold path, always available) ----------
  void name_track(std::uint64_t track, std::string name) {
    track_names_[track] = std::move(name);
  }
  void name_process(std::uint32_t pid, std::string name) {
    process_names_[pid] = std::move(name);
  }
  [[nodiscard]] const std::map<std::uint64_t, std::string>& track_names() const {
    return track_names_;
  }
  [[nodiscard]] const std::map<std::uint32_t, std::string>& process_names()
      const {
    return process_names_;
  }

 private:
  void push(const TraceEvent& e) {
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % capacity_;
      ++overwritten_;
    }
  }

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<TraceEvent> ring_;
  std::map<std::uint64_t, std::string> track_names_;
  std::map<std::uint32_t, std::string> process_names_;
};

}  // namespace speedlight::obs
