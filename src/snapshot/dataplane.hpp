// The per-processing-unit snapshot state machine (Figures 3, 4, 5).
//
// This is a pure state machine: it knows nothing about switches, queues, or
// the simulator. The embedding processing unit calls on_packet()/
// on_initiation() at the moment the packet traverses the unit's pipeline
// and provides callbacks for reading the target state and emitting
// notifications.
//
// Two operating modes:
//  * hardware_faithful (Speedlight): on an id jump > 1 the intermediate
//    snapshot slots cannot be back-filled at line rate; the local value is
//    saved only for the new id and in-flight packets are booked only into
//    the *current* slot. The control plane (Figure 7) marks the skipped ids
//    inconsistent (channel-state variant) or infers their values
//    (no-channel-state variant).
//  * idealized (Figure 3 verbatim): loops over intermediate ids, used as
//    the oracle in property tests.
//
// Register discipline: the stateful registers live in a RegisterFile whose
// only mutating access is through StageToken-gated accessors (one RMW per
// register per pass — see typestate.hpp). on_packet() is written as a
// token-threaded pass, so a second RMW of the same register is a compile
// error, mirroring the Tofino single-stateful-ALU-table constraint the
// paper's proof sketch depends on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "obs/trace.hpp"
#include "sim/determinism.hpp"
#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"
#include "snapshot/config.hpp"
#include "snapshot/ids.hpp"
#include "snapshot/notification.hpp"
#include "snapshot/typestate.hpp"

namespace speedlight::snap {

/// What the snapshot logic needs to know about a traversing packet.
struct PacketView {
  std::uint64_t packet_id = 0;
  std::uint32_t size_bytes = 0;
  /// False for initiations/probes: excluded from channel state.
  bool counts_for_metrics = true;
  /// False when the packet carries no snapshot header (host traffic before
  /// the first snapshot-enabled router): it cannot move the protocol.
  bool has_marker = true;
  WireSid wire_sid = 0;
};

/// One entry of the Snapshot Value register array.
struct SlotValue {
  std::uint64_t local_value = 0;
  std::uint64_t channel_value = 0;
  WireSid wire_sid = 0;
  bool initialized = false;
  /// Audit only: true time the local value was saved.
  sim::SimTime saved_at = 0;
};

/// The unit's stateful registers. Mutation is possible only through the
/// token-gated accessors below: each consumes a StageToken in which the
/// register's bit is clear and mints the advanced token, so one pipeline
/// pass statically admits at most one read-modify-write per register.
/// Const reads model the control plane's PCIe register reads, which happen
/// outside any pipeline pass.
///
/// The Snapshot Value array has `slots` entries indexed by `vsid % slots`,
/// but only the prefix up to the highest slot written is stored: an unwritten
/// slot reads as SlotValue{}, exactly what a zeroed register returns. Ids are
/// written in order, so a unit that has captured ids 1..n stores fewer than
/// 2(n + 1) slots, not all of them.
class RegisterFile {
 public:
  RegisterFile(std::uint16_t num_channels, std::size_t slots)
      : last_seen_(num_channels, 0), num_slots_(slots) {}

  // --- Token-gated pass access -------------------------------------------
  /// Snapshot ID register: `f(VirtualSid&)` is the stateful-ALU program.
  template <unsigned M, typename F>
    requires CanAccess<StageToken<M>, Reg::Sid>
  [[nodiscard]] AfterAccess<M, Reg::Sid> with_sid(StageToken<M>, F&& f) {
    f(sid_);
    return {};
  }

  /// Last Seen reference for one channel (channel-state variant).
  template <unsigned M, typename F>
    requires CanAccess<StageToken<M>, Reg::LastSeen>
  [[nodiscard]] AfterAccess<M, Reg::LastSeen> with_last_seen(StageToken<M>,
                                                             std::uint16_t ch,
                                                             F&& f) {
    f(last_seen_[ch]);
    return {};
  }

  /// Snapshot Value array, hardware-faithful: exactly one slot RMW.
  template <unsigned M, typename F>
    requires CanAccess<StageToken<M>, Reg::Value>
  [[nodiscard]] AfterAccess<M, Reg::Value> with_value_slot(StageToken<M>,
                                                           VirtualSid vsid,
                                                           F&& f) {
    const std::size_t index = vsid % num_slots_;
    if (index >= slots_.size()) store_through(index);
    f(slots_[index]);
    return {};
  }

  /// Snapshot Value array, idealized Figure-3 oracle ONLY: hands out the
  /// whole array so intermediate ids can be back-filled. No hardware can do
  /// this at line rate; the loud name keeps it out of faithful paths.
  template <unsigned M, typename F>
    requires CanAccess<StageToken<M>, Reg::Value>
  [[nodiscard]] AfterAccess<M, Reg::Value> with_value_array_oracle(
      StageToken<M>, F&& f) {
    if (slots_.size() < num_slots_) store_through(num_slots_ - 1);
    f(slots_);
    return {};
  }

  /// Account for a register the pass does not touch (the matching table is
  /// not executed for this packet). Advances the token without access.
  template <Reg R, unsigned M>
    requires CanAccess<StageToken<M>, R>
  [[nodiscard]] AfterAccess<M, R> skip(StageToken<M>) {
    return {};
  }

  // --- Control-plane / audit reads (outside any pass) --------------------
  [[nodiscard]] VirtualSid sid() const { return sid_; }
  [[nodiscard]] VirtualSid last_seen(std::uint16_t ch) const {
    return last_seen_[ch];
  }
  [[nodiscard]] const SlotValue& slot(std::size_t index) const {
    index %= num_slots_;
    return index < slots_.size() ? slots_[index] : kUnwritten;
  }
  [[nodiscard]] std::size_t num_slots() const { return num_slots_; }
  [[nodiscard]] std::uint16_t num_channels() const {
    return static_cast<std::uint16_t>(last_seen_.size());
  }
  /// Bytes the Snapshot Value array holds: grows with the slots written.
  [[nodiscard]] std::size_t value_bytes() const {
    return slots_.capacity() * sizeof(SlotValue);
  }

 private:
  static constexpr SlotValue kUnwritten{};

  /// Cold path: extend the stored prefix through slot `index`, at least
  /// doubling it (capped at the configured slot count). Amortized growth,
  /// DetAllow-exempted like FifoQueue::grow.
  void store_through(std::size_t index) {
    sim::det::DetAllow allow_value_array_growth;  // Amortized, see above.
    // speedlight-lint: allow(datapath-alloc) amortized array growth, above.
    slots_.resize(std::min(num_slots_, std::max(index + 1, 2 * slots_.size())));
  }

  VirtualSid sid_ = 0;
  std::vector<VirtualSid> last_seen_;
  std::size_t num_slots_;
  std::vector<SlotValue> slots_;  ///< Slots [0, size()); the rest unwritten.
};

class DataplaneUnit {
 public:
  /// Reads the target local state (the metric being snapshotted). Inline
  /// storage: these run on the per-packet path, so no std::function.
  using StateReader = sim::InplaceFunction<std::uint64_t()>;
  /// Contribution of one in-flight packet to channel state (e.g. 1 for
  /// packet counts, size for byte counts, 0 for gauges).
  using ChannelAdd = sim::InplaceFunction<std::uint64_t(const PacketView&)>;
  /// Emits a notification towards the CPU.
  using NotifySink = sim::InplaceFunction<void(const Notification&)>;

  /// `num_channels` includes the CPU pseudo-channel at `cpu_channel`.
  DataplaneUnit(net::UnitId id, const SnapshotConfig& config,
                std::uint16_t num_channels, std::uint16_t cpu_channel,
                StateReader read_state, ChannelAdd channel_add,
                NotifySink notify);

  DataplaneUnit(const DataplaneUnit&) = delete;
  DataplaneUnit& operator=(const DataplaneUnit&) = delete;

  /// Process a packet arriving on `channel` at time `now`; returns the wire
  /// sid to stamp into the departing packet's header.
  WireSid on_packet(const PacketView& pkt, std::uint16_t channel,
                    sim::SimTime now);

  /// Process a control-plane initiation for wire id `sid` (Figure 6 path 3).
  /// Equivalent to a marker-only packet on the CPU channel.
  WireSid on_initiation(WireSid sid, sim::SimTime now);

  // --- Register access (used by the control plane / tests) -----------------
  [[nodiscard]] const SlotValue& read_slot(std::size_t index) const {
    return regs_.slot(index);
  }
  [[nodiscard]] std::size_t num_slots() const { return regs_.num_slots(); }
  /// Bytes held by the Snapshot Value array (only the slots written so far).
  [[nodiscard]] std::size_t value_bytes() const { return regs_.value_bytes(); }
  [[nodiscard]] WireSid sid_register() const {
    return space_.to_wire(regs_.sid());
  }
  [[nodiscard]] WireSid last_seen_register(std::uint16_t channel) const {
    return space_.to_wire(regs_.last_seen(channel));
  }
  [[nodiscard]] std::uint16_t num_channels() const {
    return regs_.num_channels();
  }
  [[nodiscard]] std::uint16_t cpu_channel() const { return cpu_channel_; }

  // --- Audit access (tests only; a real ASIC exposes wire values only) ----
  [[nodiscard]] VirtualSid virtual_sid() const { return regs_.sid(); }
  [[nodiscard]] VirtualSid virtual_last_seen(std::uint16_t channel) const {
    return regs_.last_seen(channel);
  }
  [[nodiscard]] net::UnitId id() const { return id_; }
  [[nodiscard]] const SnapshotConfig& config() const { return config_; }

  // --- Observability -------------------------------------------------------
  // The unit is a pure state machine with no simulator reference, so the
  // embedding switch attaches the flight recorder after construction.
  void attach_observability(obs::Tracer* tracer) {
    tracer_ = tracer;
    track_ = obs::unit_track(id_);
  }
  /// Snapshot-id advances observed by this unit (sid register moved forward).
  [[nodiscard]] std::uint64_t advances() const { return advances_; }
  /// Local-state captures written into the register array.
  [[nodiscard]] std::uint64_t captures() const { return captures_; }
  /// Notifications emitted towards the CPU.
  [[nodiscard]] std::uint64_t notifications_sent() const {
    return notifications_;
  }

 private:
  /// The capture program of the value-array stateful ALU: save the local
  /// state for snapshot `sid` into slot `s`.
  void capture_into(SlotValue& s, VirtualSid sid, sim::SimTime now);

  net::UnitId id_;
  SnapshotConfig config_;
  SidSpace space_;
  std::uint16_t cpu_channel_;

  StateReader read_state_;
  ChannelAdd channel_add_;
  NotifySink notify_;

  RegisterFile regs_;

  obs::Tracer* tracer_ = nullptr;  // null until attach_observability()
  std::uint64_t track_ = 0;
  std::uint64_t advances_ = 0;
  std::uint64_t captures_ = 0;
  std::uint64_t notifications_ = 0;
};

}  // namespace speedlight::snap
