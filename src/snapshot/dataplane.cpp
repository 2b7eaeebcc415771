#include "snapshot/dataplane.hpp"

#include <cassert>
#include <utility>

#include "sim/determinism.hpp"

namespace speedlight::snap {

DataplaneUnit::DataplaneUnit(net::UnitId id, const SnapshotConfig& config,
                             std::uint16_t num_channels,
                             std::uint16_t cpu_channel, StateReader read_state,
                             ChannelAdd channel_add, NotifySink notify)
    : id_(id),
      config_(config),
      space_(config.sid_space()),
      cpu_channel_(cpu_channel),
      read_state_(std::move(read_state)),
      channel_add_(std::move(channel_add)),
      notify_(std::move(notify)),
      regs_(num_channels, config.slots()),
      oracle_(config.oracle ? config.slots() : 0) {
  assert(cpu_channel < num_channels);
  assert(read_state_ && notify_);
}

void DataplaneUnit::capture_into(SlotValue& s, VirtualSid sid,
                                 sim::SimTime now) {
  s.local_value = read_state_();
  s.channel_value = 0;
  s.wire_sid = space_.to_wire(sid);
  s.initialized = true;
  s.saved_at = now;
  ++captures_;
  if (tracer_) {
    tracer_->instant(obs::Category::SnapshotSm, obs::EventName::SnapCapture,
                     track_, now, sid, obs::pack_unit(id_));
  }
}

// One pipeline pass, written as a token chain: Last Seen -> Snapshot ID ->
// Snapshot Value, each register read-modified-written at most once (the
// Tofino single-stateful-ALU-table constraint; see typestate.hpp). A branch
// that does not touch a register must skip() it to retire the token.
WireSid DataplaneUnit::on_packet(const PacketView& pkt, std::uint16_t channel,
                                 sim::SimTime now) {
  assert(channel < regs_.num_channels());
  // Tell the determinism auditor this event touched this unit's registers:
  // two same-timestamp events both passing through here are order-sensitive.
  sim::det::touch_scope(obs::pack_unit(id_));
  StageToken<0> pass;

  // Packets without a snapshot header (host traffic ahead of the first
  // snapshot-enabled router) cannot move the protocol; the sid table runs
  // as a pure read (identity RMW) to stamp the local id on the way out and
  // the other tables do not match.
  if (!pkt.has_marker) {
    WireSid out = 0;
    auto t = regs_.with_sid(
        pass, [&](VirtualSid& sid) { out = space_.to_wire(sid); });
    retire(regs_.skip<Reg::Value>(regs_.skip<Reg::LastSeen>(std::move(t))));
    return out;
  }

  const bool cs = config_.channel_state;

  // Stage 1 — Last Seen (channel-state variant only). Reconstruct the
  // virtual id from the per-channel reference and advance the reference in
  // the same ALU program. The CPU pseudo-channel always uses serial
  // arithmetic: the paper requires that "duplicate and outdated control
  // plane initiations are ignored by the data plane", and a monotonic
  // unroll would misread a stale initiation as a huge jump. Advancing the
  // reference here, ahead of the sid stage, is invisible: nothing between
  // the two stages reads last_seen.
  VirtualSid v = 0;
  VirtualSid old_ls = 0;
  VirtualSid new_ls = 0;
  bool ls_changed = false;
  auto t_ls = [&] {
    if (!cs) return regs_.skip<Reg::LastSeen>(pass);
    return regs_.with_last_seen(pass, channel, [&](VirtualSid& ls) {
      old_ls = ls;
      v = (channel == cpu_channel_)
              ? space_.unroll_serial(ls, pkt.wire_sid)
              : space_.unroll_monotonic(ls, pkt.wire_sid);
      if (v > ls) {
        ls = v;
        ls_changed = true;
      }
      new_ls = ls;
    });
  }();

  // Stage 2 — Snapshot ID. Without channel state the virtual id is serial
  // arithmetic against the local sid (see ids.hpp), computed inside the RMW
  // from the pre-update value.
  VirtualSid old_sid = 0;
  VirtualSid new_sid = 0;
  auto t_sid = regs_.with_sid(std::move(t_ls), [&](VirtualSid& sid) {
    if (!cs) v = space_.unroll_serial(sid, pkt.wire_sid);
    old_sid = sid;
    if (v > sid) sid = v;
    new_sid = sid;
  });
  const bool advanced = v > old_sid;

  // Stage 3 — Snapshot Value: exactly one of {capture, in-flight booking,
  // no match}. The hardware writes exactly one register slot per packet, so
  // on a jump > 1 the intermediate ids cannot be back-filled (the control
  // plane marks or infers them).
  const bool in_flight = v < old_sid && cs && pkt.counts_for_metrics;
  SlotValue captured;
  std::uint64_t booked = 0;
  auto t_val = [&] {
    if (advanced) {
      return regs_.with_value_slot(std::move(t_sid), v, [&](SlotValue& s) {
        capture_into(s, v, now);
        captured = s;
      });
    }
    if (in_flight) {
      // In-flight packet: sent before snapshot old_sid, received after.
      // Control messages are never treated as in-flight (Section 6). One
      // stateful update only: book into the *current* slot, whose channel
      // state therefore stays exact; contributions to the intermediate
      // snapshots (v+1 .. old_sid-1) are unrecoverable, and the control
      // plane reports every id the sid advanced past before its channel
      // state was final inconsistent.
      return regs_.with_value_slot(std::move(t_sid), old_sid,
                                   [&](SlotValue& s) {
                                     booked = channel_add_(pkt);
                                     s.channel_value += booked;
                                   });
    }
    return regs_.skip<Reg::Value>(std::move(t_sid));
  }();
  retire(std::move(t_val));

  // The Figure 3 oracle does what the hardware cannot: it captures every id
  // the jump passed and books an in-flight packet into every snapshot it
  // missed. Both loops are bounded by the slot count: older slots would be
  // overwritten anyway, and the bound also contains the damage from a
  // corrupt/forged header.
  if (!oracle_.empty()) {
    const VirtualSid slots = oracle_.size();
    if (advanced) {
      const VirtualSid first = v - old_sid > slots ? v - slots + 1 : old_sid + 1;
      for (VirtualSid i = first; i <= v; ++i) {
        SlotValue& o = oracle_[i % slots];
        o = captured;
        o.wire_sid = space_.to_wire(i);
      }
    } else if (in_flight) {
      const VirtualSid first = old_sid - v > slots ? old_sid - slots + 1 : v + 1;
      for (VirtualSid i = first; i <= old_sid; ++i) {
        oracle_[i % slots].channel_value += booked;
      }
    }
  }

  if (advanced) ++advances_;

  if (new_sid != old_sid || ls_changed) {
    Notification n;
    n.unit = id_;
    n.old_sid = space_.to_wire(old_sid);
    n.new_sid = space_.to_wire(new_sid);
    if (cs) {
      n.channel = channel;
      n.old_last_seen = space_.to_wire(old_ls);
      n.new_last_seen = space_.to_wire(new_ls);
    }
    n.timestamp = now;
    ++notifications_;
    if (tracer_) {
      tracer_->instant(obs::Category::SnapshotSm, obs::EventName::SnapNotify,
                       track_, now, new_sid, obs::pack_unit(id_));
    }
    notify_(n);
  }

  return space_.to_wire(new_sid);
}

WireSid DataplaneUnit::on_initiation(WireSid sid, sim::SimTime now) {
  PacketView view;
  view.counts_for_metrics = false;  // never counted, never in-flight
  view.has_marker = true;
  view.wire_sid = sid;
  return on_packet(view, cpu_channel_, now);
}

}  // namespace speedlight::snap
