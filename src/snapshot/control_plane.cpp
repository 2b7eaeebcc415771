#include "snapshot/control_plane.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "snapshot/notification_transport.hpp"

namespace speedlight::snap {

ControlPlane::ControlPlane(sim::Simulator& sim, net::NodeId device,
                           std::string name, const sim::TimingModel& timing,
                           const SnapshotConfig& snapshot, Options options,
                           sim::Rng rng)
    : sim_(sim),
      device_(device),
      name_(std::move(name)),
      timing_(timing),
      snapshot_(snapshot),
      options_(options),
      rng_(rng),
      space_(snapshot.sid_space()),
      report_ep_(sim::Endpoint::local(sim, 0)),
      track_(obs::cpu_track(device)) {}

void ControlPlane::add_unit(UnitHandle* unit, std::vector<bool> completion_mask) {
  if (unit == nullptr) {
    throw std::invalid_argument(name_ + ": add_unit(nullptr)");
  }
  if (completion_mask.size() != unit->num_channels()) {
    throw std::invalid_argument(name_ + ": wrong completion mask length");
  }
  // The CPU pseudo-channel never gates completion (Section 6).
  completion_mask[unit->cpu_channel()] = false;

  UnitState state;
  state.handle = unit;
  state.ctrl_last_seen.assign(unit->num_channels(), 0);
  state.completion_mask = std::move(completion_mask);
  const std::size_t slot = net::unit_slot(unit->unit_id());
  if (slot >= slot_pos_.size()) slot_pos_.resize(slot + 1, kNoUnit);
  slot_pos_[slot] = static_cast<std::uint32_t>(units_.size());
  units_.push_back(std::move(state));
  // The baseline slot exists before the first ship: encoding never
  // allocates (the data-path allocation guard watches it).
  report_enc_.add_unit(unit->unit_id());
}

std::vector<net::UnitId> ControlPlane::unit_ids() const {
  std::vector<net::UnitId> ids;
  ids.reserve(units_.size());
  for (const auto& u : units_) ids.push_back(u.handle->unit_id());
  return ids;
}

void ControlPlane::schedule_snapshot(VirtualSid id, sim::SimTime local_fire_time) {
  // Convert the PTP-aligned local deadline to true time and add the OS
  // scheduling delay between the timer firing and the process running.
  sim::SimTime fire = clock_.true_time_for_local(local_fire_time) +
                      timing_.sample_sched_jitter(rng_);
  if (fire < sim_.now()) fire = sim_.now();
  sim_.at(fire, [this, id]() {
    initiate_now(id);
    arm_reinitiation(id, 0);
  });
}

void ControlPlane::initiate_now(VirtualSid id) {
  latest_initiated_ = std::max(latest_initiated_, id);
  const WireSid wire = space_.to_wire(latest_initiated_);
  sim_.tracer().instant(obs::Category::ControlPlane,
                        obs::EventName::CpInitiate, track_, sim_.now(),
                        latest_initiated_);
  // Sequential dispatch over ingress units: the CPU writes one initiation
  // at a time into the ASIC (Figure 6 path 3).
  sim::Duration offset = 0;
  for (auto& u : units_) {
    if (!u.handle->is_ingress()) continue;
    offset += timing_.initiation_dispatch_per_port;
    UnitHandle* handle = u.handle;
    sim_.after(offset, [handle, wire]() { handle->inject_initiation(wire); });
    ++initiations_sent_;
  }
  if (snapshot_.channel_state && options_.probe_on_initiate) {
    // Probes follow the initiations, picking up the freshly advanced ids
    // and flooding them across every channel.
    for (auto& u : units_) {
      if (!u.handle->is_ingress()) continue;
      offset += timing_.initiation_dispatch_per_port;
      UnitHandle* handle = u.handle;
      sim_.after(offset, [handle]() { handle->inject_probe(); });
    }
  }
}

void ControlPlane::arm_reinitiation(VirtualSid id, int attempt) {
  sim_.after(timing_.reinitiation_timeout, [this, id, attempt]() {
    if (locally_complete(id)) return;
    if (attempt >= kMaxReinitiations) return;
    ++reinit_rounds_;
    sim_.tracer().instant(obs::Category::ControlPlane,
                          obs::EventName::CpReinitiate, track_, sim_.now(),
                          latest_initiated_);
    // Always resend the *latest* initiated id: per-channel ids must stay
    // monotonic, and advancing a lagging unit past `id` resolves `id` too
    // (by marking or inference).
    initiate_now(latest_initiated_);
    if (snapshot_.channel_state && options_.probe_on_reinitiate) {
      for (auto& u : units_) {
        if (u.handle->is_ingress()) u.handle->inject_probe();
      }
    }
    arm_reinitiation(id, attempt + 1);
  });
}

bool ControlPlane::locally_complete(VirtualSid id) const {
  return std::all_of(units_.begin(), units_.end(),
                     [id](const UnitState& u) { return u.last_read >= id; });
}

void ControlPlane::on_notification(const Notification& n) {
  const std::size_t slot = net::unit_slot(n.unit);
  if (n.unit.node != device_ || slot >= slot_pos_.size() ||
      slot_pos_[slot] == kNoUnit) {
    return;
  }
  if (snapshot_.channel_state) {
    handle_notification_cs(slot_pos_[slot], n);
  } else {
    handle_notification_nocs(slot_pos_[slot], n);
  }
}

VirtualSid ControlPlane::completion_floor(const UnitState& u) const {
  VirtualSid floor = u.ctrl_sid;
  for (std::size_t ch = 0; ch < u.ctrl_last_seen.size(); ++ch) {
    if (!u.completion_mask[ch]) continue;
    floor = std::min(floor, u.ctrl_last_seen[ch]);
  }
  return floor;
}

void ControlPlane::UnitState::advance(VirtualSid to, sim::SimTime at) {
  advances.push_back({to, at});
  ctrl_sid = to;
}

sim::SimTime ControlPlane::UnitState::advance_time(VirtualSid sid) const {
  // Every id in (last_read, ctrl_sid] has an entry reaching it: the newest
  // entry reaches ctrl_sid, and trims drop only entries at or below a floor
  // that has been read.
  const auto it =
      std::find_if(advances.begin(), advances.end(),
                   [sid](const Advance& a) { return a.through >= sid; });
  assert(it != advances.end());
  return it->at;
}

void ControlPlane::UnitState::trim_advances(VirtualSid floor) {
  const auto keep =
      std::find_if(advances.begin(), advances.end(),
                   [floor](const Advance& a) { return a.through > floor; });
  advances.erase(advances.begin(), keep);
}

void ControlPlane::handle_notification_cs(std::size_t pos,
                                          const Notification& n) {
  UnitState& u = units_[pos];
  // Figure 7, OnNotifyCS. Wire values are unrolled against the controller's
  // own (monotonic) view; notifications arrive in order per unit.
  const VirtualSid current = space_.unroll_monotonic(u.ctrl_sid, n.new_sid);
  sim_.tracer().instant(obs::Category::ControlPlane, obs::EventName::CpProcess,
                        track_, sim_.now(), current,
                        obs::pack_unit(n.unit));
  if (current != u.ctrl_sid) u.advance(current, n.timestamp);
  if (n.channel != kNoChannel && n.channel < u.ctrl_last_seen.size()) {
    const VirtualSid ls =
        space_.unroll_monotonic(u.ctrl_last_seen[n.channel], n.new_last_seen);
    u.ctrl_last_seen[n.channel] = std::max(u.ctrl_last_seen[n.channel], ls);
  }
  advance_reads(pos, n.timestamp);
}

void ControlPlane::handle_notification_nocs(std::size_t pos,
                                            const Notification& n) {
  UnitState& u = units_[pos];
  // Figure 7, OnNotifyNoCS: without channel state, a unit is finished the
  // moment its id advances; skipped ids are inferred from the next valid
  // value (lines 19-21).
  const VirtualSid current = space_.unroll_monotonic(u.ctrl_sid, n.new_sid);
  sim_.tracer().instant(obs::Category::ControlPlane, obs::EventName::CpProcess,
                        track_, sim_.now(), current,
                        obs::pack_unit(n.unit));
  if (current == u.ctrl_sid) return;
  u.advance(current, n.timestamp);
  advance_reads(pos, n.timestamp);
}

void ControlPlane::advance_reads(std::size_t pos, sim::SimTime finalize_ts) {
  UnitState& u = units_[pos];
  const VirtualSid floor =
      snapshot_.channel_state ? completion_floor(u) : u.ctrl_sid;
  if (floor <= u.last_read) return;
  const VirtualSid from = u.last_read + 1;
  u.last_read = floor;

  if (snapshot_.channel_state) {
    // Figure 7 marks every id the unit advanced past before its channel
    // state was final: in-flight packets for it are booked into a later
    // id. Every notification ends here with last_read >= the completion
    // floor, so the marked ids are exactly (last_read, ctrl_sid), and an
    // id read now is inconsistent if and only if it is below ctrl_sid.
    for (VirtualSid i = from; i <= floor; ++i) {
      if (i < u.ctrl_sid) {
        report_inconsistent(pos, i);
      } else {
        read_and_report(pos, i, finalize_ts);
      }
    }
    u.trim_advances(floor);
  } else {
    // Batched register read, then the downward value-inference walk. The
    // unit is captured by position: units_ may reallocate if units are added
    // after wiring (it is not, but cheap insurance).
    sim_.after(timing_.register_read_latency, [this, pos, from, floor,
                                               finalize_ts]() {
      UnitState* up = &units_[pos];
      const std::size_t slots = snapshot_.slots();
      std::vector<SlotValue> values;
      values.reserve(static_cast<std::size_t>(floor - from + 1));
      for (VirtualSid i = from; i <= floor; ++i) {
        values.push_back(up->handle->read_value_slot(i % slots));
      }
      // Walk downward: skipped slots inherit the next valid value.
      std::uint64_t valid_value = 0;
      bool have_valid = false;
      std::vector<UnitReport> reports(values.size());
      for (VirtualSid i = floor; i >= from; --i) {
        const std::size_t idx = static_cast<std::size_t>(i - from);
        const SlotValue& sv = values[idx];
        const bool fresh = sv.initialized && sv.wire_sid == space_.to_wire(i);
        UnitReport r;
        r.device = device_;
        r.unit = up->handle->unit_id();
        r.sid = i;
        if (fresh) {
          valid_value = sv.local_value;
          have_valid = true;
          r.local_value = sv.local_value;
          r.advance_time = sv.saved_at;
        } else if (have_valid) {
          r.local_value = valid_value;
          r.inferred = true;
          r.advance_time = up->advance_time(i);
        } else {
          r.consistent = false;  // No valid reference: conservative.
        }
        r.finalize_time =
            r.advance_time != 0 ? r.advance_time : finalize_ts;
        reports[idx] = r;
        if (i == from) break;  // VirtualSid is unsigned.
      }
      for (const auto& r : reports) ship(r, pos);
      up->trim_advances(floor);
    });
  }
}

void ControlPlane::read_and_report(std::size_t pos, VirtualSid sid,
                                   sim::SimTime finalize_ts) {
  const sim::SimTime advance_ts = units_[pos].advance_time(sid);
  sim_.after(timing_.register_read_latency, [this, pos, sid, advance_ts,
                                             finalize_ts]() {
    const UnitState* up = &units_[pos];
    const SlotValue sv =
        up->handle->read_value_slot(sid % snapshot_.slots());
    UnitReport r;
    r.device = device_;
    r.unit = up->handle->unit_id();
    r.sid = sid;
    const bool fresh = sv.initialized && sv.wire_sid == space_.to_wire(sid);
    if (!fresh) {
      r.consistent = false;
    } else {
      r.local_value = sv.local_value;
      r.channel_value = sv.channel_value;
    }
    r.advance_time = advance_ts;
    r.finalize_time = finalize_ts;
    ship(r, pos);
  });
}

void ControlPlane::report_inconsistent(std::size_t pos, VirtualSid sid) {
  const UnitState& u = units_[pos];
  UnitReport r;
  r.device = device_;
  r.unit = u.handle->unit_id();
  r.sid = sid;
  r.consistent = false;
  r.advance_time = u.advance_time(sid);
  r.finalize_time = sim_.now();
  ship(r, pos);
}

void ControlPlane::set_report_link(void* ctx, ReportFrameFn fn,
                                   std::uint16_t dev_index,
                                   const WireOptions& opts, WireStats* stats) {
  frame_ctx_ = ctx;
  frame_fn_ = fn;
  frame_dev_index_ = dev_index;
  report_enc_.configure(opts, timing_.observer_rpc_latency, stats);
}

void ControlPlane::set_report_scope(std::vector<bool> relevant) {
  scope_ = std::move(relevant);
  // Membership changes are keyframe events: the observer's decoder may have
  // lost delta chains for units that just (re)entered the scope.
  report_enc_.force_keyframes();
}

void ControlPlane::on_observer_session(std::uint8_t session) {
  report_enc_.begin_session(session);
}

void ControlPlane::ship(const UnitReport& r, std::size_t pos) {
  if (!scope_.empty() && (pos >= scope_.size() || !scope_[pos])) {
    // Outside the observer's sync group: never crosses the report RPC.
    ++reports_filtered_;
    return;
  }
  ++reports_sent_;
  sim_.tracer().instant(obs::Category::ControlPlane, obs::EventName::CpReport,
                        track_, sim_.now(), r.sid, obs::pack_unit(r.unit));
  if (frame_fn_ == nullptr) return;
  // Encode here (the encoder is stateful per link), ship bytes. The closure
  // is sized to the inline event capture: fn(8) + ctx(8) + dev(2) + len(1)
  // + frame(45) = 64 bytes.
  struct Shipment {
    ReportFrameFn fn;
    void* ctx;
    std::uint16_t dev;
    std::uint8_t len;
    std::array<std::uint8_t, kMaxReportFrameBytes> bytes;
    void operator()() const { fn(ctx, dev, bytes.data(), len); }
  };
  Shipment s;
  s.fn = frame_fn_;
  s.ctx = frame_ctx_;
  s.dev = frame_dev_index_;
  s.len = static_cast<std::uint8_t>(
      report_enc_.encode(r, sim_.now(), s.bytes.data()));
  report_ep_.post(sim_.now() + timing_.observer_rpc_latency, s);
}

void ControlPlane::start_register_poll() {
  if (poll_running_ || !options_.proactive_register_poll) return;
  poll_running_ = true;
  sim_.after(kRegisterPollInterval, [this]() { register_poll_tick(); });
}

void ControlPlane::register_poll_tick() {
  // Poll only while the notification path is quiet. In-flight notifications
  // carry older register values than a direct read; fast-forwarding the
  // controller view past them would make their wire sids unroll as huge
  // forward jumps when they drain (the wire space cannot express "behind").
  // A lost notification leaves the path quiet, so recovery still triggers.
  if (transport_ != nullptr && transport_->in_flight() > 0) {
    sim_.after(kRegisterPollInterval, [this]() { register_poll_tick(); });
    return;
  }
  for (auto& u : units_) {
    // Synthesize notifications for any progress the CPU missed.
    const WireSid sid_reg = u.handle->read_sid_register();
    const VirtualSid sid_now = space_.unroll_monotonic(u.ctrl_sid, sid_reg);
    if (sid_now != u.ctrl_sid) {
      Notification n;
      n.unit = u.handle->unit_id();
      n.old_sid = space_.to_wire(u.ctrl_sid);
      n.new_sid = sid_reg;
      n.timestamp = sim_.now();
      on_notification(n);
    }
    if (snapshot_.channel_state) {
      for (std::uint16_t ch = 0; ch < u.handle->num_channels(); ++ch) {
        const WireSid ls_reg = u.handle->read_last_seen_register(ch);
        const VirtualSid ls_now =
            space_.unroll_monotonic(u.ctrl_last_seen[ch], ls_reg);
        if (ls_now != u.ctrl_last_seen[ch]) {
          Notification n;
          n.unit = u.handle->unit_id();
          n.old_sid = n.new_sid = u.handle->read_sid_register();
          n.channel = ch;
          n.old_last_seen = space_.to_wire(u.ctrl_last_seen[ch]);
          n.new_last_seen = ls_reg;
          n.timestamp = sim_.now();
          on_notification(n);
        }
      }
    }
  }
  sim_.after(kRegisterPollInterval, [this]() { register_poll_tick(); });
}

}  // namespace speedlight::snap
