#include "snapshot/observer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace speedlight::snap {

namespace {
/// Fold a nonzero timestamp into a (min, max) pair where 0 means "empty".
void fold_extrema(sim::SimTime t, sim::SimTime& lo, sim::SimTime& hi) {
  if (t == 0) return;  // Never recorded (e.g. inconsistent report).
  if (lo == 0 || t < lo) lo = t;
  if (hi == 0 || t > hi) hi = t;
}
}  // namespace

void DeviceDigest::fold(const UnitReport& r) {
  ++received;
  if (r.consistent) {
    ++consistent;
    local_sum += r.local_value;
    channel_sum += r.channel_value;
  }
  fold_extrema(r.advance_time, advance_min, advance_max);
  fold_extrema(r.finalize_time, finalize_min, finalize_max);
}

bool GlobalSnapshot::all_consistent() const {
  return consistent_count() == received_total;
}

std::size_t GlobalSnapshot::consistent_count() const {
  std::size_t n = 0;
  for (const auto& shard : digests) {
    for (const auto& [device, d] : shard) {
      (void)device;
      n += d.consistent;
    }
  }
  return n;
}

namespace {
sim::Duration span_of(const GlobalSnapshot& snap,
                      sim::SimTime DeviceDigest::* lo_field,
                      sim::SimTime DeviceDigest::* hi_field) {
  sim::SimTime lo = 0;
  sim::SimTime hi = 0;
  for (const auto& shard : snap.digests) {
    for (const auto& [device, d] : shard) {
      (void)device;
      fold_extrema(d.*lo_field, lo, hi);
      fold_extrema(d.*hi_field, lo, hi);
    }
  }
  return hi - lo;  // Both zero when nothing was recorded.
}
}  // namespace

sim::Duration GlobalSnapshot::advance_span() const {
  return span_of(*this, &DeviceDigest::advance_min, &DeviceDigest::advance_max);
}

sim::Duration GlobalSnapshot::finalize_span() const {
  return span_of(*this, &DeviceDigest::finalize_min,
                 &DeviceDigest::finalize_max);
}

sim::SimTime GlobalSnapshot::latest_advance() const {
  sim::SimTime latest = 0;
  for (const auto& shard : digests) {
    for (const auto& [device, d] : shard) {
      (void)device;
      latest = std::max(latest, d.advance_max);
    }
  }
  return latest;
}

std::uint64_t GlobalSnapshot::total_value(bool include_channel) const {
  std::uint64_t total = 0;
  for (const auto& shard : digests) {
    for (const auto& [device, d] : shard) {
      (void)device;
      total += d.local_sum;
      if (include_channel) total += d.channel_sum;
    }
  }
  return total;
}

Observer::Observer(sim::Simulator& sim, const sim::TimingModel& timing,
                   Options options)
    : sim_(sim),
      timing_(timing),
      options_(std::move(options)),
      space_(options_.snapshot.sid_space()) {
  using obs::MetricKind;
  auto& reg = sim_.metrics();
  reg.register_reader("observer.requested", MetricKind::Counter, [this] {
    return std::uint64_t{requested_count()};
  });
  reg.register_reader("observer.completed", MetricKind::Counter,
                      [this] { return std::uint64_t{completed_}; });
  reg.register_reader("observer.devices", MetricKind::Gauge,
                      [this] { return std::uint64_t{devices_.size()}; });
  reg.register_reader("observer.units", MetricKind::Gauge,
                      [this] { return std::uint64_t{total_units_}; });
  reg.register_reader("observer.reports_dropped_down", MetricKind::Counter,
                      [this] { return reports_dropped_while_down_; });
  completion_latency_ = &reg.histogram("observer.completion_latency_ns");
}

void Observer::report_frame_thunk(void* ctx, std::uint16_t dev_index,
                                  const std::uint8_t* bytes,
                                  std::uint8_t len) {
  static_cast<Observer*>(ctx)->on_report_frame(dev_index, {bytes, len});
}

void Observer::register_device(ControlPlane* cp, sim::Endpoint rpc) {
  Device dev;
  dev.cp = cp;
  dev.units = cp->unit_ids();
  dev.rpc = rpc.wired() ? rpc : sim::Endpoint::local(sim_, 0);
  dev.first_slot = total_slots_;
  dev.relevant_units = dev.units.size();
  const auto dev_index = static_cast<std::uint16_t>(devices_.size());
  dev.decoder.configure(options_.wire, cp->device(), options_.wire_stats);
  std::size_t slots = 0;
  for (const auto& u : dev.units) {
    slots = std::max(slots, net::unit_slot(u) + 1);
    dev.decoder.add_unit(u);
  }
  total_units_ += dev.units.size();
  total_slots_ += slots;
  dev.decoder.begin_session(session_);
  cp->set_report_link(this, &Observer::report_frame_thunk, dev_index,
                      options_.wire, options_.wire_stats);
  devices_.push_back(std::move(dev));
}

std::optional<VirtualSid> Observer::request_snapshot(sim::SimTime when) {
  // Out-of-band rollover enforcement (Section 5.3): never let the live id
  // spread exceed what the wire id space can disambiguate. The spread runs
  // from the oldest incomplete round to the id this request would take.
  if (rounds_.size() - oldest_incomplete_ >=
      space_.max_spread(options_.snapshot.channel_state)) {
    return std::nullopt;
  }
  const VirtualSid id = rounds_.size() + 1;

  GlobalSnapshot& snap = rounds_.emplace_back();
  snap.id = id;
  snap.scheduled_at = when;
  snap.seen.assign(total_slots_, false);
  // Pin the device set (and the sync-group membership): late-attached
  // devices are not part of this snapshot (Section 6, "Node attachment").
  auto& digests = snap.digests.emplace_back();
  for (const Device& dev : devices_) {
    snap.expected_devices[dev.cp->device()] = dev.relevant_units;
    DeviceDigest d;
    d.expected = dev.relevant_units;
    digests.emplace(dev.cp->device(), d);
    snap.expected_total += dev.relevant_units;
  }

  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsRequest,
                        obs::observer_track(), sim_.now(), id);

  // Register the event with every device control plane (one RPC each).
  for (auto& dev : devices_) {
    ControlPlane* cp = dev.cp;
    dev.rpc.post(sim_.now() + timing_.observer_rpc_latency,
                 [cp, id, when]() { cp->schedule_snapshot(id, when); });
  }
  const sim::SimTime deadline = when + options_.completion_timeout;
  sim_.at(deadline, [this, id]() { timeout_snapshot(id); });
  return id;
}

void Observer::set_scope(const std::function<bool(const net::UnitId&)>& pred) {
  if (oldest_incomplete_ < rounds_.size()) {
    throw std::logic_error("set_scope while snapshot " +
                           std::to_string(oldest_incomplete_ + 1) +
                           " is incomplete");
  }
  if (pred) {
    relevant_.assign(total_slots_, true);
  } else {
    relevant_.clear();
  }
  for (auto& dev : devices_) {
    std::vector<bool> mask;
    if (pred) {
      mask.assign(dev.units.size(), true);
      std::size_t count = 0;
      for (std::size_t i = 0; i < dev.units.size(); ++i) {
        const bool rel = pred(dev.units[i]);
        mask[i] = rel;
        relevant_[dev.first_slot + net::unit_slot(dev.units[i])] = rel;
        count += rel ? 1 : 0;
      }
      dev.relevant_units = count;
    } else {
      dev.relevant_units = dev.units.size();
    }
    // The mask rides the same keyed channel as snapshot requests, so any
    // request made after this call is ordered behind it on every device.
    ControlPlane* cp = dev.cp;
    dev.rpc.post(sim_.now() + timing_.observer_rpc_latency,
                 [cp, mask]() { cp->set_report_scope(mask); });
  }
}

void Observer::set_down(bool down) {
  if (down_ && !down) {
    // Restart: new wire session. The report-link decoders come back empty;
    // every control plane is told to adopt the session and re-keyframe.
    // In-flight frames from the old session are self-identifying and get
    // dropped at decode — under every encoding alike.
    ++session_;
    for (auto& dev : devices_) {
      dev.decoder.begin_session(session_);
      dev.rpc.post(
          sim_.now() + timing_.observer_rpc_latency,
          [cp = dev.cp, s = session_]() { cp->on_observer_session(s); });
    }
  }
  down_ = down;
}

void Observer::on_report_frame(std::uint16_t dev_index,
                               std::span<const std::uint8_t> bytes) {
  if (down_) {
    // Dead socket: the frame is lost before it reaches the decoder, so the
    // delta chain breaks — the restart session bump re-keyframes it.
    ++reports_dropped_while_down_;
    return;
  }
  if (dev_index >= devices_.size()) return;
  Device& dev = devices_[dev_index];
  const auto r = dev.decoder.decode(bytes, sim_.now());
  if (!r) return;  // Stale session / malformed; counted by the decoder.
  on_report(dev, *r);
}

void Observer::on_report(const Device& dev, const UnitReport& r) {
  // The decoder only yields units of its own link's registered span.
  const std::size_t bit = dev.first_slot + net::unit_slot(r.unit);
  if (!relevant_.empty() && (bit >= relevant_.size() || !relevant_[bit])) {
    return;  // Outside the sync group (control plane restarted mid-change).
  }
  if (r.sid == 0 || r.sid > rounds_.size()) {
    return;  // Spurious (e.g. newly attached node).
  }
  GlobalSnapshot& snap = rounds_[r.sid - 1];
  if (snap.complete) return;  // Device timed out; drop stragglers.
  auto& digests = snap.digests.front();
  const auto dd = digests.find(r.device);
  if (dd == digests.end()) {
    // Attached after this snapshot was requested, or excluded: spurious.
    return;
  }
  if (bit >= snap.seen.size() || snap.seen[bit]) {
    return;  // Duplicate delivery keeps the first copy.
  }
  snap.seen[bit] = true;
  dd->second.fold(r);
  ++snap.received_total;
  if (options_.retain_unit_reports) snap.reports.emplace(r.unit, r);
  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsCollect,
                        obs::observer_track(), sim_.now(), r.sid,
                        obs::pack_unit(r.unit));
  check_complete(snap);
}

void Observer::check_complete(GlobalSnapshot& snap) {
  if (snap.complete || snap.received_total < snap.expected_total) return;

  snap.complete = true;
  snap.completed_at = sim_.now();
  // The digests are the round's record now; the dedup bitset is dead weight.
  std::vector<bool>().swap(snap.seen);
  ++completed_;
  // Rounds can complete out of order (a timeout closes an older one late):
  // step past every complete round, not just this one.
  while (oldest_incomplete_ < rounds_.size() &&
         rounds_[oldest_incomplete_].complete) {
    ++oldest_incomplete_;
  }
  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsComplete,
                        obs::observer_track(), sim_.now(), snap.id,
                        snap.received_total);
  if (completion_latency_ && snap.completed_at >= snap.scheduled_at) {
    completion_latency_->record(
        static_cast<std::uint64_t>(snap.completed_at - snap.scheduled_at));
  }
  if (on_complete_) on_complete_(snap);
}

void Observer::timeout_snapshot(VirtualSid id) {
  GlobalSnapshot& snap = rounds_[id - 1];
  if (snap.complete) return;

  // Exclude every expected device that has not delivered all its units:
  // its digest (and any retained partial reports) leave the snapshot.
  auto& digests = snap.digests.front();
  for (const auto& dev : devices_) {
    const auto dd = digests.find(dev.cp->device());
    if (dd == digests.end()) continue;  // Not part of this snapshot.
    if (dd->second.received >= dd->second.expected) continue;
    snap.excluded_devices.push_back(dev.cp->device());
    snap.expected_total -= dd->second.expected;
    snap.received_total -= dd->second.received;
    digests.erase(dd);
    if (options_.retain_unit_reports) {
      for (const auto& u : dev.units) snap.reports.erase(u);
    }
  }
  check_complete(snap);
}

const GlobalSnapshot* Observer::result(VirtualSid id) const {
  if (id == 0 || id > rounds_.size()) return nullptr;
  return &rounds_[id - 1];
}

}  // namespace speedlight::snap
