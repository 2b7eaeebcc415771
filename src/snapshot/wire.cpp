#include "snapshot/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace speedlight::snap {

namespace {

using net::get_varint;
using net::put_varint;
using net::recover_truncated;
using net::varint_len;
using net::zigzag_decode;
using net::zigzag_encode;

// Little-endian fixed-width fields.
void put_fixed(std::uint64_t v, std::uint8_t* out, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_fixed(const std::uint8_t* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

/// A cursor over an incoming frame; every read checks bounds so malformed
/// frames decode to nullopt instead of reading past the buffer.
struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > in.size()) {
      ok = false;
      return 0;
    }
    return in[pos++];
  }
  std::uint64_t fixed(std::size_t bytes) {
    if (pos + bytes > in.size()) {
      ok = false;
      return 0;
    }
    const std::uint64_t v = get_fixed(in.data() + pos, bytes);
    pos += bytes;
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    const std::size_t n = get_varint(in.subspan(pos), &v);
    if (n == 0) {
      ok = false;
      return 0;
    }
    pos += n;
    return v;
  }
};

// Notification flag bits (shared byte 0).
constexpr std::uint8_t kNfDirEgress = 1u << 0;
constexpr std::uint8_t kNfSidAdvanced = 1u << 1;
constexpr std::uint8_t kNfHasLastSeen = 1u << 2;
constexpr std::uint8_t kNfTsFull = 1u << 3;
constexpr unsigned kNfSidCodeShift = 4;  // bits 4-5: 0 = escape, 1..3 = delta
constexpr unsigned kNfLsCodeShift = 6;   // bits 6-7: 0 = escape, 1..3 = delta

// Report flag bits.
constexpr std::uint8_t kRfDirEgress = 1u << 0;
constexpr std::uint8_t kRfConsistent = 1u << 1;
constexpr std::uint8_t kRfInferred = 1u << 2;
constexpr std::uint8_t kRfKeyframe = 1u << 3;
constexpr std::uint8_t kRfLocalDelta = 1u << 4;
constexpr std::uint8_t kRfChannelDelta = 1u << 5;
constexpr std::uint8_t kRfTsFull = 1u << 6;
constexpr std::uint8_t kRfAdvanceAbs = 1u << 7;

/// Longest advance-delta varint a frame may carry before falling back to the
/// absolute 8-byte form (keeps the keyframe worst case at 45 bytes).
constexpr std::size_t kMaxAdvanceDeltaVarint = 7;

bool ts_fits(sim::SimTime value, sim::SimTime ref, unsigned bits) {
  const std::int64_t half = std::int64_t{1} << (bits - 1);
  const std::int64_t diff = value - ref;
  return diff > -half && diff < half;
}

}  // namespace

sim::Duration wire_service_cost(sim::Duration full_service, std::size_t bytes) {
  const double frac =
      kFixedServiceFraction +
      (1.0 - kFixedServiceFraction) *
          (static_cast<double>(bytes) /
           static_cast<double>(kFullNotificationBytes));
  const auto cost = static_cast<sim::Duration>(
      std::llround(static_cast<double>(full_service) * frac));
  return std::max<sim::Duration>(cost, 1);
}

// --- NotificationCodec -------------------------------------------------------

NotificationCodec::NotificationCodec(const WireOptions& opts,
                                     sim::Duration transit_latency)
    : opts_(opts),
      compact_ts_ok_(opts.compact_timestamps &&
                     opts.encoding == WireEncoding::DeltaV2 &&
                     transit_latency <
                         (sim::Duration{1} << (kNotificationTsBits - 1))) {}

std::size_t NotificationCodec::encode(const Notification& n,
                                      std::uint8_t* out) const {
  if (opts_.encoding == WireEncoding::FullV2) {
    out[0] = n.unit.direction == net::Direction::Egress ? kNfDirEgress : 0;
    put_fixed(n.unit.port, out + 1, 2);
    put_fixed(n.old_sid, out + 3, 4);
    put_fixed(n.new_sid, out + 7, 4);
    put_fixed(n.channel, out + 11, 2);
    put_fixed(n.old_last_seen, out + 13, 4);
    put_fixed(n.new_last_seen, out + 17, 4);
    put_fixed(static_cast<std::uint64_t>(n.timestamp), out + 21, 8);
    return kFullNotificationBytes;
  }

  std::uint8_t flags = 0;
  if (n.unit.direction == net::Direction::Egress) flags |= kNfDirEgress;
  const bool has_ls = n.channel != kNoChannel;
  if (has_ls) flags |= kNfHasLastSeen;
  const std::uint32_t sid_delta = n.new_sid - n.old_sid;
  if (sid_delta != 0) {
    flags |= kNfSidAdvanced;
    if (sid_delta <= 3) flags |= static_cast<std::uint8_t>(sid_delta)
                                 << kNfSidCodeShift;
  }
  const std::uint32_t ls_delta = n.new_last_seen - n.old_last_seen;
  if (has_ls && ls_delta >= 1 && ls_delta <= 3) {
    flags |= static_cast<std::uint8_t>(ls_delta) << kNfLsCodeShift;
  }
  if (!compact_ts_ok_) flags |= kNfTsFull;

  std::size_t p = 1;
  p += put_varint(n.unit.port, out + p);
  p += put_varint(n.new_sid, out + p);
  if (sid_delta > 3) p += put_varint(sid_delta, out + p);
  if (has_ls) {
    p += put_varint(n.channel, out + p);
    p += put_varint(n.new_last_seen, out + p);
    if (ls_delta == 0 || ls_delta > 3) p += put_varint(ls_delta, out + p);
  }
  if (compact_ts_ok_) {
    put_fixed(static_cast<std::uint64_t>(n.timestamp) &
                  ((1u << kNotificationTsBits) - 1),
              out + p, 2);
    p += 2;
  } else {
    put_fixed(static_cast<std::uint64_t>(n.timestamp), out + p, 8);
    p += 8;
  }
  out[0] = flags;
  return p;
}

std::optional<Notification> NotificationCodec::decode(
    std::span<const std::uint8_t> bytes, net::NodeId device,
    sim::SimTime arrival) const {
  Reader rd{bytes};
  Notification n;
  n.unit.node = device;

  if (opts_.encoding == WireEncoding::FullV2) {
    const std::uint8_t flags = rd.u8();
    n.unit.direction = (flags & kNfDirEgress) != 0 ? net::Direction::Egress
                                                   : net::Direction::Ingress;
    n.unit.port = static_cast<net::PortId>(rd.fixed(2));
    n.old_sid = static_cast<WireSid>(rd.fixed(4));
    n.new_sid = static_cast<WireSid>(rd.fixed(4));
    n.channel = static_cast<std::uint16_t>(rd.fixed(2));
    n.old_last_seen = static_cast<WireSid>(rd.fixed(4));
    n.new_last_seen = static_cast<WireSid>(rd.fixed(4));
    n.timestamp = static_cast<sim::SimTime>(rd.fixed(8));
    if (!rd.ok || rd.pos != kFullNotificationBytes) return std::nullopt;
    return n;
  }

  const std::uint8_t flags = rd.u8();
  n.unit.direction = (flags & kNfDirEgress) != 0 ? net::Direction::Egress
                                                 : net::Direction::Ingress;
  n.unit.port = static_cast<net::PortId>(rd.varint());
  n.new_sid = static_cast<WireSid>(rd.varint());
  if ((flags & kNfSidAdvanced) != 0) {
    std::uint32_t delta = (flags >> kNfSidCodeShift) & 0x3;
    if (delta == 0) delta = static_cast<std::uint32_t>(rd.varint());
    n.old_sid = n.new_sid - delta;
  } else {
    n.old_sid = n.new_sid;
  }
  if ((flags & kNfHasLastSeen) != 0) {
    n.channel = static_cast<std::uint16_t>(rd.varint());
    n.new_last_seen = static_cast<WireSid>(rd.varint());
    std::uint32_t delta = (flags >> kNfLsCodeShift) & 0x3;
    if (delta == 0) delta = static_cast<std::uint32_t>(rd.varint());
    n.old_last_seen = n.new_last_seen - delta;
  } else {
    n.channel = kNoChannel;
  }
  if ((flags & kNfTsFull) != 0) {
    n.timestamp = static_cast<sim::SimTime>(rd.fixed(8));
  } else {
    n.timestamp =
        recover_truncated(arrival, rd.fixed(2), kNotificationTsBits);
  }
  if (!rd.ok || rd.pos != bytes.size()) return std::nullopt;
  return n;
}

// --- ReportEncoder -----------------------------------------------------------

void ReportEncoder::configure(const WireOptions& opts,
                              sim::Duration rpc_latency, WireStats* stats) {
  opts_ = opts;
  rpc_latency_ = rpc_latency;
  stats_ = stats;
}

void ReportEncoder::add_unit(const net::UnitId& unit) {
  const std::size_t slot = net::unit_slot(unit);
  if (slot >= base_.size()) base_.resize(slot + 1);
}

void ReportEncoder::begin_session(std::uint8_t session) {
  session_ = session;
  have_last_sid_ = false;
  for (auto& base : base_) {
    base.valid = false;
    base.since_keyframe = 0;
  }
}

void ReportEncoder::force_keyframes() {
  for (auto& base : base_) base.valid = false;
}

std::size_t ReportEncoder::encode_keyframe(const UnitReport& r,
                                           sim::SimTime now, std::uint8_t* out,
                                           Base& base) {
  std::uint8_t flags = kRfKeyframe;
  if (r.unit.direction == net::Direction::Egress) flags |= kRfDirEgress;
  if (r.consistent) flags |= kRfConsistent;
  if (r.inferred) flags |= kRfInferred;

  std::size_t p = 1;
  out[p++] = session_;
  p += put_varint(r.unit.port, out + p);
  put_fixed(r.sid, out + p, 8);
  p += 8;
  put_fixed(r.local_value, out + p, 8);
  p += 8;
  put_fixed(r.channel_value, out + p, 8);
  p += 8;

  const sim::SimTime arrival_ref = now + rpc_latency_;
  const bool compact =
      opts_.compact_timestamps && ts_fits(r.finalize_time, arrival_ref,
                                          kReportTsBits);
  if (compact) {
    put_fixed(static_cast<std::uint64_t>(r.finalize_time) &
                  ((1u << kReportTsBits) - 1),
              out + p, 3);
    p += 3;
  } else {
    flags |= kRfTsFull;
    if (opts_.compact_timestamps && stats_ != nullptr) ++stats_->ts_fallbacks;
    put_fixed(static_cast<std::uint64_t>(r.finalize_time), out + p, 8);
    p += 8;
  }
  const std::uint64_t adv_zz =
      zigzag_encode(r.advance_time - r.finalize_time);
  if (varint_len(adv_zz) <= kMaxAdvanceDeltaVarint) {
    p += put_varint(adv_zz, out + p);
  } else {
    flags |= kRfAdvanceAbs;
    put_fixed(static_cast<std::uint64_t>(r.advance_time), out + p, 8);
    p += 8;
  }
  out[0] = flags;

  base.local = r.local_value;
  base.channel = r.channel_value;
  base.valid = true;
  base.since_keyframe = 0;
  last_sid_ = r.sid;
  have_last_sid_ = true;
  return p;
}

std::size_t ReportEncoder::encode(const UnitReport& r, sim::SimTime now,
                                  std::uint8_t* out) {
  std::size_t len = 0;
  bool keyframe = false;

  if (opts_.encoding == WireEncoding::FullV2) {
    std::uint8_t flags = 0;
    if (r.unit.direction == net::Direction::Egress) flags |= kRfDirEgress;
    if (r.consistent) flags |= kRfConsistent;
    if (r.inferred) flags |= kRfInferred;
    out[0] = flags;
    out[1] = session_;
    put_fixed(r.unit.port, out + 2, 2);
    put_fixed(r.sid, out + 4, 8);
    put_fixed(r.local_value, out + 12, 8);
    put_fixed(r.channel_value, out + 20, 8);
    put_fixed(static_cast<std::uint64_t>(r.finalize_time), out + 28, 8);
    put_fixed(static_cast<std::uint64_t>(r.advance_time), out + 36, 8);
    len = kFullReportBytes;
  } else {
    const std::size_t slot = net::unit_slot(r.unit);
    Base unregistered;  // Never valid: an unregistered unit ships keyframes.
    Base& base = slot < base_.size() ? base_[slot] : unregistered;

    if (!base.valid || !have_last_sid_ ||
        base.since_keyframe + 1 >= kReportKeyframeInterval) {
      len = encode_keyframe(r, now, out, base);
      keyframe = true;
    } else {
      std::uint8_t scratch[kMaxReportFrameBytes + 16];
      std::uint8_t flags = 0;
      if (r.unit.direction == net::Direction::Egress) flags |= kRfDirEgress;
      if (r.consistent) flags |= kRfConsistent;
      if (r.inferred) flags |= kRfInferred;

      std::size_t p = 1;
      scratch[p++] = session_;
      p += put_varint(r.unit.port, scratch + p);
      p += put_varint(zigzag_encode(static_cast<std::int64_t>(
                          r.sid - last_sid_)),
                      scratch + p);
      if (r.local_value != base.local) {
        flags |= kRfLocalDelta;
        p += put_varint(zigzag_encode(static_cast<std::int64_t>(
                            r.local_value - base.local)),
                        scratch + p);
      }
      if (r.channel_value != base.channel) {
        flags |= kRfChannelDelta;
        p += put_varint(zigzag_encode(static_cast<std::int64_t>(
                            r.channel_value - base.channel)),
                        scratch + p);
      }
      const sim::SimTime arrival_ref = now + rpc_latency_;
      const bool compact =
          opts_.compact_timestamps && ts_fits(r.finalize_time, arrival_ref,
                                              kReportTsBits);
      bool ts_fell_back = false;
      if (compact) {
        put_fixed(static_cast<std::uint64_t>(r.finalize_time) &
                      ((1u << kReportTsBits) - 1),
                  scratch + p, 3);
        p += 3;
      } else {
        flags |= kRfTsFull;
        ts_fell_back = opts_.compact_timestamps;
        put_fixed(static_cast<std::uint64_t>(r.finalize_time), scratch + p, 8);
        p += 8;
      }
      const std::uint64_t adv_zz =
          zigzag_encode(r.advance_time - r.finalize_time);
      if (varint_len(adv_zz) <= kMaxAdvanceDeltaVarint) {
        p += put_varint(adv_zz, scratch + p);
      } else {
        flags |= kRfAdvanceAbs;
        put_fixed(static_cast<std::uint64_t>(r.advance_time), scratch + p, 8);
        p += 8;
      }
      scratch[0] = flags;

      if (p > kFullReportBytes) {
        // A delta frame that outgrew the reference layout: ship a keyframe
        // instead (bounds every frame at kMaxReportFrameBytes).
        len = encode_keyframe(r, now, out, base);
        keyframe = true;
      } else {
        std::memcpy(out, scratch, p);
        len = p;
        base.local = r.local_value;
        base.channel = r.channel_value;
        ++base.since_keyframe;
        last_sid_ = r.sid;
        if (ts_fell_back && stats_ != nullptr) ++stats_->ts_fallbacks;
      }
    }
  }

  if (stats_ != nullptr) {
    ++stats_->reports_encoded;
    stats_->report_bytes += len;
    if (opts_.encoding == WireEncoding::DeltaV2) {
      if (keyframe) {
        stats_->keyframe_bytes += len;
      } else {
        stats_->delta_bytes += len;
      }
    }
  }
  return len;
}

// --- ReportDecoder -----------------------------------------------------------

void ReportDecoder::configure(const WireOptions& opts, net::NodeId device,
                              WireStats* stats) {
  opts_ = opts;
  device_ = device;
  stats_ = stats;
}

void ReportDecoder::add_unit(const net::UnitId& unit) {
  const std::size_t slot = net::unit_slot(unit);
  if (slot >= base_.size()) base_.resize(slot + 1);
}

void ReportDecoder::begin_session(std::uint8_t session) {
  session_ = session;
  have_last_sid_ = false;
  for (auto& base : base_) base.valid = false;
}

std::optional<UnitReport> ReportDecoder::decode(
    std::span<const std::uint8_t> bytes, sim::SimTime arrival) {
  Reader rd{bytes};
  const std::uint8_t flags = rd.u8();
  const std::uint8_t session = rd.u8();
  if (!rd.ok) {
    if (stats_ != nullptr) ++stats_->decode_failures;
    return std::nullopt;
  }
  if (session != session_) {
    // In-flight frame from before an observer restart: the encoder state it
    // was built against is gone. Drop without touching reconstruction state;
    // the session announcement forces fresh keyframes.
    if (stats_ != nullptr) ++stats_->stale_session_drops;
    return std::nullopt;
  }

  UnitReport r;
  r.device = device_;
  r.unit.node = device_;
  r.unit.direction = (flags & kRfDirEgress) != 0 ? net::Direction::Egress
                                                 : net::Direction::Ingress;
  r.consistent = (flags & kRfConsistent) != 0;
  r.inferred = (flags & kRfInferred) != 0;

  const bool full = opts_.encoding == WireEncoding::FullV2;
  r.unit.port = static_cast<net::PortId>(full ? rd.fixed(2) : rd.varint());
  const std::size_t slot = net::unit_slot(r.unit);
  if (!rd.ok || slot >= base_.size()) {
    // Truncated, or a port this link never registered: no baseline to
    // decode against, and no report the observer expects.
    if (stats_ != nullptr) ++stats_->decode_failures;
    return std::nullopt;
  }

  if (full) {
    r.sid = rd.fixed(8);
    r.local_value = rd.fixed(8);
    r.channel_value = rd.fixed(8);
    r.finalize_time = static_cast<sim::SimTime>(rd.fixed(8));
    r.advance_time = static_cast<sim::SimTime>(rd.fixed(8));
    if (!rd.ok || rd.pos != kFullReportBytes) {
      if (stats_ != nullptr) ++stats_->decode_failures;
      return std::nullopt;
    }
    return r;
  }

  const bool keyframe = (flags & kRfKeyframe) != 0;
  Base& base = base_[slot];

  if (keyframe) {
    r.sid = rd.fixed(8);
    r.local_value = rd.fixed(8);
    r.channel_value = rd.fixed(8);
  } else {
    if (!base.valid || !have_last_sid_) {
      // Baseline loss (should not happen within a session — the report RPC
      // is ordered and loss-free — but a dropped frame must never cascade
      // into wrong values). Recovery: the periodic keyframe re-anchors.
      if (stats_ != nullptr) ++stats_->decode_failures;
      return std::nullopt;
    }
    r.sid = last_sid_ + static_cast<std::uint64_t>(
                            zigzag_decode(rd.varint()));
    r.local_value = base.local;
    r.channel_value = base.channel;
    if ((flags & kRfLocalDelta) != 0) {
      r.local_value += static_cast<std::uint64_t>(zigzag_decode(rd.varint()));
    }
    if ((flags & kRfChannelDelta) != 0) {
      r.channel_value +=
          static_cast<std::uint64_t>(zigzag_decode(rd.varint()));
    }
  }

  if ((flags & kRfTsFull) != 0) {
    r.finalize_time = static_cast<sim::SimTime>(rd.fixed(8));
  } else {
    r.finalize_time = recover_truncated(arrival, rd.fixed(3), kReportTsBits);
  }
  if ((flags & kRfAdvanceAbs) != 0) {
    r.advance_time = static_cast<sim::SimTime>(rd.fixed(8));
  } else {
    r.advance_time = r.finalize_time + zigzag_decode(rd.varint());
  }

  if (!rd.ok || rd.pos != bytes.size()) {
    if (stats_ != nullptr) ++stats_->decode_failures;
    return std::nullopt;
  }

  base.local = r.local_value;
  base.channel = r.channel_value;
  base.valid = true;
  last_sid_ = r.sid;
  have_last_sid_ = true;
  return r;
}

}  // namespace speedlight::snap
