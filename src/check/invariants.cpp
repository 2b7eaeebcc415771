#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace speedlight::check {

namespace {

std::string unit_str(const net::UnitId& u) {
  std::ostringstream os;
  os << "s" << u.node << "/p" << u.port
     << (u.direction == net::Direction::Ingress ? "/in" : "/eg");
  return os.str();
}

/// Packet and byte counts only ever count up, and channel state conserves
/// them; gauges and EWMAs legitimately fall.
bool flow_metric(sw::MetricKind m) {
  return m == sw::MetricKind::PacketCount || m == sw::MetricKind::ByteCount;
}

}  // namespace

sim::Duration sync_span_bound(sim::Duration ptp_residual_stddev,
                              double drift_ppm,
                              sim::Duration total_duration) {
  const auto drift_ns = static_cast<sim::Duration>(
      drift_ppm * 1e-6 * static_cast<double>(total_duration));
  return sim::usec(150) + 8 * ptp_residual_stddev + 2 * drift_ns;
}

std::vector<Violation> ConsistencyChecker::check_all(
    const core::SnapshotCampaign& campaign) {
  std::vector<Violation> out;
  const auto results = campaign.results(net_);

  if (options_.expect_complete) {
    if (results.size() != campaign.ids.size()) {
      std::ostringstream os;
      os << "only " << results.size() << " of " << campaign.ids.size()
         << " accepted requests completed";
      out.push_back({"liveness", 0, os.str()});
    }
    for (const auto* s : results) {
      if (!s->excluded_devices.empty()) {
        std::ostringstream os;
        os << s->excluded_devices.size()
           << " device(s) excluded without any configured fault";
        out.push_back({"liveness", s->id, os.str()});
      }
    }
  }

  const bool counts_up = flow_metric(net_.options().metric);
  const snap::GlobalSnapshot* prev = nullptr;
  for (const auto* s : results) {
    check_structure(*s, out);
    check_conservation(*s, out);
    check_sync_span(*s, out);
    if (prev != nullptr) {
      if (counts_up) check_monotonicity(*prev, *s, out);
      check_advance_order(*prev, *s, out);
    }
    prev = s;
  }
  return out;
}

void ConsistencyChecker::check_structure(const snap::GlobalSnapshot& s,
                                         std::vector<Violation>& out) const {
  std::size_t expected = 0;
  for (const auto& [device, units] : s.expected_devices) {
    if (std::find(s.excluded_devices.begin(), s.excluded_devices.end(),
                  device) == s.excluded_devices.end()) {
      expected += units;
    }
  }
  if (s.reports.size() != expected) {
    std::ostringstream os;
    os << s.reports.size() << " reports, expected " << expected;
    out.push_back({"structure", s.id, os.str()});
  }
  for (const auto& [unit, r] : s.reports) {
    if (r.sid != s.id) {
      std::ostringstream os;
      os << unit_str(unit) << " report carries sid " << r.sid;
      out.push_back({"structure", s.id, os.str()});
    }
    if (std::find(s.excluded_devices.begin(), s.excluded_devices.end(),
                  r.device) != s.excluded_devices.end()) {
      out.push_back(
          {"structure", s.id, unit_str(unit) + " reported by excluded device"});
    }
  }
}

void ConsistencyChecker::check_conservation(const snap::GlobalSnapshot& s,
                                            std::vector<Violation>& out) {
  // Trunk-level flow conservation needs channel state and a flow metric;
  // anything else has no exact per-channel equation to check.
  if (!net_.options().snapshot.channel_state ||
      !flow_metric(net_.options().metric)) {
    return;
  }
  const auto& trunks = net_.spec().trunks;
  for (std::size_t t = 0; t < trunks.size(); ++t) {
    const auto& tr = trunks[t];
    for (const bool a_to_b : {true, false}) {
      const auto sa = static_cast<net::NodeId>(a_to_b ? tr.switch_a : tr.switch_b);
      const auto sb = static_cast<net::NodeId>(a_to_b ? tr.switch_b : tr.switch_a);
      const auto pa = a_to_b ? tr.port_a : tr.port_b;
      const auto pb = a_to_b ? tr.port_b : tr.port_a;
      const auto eg = s.reports.find({sa, pa, net::Direction::Egress});
      const auto in = s.reports.find({sb, pb, net::Direction::Ingress});
      if (eg == s.reports.end() || in == s.reports.end()) continue;
      if (!eg->second.consistent || !in->second.consistent) continue;

      const std::uint64_t sent = eg->second.local_value;
      std::uint64_t received = in->second.local_value;
      if (options_.subtract_channel_state) {
        received += in->second.channel_value;
      }
      // Packets lost on the wire were counted at the egress unit but can
      // never reach the ingress unit or its channel state; every such loss
      // widens the equation by at most one packet's worth of metric. The
      // link's lifetime drop count therefore bounds the residual exactly
      // when it is zero and conservatively otherwise.
      const std::uint64_t slack =
          net_.trunk_link(t, a_to_b).packets_dropped() * options_.per_drop_slack;
      ++conservation_checked_;
      if (sent < received || sent - received > slack) {
        std::ostringstream os;
        os << unit_str({sa, pa, net::Direction::Egress}) << " sent " << sent
           << " but " << unit_str({sb, pb, net::Direction::Ingress})
           << " accounts " << received << " (slack " << slack << ")";
        out.push_back({"conservation", s.id, os.str()});
      }
    }
  }
}

void ConsistencyChecker::check_sync_span(const snap::GlobalSnapshot& s,
                                         std::vector<Violation>& out) const {
  if (options_.sync_span_bound <= 0) return;
  const sim::Duration span = s.advance_span();
  if (span > options_.sync_span_bound) {
    std::ostringstream os;
    os << "advance span " << sim::to_usec(span) << "us exceeds bound "
       << sim::to_usec(options_.sync_span_bound) << "us";
    out.push_back({"sync-span", s.id, os.str()});
  }
}

void ConsistencyChecker::check_monotonicity(const snap::GlobalSnapshot& prev,
                                            const snap::GlobalSnapshot& cur,
                                            std::vector<Violation>& out) {
  for (const auto& [unit, r] : cur.reports) {
    if (!r.consistent || r.inferred) continue;
    const auto it = prev.reports.find(unit);
    if (it == prev.reports.end() || !it->second.consistent ||
        it->second.inferred) {
      continue;
    }
    if (r.local_value < it->second.local_value) {
      std::ostringstream os;
      os << unit_str(unit) << " went from " << it->second.local_value
         << " (id " << prev.id << ") to " << r.local_value;
      out.push_back({"monotonicity", cur.id, os.str()});
    }
  }
}

void ConsistencyChecker::check_advance_order(const snap::GlobalSnapshot& prev,
                                             const snap::GlobalSnapshot& cur,
                                             std::vector<Violation>& out) {
  for (const auto& [unit, r] : cur.reports) {
    if (r.advance_time == 0) continue;
    const auto it = prev.reports.find(unit);
    if (it == prev.reports.end() || it->second.advance_time == 0) continue;
    if (r.advance_time < it->second.advance_time) {
      std::ostringstream os;
      os << unit_str(unit) << " advanced to id " << cur.id << " at "
         << sim::to_usec(r.advance_time) << "us, before id " << prev.id
         << " at " << sim::to_usec(it->second.advance_time) << "us";
      out.push_back({"advance-order", cur.id, os.str()});
    }
  }
}

void ConsistencyChecker::check_oracle(
    const std::map<snap::VirtualSid, snap::GlobalSnapshot>& hardware,
    const std::map<snap::VirtualSid, snap::GlobalSnapshot>& ideal,
    std::vector<Violation>& out) {
  for (const auto& [id, hw] : hardware) {
    const auto ideal_it = ideal.find(id);
    if (ideal_it == ideal.end()) continue;
    const auto& id_snap = ideal_it->second;
    for (const auto& [unit, r] : hw.reports) {
      if (!r.consistent || r.inferred) continue;
      const auto o = id_snap.reports.find(unit);
      if (o == id_snap.reports.end() || !o->second.consistent ||
          o->second.inferred) {
        continue;
      }
      if (r.local_value != o->second.local_value ||
          r.channel_value != o->second.channel_value) {
        std::ostringstream os;
        os << unit_str(unit) << " hardware (" << r.local_value << ","
           << r.channel_value << ") != ideal (" << o->second.local_value << ","
           << o->second.channel_value << ")";
        out.push_back({"oracle", id, os.str()});
      }
    }
  }
}

}  // namespace speedlight::check
