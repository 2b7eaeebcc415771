#include "core/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/chrome_trace.hpp"

namespace speedlight::core {

namespace {

/// Registry series that sum a per-switch accessor over the fabric.
using SwitchRead = std::uint64_t (*)(sw::Switch&);
constexpr std::tuple<const char*, obs::MetricKind, SwitchRead> kFabricSums[] = {
    {"fabric.queue_drops", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.queue_drops(); }},
    {"fabric.forwarding_drops", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.forwarding_drops(); }},
    {"fabric.ttl_drops", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.ttl_drops(); }},
    {"fabric.snap.captures", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.snapshot_captures(); }},
    {"fabric.snap.notifications", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.snapshot_notifications(); }},
    {"fabric.notif.delivered", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.notifications().delivered(); }},
    {"fabric.notif.dropped_overflow", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.notifications().dropped_overflow(); }},
    {"fabric.notif.dropped_random", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.notifications().dropped_random(); }},
    {"fabric.notif.backlog", obs::MetricKind::Gauge,
     [](sw::Switch& s) -> std::uint64_t {
       return s.notifications().backlog();
     }},
    {"fabric.cp.initiations_sent", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.control_plane().initiations_sent(); }},
    {"fabric.cp.reinitiation_rounds", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.control_plane().reinitiation_rounds(); }},
    {"fabric.cp.reports_sent", obs::MetricKind::Counter,
     [](sw::Switch& s) { return s.control_plane().reports_sent(); }},
};

}  // namespace

Network::Network(const net::TopologySpec& spec, NetworkOptions options)
    : options_(std::move(options)),
      spec_(spec),
      sim_(options_.seed),
      timing_(options_.timing) {
  if (options_.shards != 1) {
    throw std::invalid_argument("shards " + std::to_string(options_.shards) +
                                " is not 1: a Network runs on one simulator");
  }
  if (!options_.wire_fast_path) {
    throw std::invalid_argument(
        "wire_fast_path is false: the control plane has one wire path");
  }
  spec_.validate();

  // The shared interned route base is built once, from the CSR topology
  // index, and every switch's routing table points into it.
  routes_ = net::compute_compact_routes(spec_);

  // The RNG fork chain ("network", then "switch<i>", "link<i>", "ptp",
  // "poller" in construction order) is digest-load-bearing.
  sim::Rng master = sim_.rng().fork("network");

  // Node ids: switches first, then hosts. Devices live in contiguous
  // arenas sized exactly once from the spec.
  const std::size_t s = spec_.switches.size();
  switches_.reset(s);
  hosts_.reset(spec_.hosts.size());
  links_.reset(2 * spec_.hosts.size() + 2 * spec_.trunks.size());
  for (std::size_t i = 0; i < s; ++i) {
    const sw::SwitchOptions so{spec_.switches[i].num_ports,
                               spec_.switches[i].snapshot_enabled};
    switches_.emplace_back(sim_, static_cast<net::NodeId>(i),
                           spec_.switches[i].name, timing_, options_, so,
                           master.fork("switch" + std::to_string(i)),
                           &wire_stats_);
  }
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    hosts_.emplace_back(sim_, static_cast<net::NodeId>(s + i),
                        spec_.hosts[i].name);
  }

  // Each link's arrivals run under its own merge key.
  auto make_link = [this, &master](double bw, sim::Duration prop) {
    // links_.size() is read before the emplace lands, so the fork stream
    // ("link0", "link1", ...) matches the old per-entity construction
    // exactly — the RNG chain is digest-load-bearing.
    net::Link& link = links_.emplace_back(
        sim_, bw, prop, master.fork("link" + std::to_string(links_.size())));
    link.set_arrival_key(make_key());
    return &link;
  };

  // Host access links (duplex).
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    const auto& h = spec_.hosts[i];
    sw::Switch& swch = switches_[h.attached_switch];
    net::Link* up = make_link(spec_.host_link_bandwidth_bps,
                              spec_.host_link_propagation);
    up->connect(&swch, h.switch_port);
    hosts_[i].attach_uplink(up);
    net::Link* down = make_link(spec_.host_link_bandwidth_bps,
                                spec_.host_link_propagation);
    down->connect(&hosts_[i], 0);
    swch.attach_link(h.switch_port, down, /*to_host=*/true);
  }

  // Switch-to-switch trunks (duplex).
  for (const auto& t : spec_.trunks) {
    sw::Switch& a = switches_[t.switch_a];
    sw::Switch& b = switches_[t.switch_b];
    net::Link* ab = make_link(t.bandwidth_bps, t.propagation);
    ab->connect(&b, t.port_b);
    a.attach_link(t.port_a, ab, /*to_host=*/false);
    net::Link* ba = make_link(t.bandwidth_bps, t.propagation);
    ba->connect(&a, t.port_a);
    b.attach_link(t.port_b, ba, /*to_host=*/false);
    // Partial deployment: if a trunk neighbor is snapshot-disabled, no
    // markers arrive on that channel.
    if (!options_.transit_neighbors_carry_markers) {
      if (!spec_.switches[t.switch_b].snapshot_enabled) {
        a.set_ingress_neighbor_enabled(t.port_a, false);
      }
      if (!spec_.switches[t.switch_a].snapshot_enabled) {
        b.set_ingress_neighbor_enabled(t.port_b, false);
      }
    }
  }

  // Routing: every switch's table is a view into the shared interned route
  // base — no per-(switch, host) vectors. Lookup results (contents, order)
  // and the FIB version sequence match the old per-destination install
  // loop exactly; the equivalence tests pin both.
  for (std::size_t sw_idx = 0; sw_idx < s; ++sw_idx) {
    switches_[sw_idx].routing().set_compact_base(
        &routes_, sw_idx, static_cast<net::NodeId>(s));
  }

  for (std::size_t i = 0; i < switches_.size(); ++i) switches_[i].finalize();

  // Measurement services.
  ptp_ = std::make_unique<snap::PtpService>(sim_, timing_, master.fork("ptp"));
  observer_ = std::make_unique<snap::Observer>(sim_, timing_, options_.snapshot,
                                               options_.wire, &wire_stats_,
                                               options_.observer);
  poller_ = std::make_unique<poll::PollingObserver>(sim_, timing_,
                                                    master.fork("poller"));

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    if (!swch.options().snapshot_enabled) continue;
    snap::ControlPlane& cp = swch.control_plane();
    // Report path first, then the request path: the key order is fixed.
    cp.set_report_key(make_key());
    observer_->register_device(&cp, make_key());
    ptp_->manage(&cp.clock());
    cp.start_register_poll();
  }
  ptp_->start();

  // Fabric-wide switch, notification-transport and control-plane series:
  // one reader per series, which sums its per-switch accessor over every
  // switch when read (the backlog high-water mark takes the maximum). The
  // registry's size does not depend on the fabric's.
  for (const auto& [name, kind, read] : kFabricSums) {
    sim_.metrics().register_reader(name, kind, [this, read = read] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < switches_.size(); ++i) {
        total += read(switches_[i]);
      }
      return total;
    });
  }
  sim_.metrics().register_reader(
      "fabric.notif.max_backlog", obs::MetricKind::Gauge, [this] {
        std::uint64_t high = 0;
        for (std::size_t i = 0; i < switches_.size(); ++i) {
          high = std::max<std::uint64_t>(
              high, switches_[i].notifications().max_backlog());
        }
        return high;
      });

  // Fabric-wide wire accounting: byte counters split by frame family plus
  // the fallback/drop diagnostics.
  using W = snap::WireStats;
  constexpr std::pair<const char*, std::uint64_t W::*> kWireSeries[] = {
      {"wire.notification_bytes", &W::notification_bytes},
      {"wire.report_bytes", &W::report_bytes},
      {"wire.keyframe_bytes", &W::keyframe_bytes},
      {"wire.delta_bytes", &W::delta_bytes},
      {"wire.notifications_encoded", &W::notifications_encoded},
      {"wire.reports_encoded", &W::reports_encoded},
      {"wire.ts_fallbacks", &W::ts_fallbacks},
      {"wire.stale_session_drops", &W::stale_session_drops},
      {"wire.decode_failures", &W::decode_failures},
  };
  for (const auto& [name, field] : kWireSeries) {
    sim_.metrics().register_reader(
        name, obs::MetricKind::Counter,
        [this, f = field] { return wire_stats_.*f; });
  }
}

Network::~Network() = default;

void Network::mutate_timing_at(sim::SimTime when,
                               std::function<void(sim::TimingModel&)> fn) {
  sim_.at_keyed(when, next_key_++,
                [this, fn = std::move(fn)]() { fn(timing_); });
}

void Network::register_all_units_for_polling() {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    for (net::PortId p = 0; p < swch.options().num_ports; ++p) {
      for (const auto dir : {net::Direction::Ingress, net::Direction::Egress}) {
        // Read leg first, then the record leg: the key order is fixed.
        const sim::MergeKey read = make_key();
        const sim::MergeKey record = make_key();
        poller_->add_unit(swch.unit(p, dir), read, record);
      }
    }
  }
}

void Network::enable_tracing(std::size_t capacity) {
  obs::Tracer& tr = sim_.tracer();
  tr.enable(capacity);

  // Name every lane so the exported trace reads like the topology.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    const sw::Switch& swch = switches_[i];
    const net::NodeId id = swch.id();
    tr.name_process(id, swch.name());
    tr.name_track(obs::cpu_track(id), "control-plane");
    tr.name_track(obs::notif_track(id), "notif-channel");
    for (net::PortId p = 0; p < swch.options().num_ports; ++p) {
      const std::string port = "port" + std::to_string(p);
      tr.name_track(obs::unit_track({id, p, net::Direction::Ingress}),
                    port + "/ingress");
      tr.name_track(obs::unit_track({id, p, net::Direction::Egress}),
                    port + "/egress");
    }
  }
  tr.name_process(obs::kObserverPid, "snapshot-observer");
  tr.name_track(obs::observer_track(), "assembly");
  tr.name_process(obs::kPollerPid, "polling-observer");
  tr.name_track(obs::poller_track(), "sweeps");
}

bool Network::export_chrome_trace(const std::string& path) const {
  return obs::export_chrome_trace(path, sim_.tracer());
}

obs::SnapshotTimeline Network::snapshot_timeline(std::uint64_t id) const {
  return obs::SnapshotTimeline::build(sim_.tracer(), id);
}

const snap::GlobalSnapshot* Network::take_snapshot(sim::Duration lead,
                                                   sim::Duration max_wait) {
  const auto id = observer_->request_snapshot(now() + lead);
  if (!id) return nullptr;
  const sim::SimTime deadline = now() + lead + max_wait;
  while (sim_.now() < deadline) {
    const snap::GlobalSnapshot* snap = observer_->result(*id);
    if (snap != nullptr && snap->complete) return snap;
    // A step that finds the queue empty ends at the last booked delivery.
    if (!sim_.step()) break;
  }
  return observer_->result(*id);
}

}  // namespace speedlight::core
