#include "core/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "snapshot/ids.hpp"

namespace speedlight::core {

sim::Endpoint Network::make_endpoint(std::size_t from, std::size_t to,
                                     sim::MergeKey key) {
  if (engine_ != nullptr && from != to) {
    return sim::Endpoint::remote(engine_->channel(from, to), key);
  }
  return sim::Endpoint::local(*sims_[to], key);
}

Network::Network(const net::TopologySpec& spec, NetworkOptions options)
    : options_(std::move(options)), spec_(spec) {
  spec_.validate();
  if (!snap::SidSpace::valid_modulus(options_.snapshot.wire_id_modulus)) {
    throw std::invalid_argument(
        "wire_id_modulus " +
        std::to_string(options_.snapshot.wire_id_modulus) +
        " is not 0 or a power of two >= 2");
  }

  // Struct-of-arrays topology core: the CSR index and the shared interned
  // route base are built once and consumed by the partitioner, the
  // per-switch routing tables, and any diagnostic that walks the topology.
  index_ = net::build_topology_index(spec_);
  routes_ = net::compute_compact_routes(spec_, index_);

  // Partition first: everything below is constructed onto its shard's
  // simulator. With 1 shard this degenerates to the classic serial build —
  // same simulator, same timing object, same RNG fork chain — but the
  // endpoint wiring (and with it the canonical merge-key event order) is
  // identical in every mode, which is what makes an N-shard run
  // digest-identical to the serial one.
  part_ = net::partition_topology(
      spec_, options_.shards,
      options_.shards > 1
          ? net::trunk_traffic(spec_, index_, routes_, options_.traffic_hints)
          : std::vector<std::uint64_t>{});
  const std::size_t nsh = part_.num_shards;
  for (std::size_t i = 0; i < nsh; ++i) {
    sims_.push_back(std::make_unique<sim::Simulator>(options_.seed));
    shard_timing_.push_back(std::make_unique<sim::TimingModel>(options_.timing));
  }
  if (nsh > 1) {
    std::vector<sim::Simulator*> raw;
    raw.reserve(nsh);
    for (auto& s : sims_) raw.push_back(s.get());
    engine_ = std::make_unique<sim::ParallelEngine>(std::move(raw));
    // Lookahead: register each channel's own latency floor with the engine
    // so horizons are per shard *pair*, not global. Data-plane trunks
    // contribute their propagation delay on exactly the (from, to) pairs
    // they connect (a frame arrives a pipeline latency later still, so the
    // floor is conservative); observer RPCs (requests out, reports and
    // notifications back) contribute observer_rpc_latency on the control
    // shard's pairs (registered below, with the devices). The engine
    // requires every registered latency to be strictly positive — the
    // partitioner guarantees it for trunks; a zero observer_rpc_latency is
    // not supported with shards > 1. Polling legs register their much smaller
    // kMinPollHop floor lazily in register_all_units_for_polling(), so
    // snapshot-only runs keep the wide RPC-scale control horizons.
    for (const auto& t : spec_.trunks) {
      const std::size_t sa = switch_shard(t.switch_a);
      const std::size_t sb = switch_shard(t.switch_b);
      if (sa == sb) continue;
      engine_->note_channel_latency(sa, sb, t.propagation);
      engine_->note_channel_latency(sb, sa, t.propagation);
    }
  }

  sim::Rng master = sims_[0]->rng().fork("network");

  if (options_.wire_fast_path) {
    // One accounting instance per shard: encoders and transports write only
    // their own shard's copy; the `wire.*` readers sum when the sim is idle.
    wire_stats_.reserve(nsh);
    for (std::size_t i = 0; i < nsh; ++i) {
      wire_stats_.push_back(std::make_unique<snap::WireStats>());
    }
  }

  // Liveness default: channel-state snapshots stall on traffic-less
  // channels, so re-initiation rounds flood probes (Section 6).
  if (options_.snapshot.channel_state && options_.force_probe_liveness) {
    options_.control.probe_on_reinitiate = true;
    options_.control.probe_on_initiate = true;
  }

  // Node ids: switches first, then hosts. Devices live in contiguous
  // arenas sized exactly once from the spec.
  const std::size_t s = spec_.switches.size();
  switches_.reset(s);
  hosts_.reset(spec_.hosts.size());
  links_.reset(2 * spec_.hosts.size() + 2 * spec_.trunks.size());
  for (std::size_t i = 0; i < s; ++i) {
    sw::SwitchOptions so;
    so.num_ports = spec_.switches[i].num_ports;
    so.snapshot_enabled = spec_.switches[i].snapshot_enabled;
    so.snapshot = options_.snapshot;
    so.metric = options_.metric;
    so.load_balancer = options_.load_balancer;
    so.flowlet_gap = options_.flowlet_gap;
    so.cos_classes = options_.cos_classes;
    so.classifier = options_.classifier;
    so.queue_capacity = options_.queue_capacity;
    so.fabric_delay = options_.fabric_delay;
    so.notification_mode = options_.notification_mode;
    so.int_enabled = options_.int_enabled;
    so.ecn_threshold = options_.ecn_threshold;
    so.per_instance_metrics = s <= options_.per_instance_metrics_limit;
    so.control = options_.control;
    const std::size_t sh = switch_shard(i);
    if (options_.wire_fast_path) {
      so.wire_enabled = true;
      so.wire = options_.wire;
      so.wire_stats = wire_stats_[sh].get();
    }
    switches_.emplace_back(*sims_[sh], static_cast<net::NodeId>(i),
                           spec_.switches[i].name, *shard_timing_[sh], so,
                           master.fork("switch" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    hosts_.emplace_back(*sims_[host_shard(i)], static_cast<net::NodeId>(s + i),
                        spec_.hosts[i].name);
  }

  // A link lives on its source's shard (transmission events); arrival
  // lands on its destination's shard through a keyed endpoint. Merge keys
  // are allocated in construction order, so a link's key is a pure
  // function of the topology — independent of the shard count.
  auto make_link = [this, &master](std::size_t src_shard, std::size_t dst_shard,
                                   double bw, sim::Duration prop) {
    // links_.size() is read before the emplace lands, so the fork stream
    // ("link0", "link1", ...) matches the old per-entity construction
    // exactly — the RNG chain is digest-load-bearing.
    net::Link& link = links_.emplace_back(
        *sims_[src_shard], bw, prop,
        master.fork("link" + std::to_string(links_.size())));
    link.set_arrival_endpoint(
        make_endpoint(src_shard, dst_shard, next_key_++));
    return &link;
  };

  // Host access links (duplex). Hosts are co-sharded with their switch, so
  // these never cross shards.
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    const auto& h = spec_.hosts[i];
    sw::Switch& swch = switches_[h.attached_switch];
    const std::size_t hs = host_shard(i);
    const std::size_t ss = switch_shard(h.attached_switch);
    net::Link* up = make_link(hs, ss, spec_.host_link_bandwidth_bps,
                              spec_.host_link_propagation);
    up->connect(&swch, h.switch_port);
    hosts_[i].attach_uplink(up);
    net::Link* down = make_link(ss, hs, spec_.host_link_bandwidth_bps,
                                spec_.host_link_propagation);
    down->connect(&hosts_[i], 0);
    swch.attach_link(h.switch_port, down, /*to_host=*/true);
  }

  // Switch-to-switch trunks (duplex). These are the only links that can
  // cross shards.
  for (const auto& t : spec_.trunks) {
    sw::Switch& a = switches_[t.switch_a];
    sw::Switch& b = switches_[t.switch_b];
    const std::size_t sa = switch_shard(t.switch_a);
    const std::size_t sb = switch_shard(t.switch_b);
    net::Link* ab = make_link(sa, sb, t.bandwidth_bps, t.propagation);
    ab->connect(&b, t.port_b);
    a.attach_link(t.port_a, ab, /*to_host=*/false);
    net::Link* ba = make_link(sb, sa, t.bandwidth_bps, t.propagation);
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

  // Large fabric: per-instance registration is off on every switch (see
  // SwitchOptions::per_instance_metrics); expose the fixed-cardinality
  // fabric-wide streaming view instead, re-summed on the cold collect path.
  if (s > options_.per_instance_metrics_limit) {
    streaming_.set_refresh([this](obs::StreamingMetrics& sm) {
      sm.clear();
      std::uint64_t max_backlog = 0;
      for (std::size_t i = 0; i < switches_.size(); ++i) {
        sw::Switch& swch = switches_[i];
        sm.add(obs::StreamClass::QueueDrops, swch.queue_drops());
        sm.add(obs::StreamClass::ForwardingDrops, swch.forwarding_drops());
        sm.add(obs::StreamClass::TtlDrops, swch.ttl_drops());
        sm.add(obs::StreamClass::SnapCaptures, swch.snapshot_captures());
        sm.add(obs::StreamClass::SnapNotifications,
               swch.snapshot_notifications());
        const snap::NotificationTransport& nt = swch.notifications();
        sm.add(obs::StreamClass::NotifDelivered, nt.delivered());
        sm.add(obs::StreamClass::NotifDroppedOverflow, nt.dropped_overflow());
        sm.add(obs::StreamClass::NotifDroppedRandom, nt.dropped_random());
        sm.add(obs::StreamClass::NotifBacklog, nt.backlog());
        max_backlog = std::max<std::uint64_t>(max_backlog, nt.max_backlog());
        const snap::ControlPlane& cp = swch.control_plane();
        sm.add(obs::StreamClass::CpInitiations, cp.initiations_sent());
        sm.add(obs::StreamClass::CpReinitiationRounds,
               cp.reinitiation_rounds());
        sm.add(obs::StreamClass::CpReports, cp.reports_sent());
      }
      sm.set(obs::StreamClass::NotifMaxBacklog, max_backlog);
    });
    streaming_.register_views(sims_[0]->metrics(), "fabric");
  }

  // Measurement services, all on the control shard (0). Each managed PTP
  // clock's correction loop runs on its device's shard.
  ptp_ = std::make_unique<snap::PtpService>(*sims_[0], *shard_timing_[0],
                                            master.fork("ptp"));
  // The observer's snapshot config always mirrors the data plane's, and
  // its wire setup mirrors the network-level fast-path switches; the rest
  // (completion timeout, report retention, assembly shards) is taken from
  // the caller's observer options.
  snap::Observer::Options obs_options = options_.observer;
  obs_options.snapshot = options_.snapshot;
  if (options_.wire_fast_path) {
    obs_options.wire_reports = true;
    obs_options.wire = options_.wire;
    obs_options.wire_stats = wire_stats_[0].get();
  }
  observer_ = std::make_unique<snap::Observer>(*sims_[0], *shard_timing_[0],
                                               std::move(obs_options));
  poller_ = std::make_unique<poll::PollingObserver>(
      *sims_[0], *shard_timing_[0], master.fork("poller"));

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    if (!swch.options().snapshot_enabled) continue;
    const std::size_t sh = switch_shard(i);
    snap::ControlPlane& cp = swch.control_plane();
    cp.set_report_endpoint(make_endpoint(sh, 0, next_key_++));
    observer_->register_device(
        &cp, make_endpoint(0, sh, next_key_++),
        options_.wire_fast_path ? wire_stats_[sh].get() : nullptr);
    if (engine_ != nullptr && sh != 0) {
      // Both RPC directions (requests out, reports/notifications back)
      // travel at observer_rpc_latency; see mutate_timing_at() for the
      // matching mid-run mutation constraint.
      engine_->note_channel_latency(0, sh,
                                    options_.timing.observer_rpc_latency);
      engine_->note_channel_latency(sh, 0,
                                    options_.timing.observer_rpc_latency);
    }
    ptp_->manage(&cp.clock(), *sims_[sh], *shard_timing_[sh]);
    if (options_.start_register_poll) {
      cp.start_register_poll();
    }
  }
  if (options_.start_ptp) ptp_->start();

  if (options_.wire_fast_path) {
    // Fabric-wide wire accounting (satellite of the v2 fast path): byte
    // counters split by frame family plus the fallback/drop diagnostics.
    using obs::MetricKind;
    auto& reg = sims_[0]->metrics();
    const auto sum = [this](std::uint64_t snap::WireStats::* field) {
      std::uint64_t total = 0;
      for (const auto& ws : wire_stats_) total += (*ws).*field;
      return total;
    };
    reg.register_reader("wire.notification_bytes", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::notification_bytes); });
    reg.register_reader("wire.report_bytes", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::report_bytes); });
    reg.register_reader("wire.keyframe_bytes", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::keyframe_bytes); });
    reg.register_reader("wire.delta_bytes", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::delta_bytes); });
    reg.register_reader("wire.notifications_encoded", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::notifications_encoded); });
    reg.register_reader("wire.reports_encoded", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::reports_encoded); });
    reg.register_reader("wire.ts_fallbacks", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::ts_fallbacks); });
    reg.register_reader("wire.stale_session_drops", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::stale_session_drops); });
    reg.register_reader("wire.decode_failures", MetricKind::Counter,
                        [sum] { return sum(&snap::WireStats::decode_failures); });
  }
}

snap::WireStats Network::wire_stats_total() const {
  snap::WireStats total;
  for (const auto& ws : wire_stats_) {
    total.notification_bytes += ws->notification_bytes;
    total.report_bytes += ws->report_bytes;
    total.keyframe_bytes += ws->keyframe_bytes;
    total.delta_bytes += ws->delta_bytes;
    total.notifications_encoded += ws->notifications_encoded;
    total.reports_encoded += ws->reports_encoded;
    total.ts_fallbacks += ws->ts_fallbacks;
    total.stale_session_drops += ws->stale_session_drops;
    total.decode_failures += ws->decode_failures;
  }
  return total;
}

Network::~Network() = default;

void Network::mutate_timing_at(sim::SimTime when,
                               std::function<void(sim::TimingModel&)> fn) {
  // One event per shard, all at `when` under one fresh merge key, so every
  // shard's copy mutates at the same simulated instant and same-time ties
  // resolve identically for any shard count. Call while the network is not
  // running (scheduling straight onto other shards' queues mid-run would
  // bypass the engine's lookahead); the usual pattern is to lay out the
  // whole fault schedule before the first run_until(). Under the engine,
  // mutations must not lower observer_rpc_latency below the floor
  // registered at construction: the per-channel lookahead already promised
  // the engine that control RPCs never travel faster than that.
  auto shared =
      std::make_shared<std::function<void(sim::TimingModel&)>>(std::move(fn));
  const sim::MergeKey key = next_key_++;
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    sim::TimingModel* tm = shard_timing_[i].get();
    sims_[i]->at_keyed(when, key, [shared, tm]() { (*shared)(*tm); });
  }
}

void Network::register_all_units_for_polling() {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    const std::size_t sh = switch_shard(i);
    if (engine_ != nullptr && sh != 0) {
      // Poll read/record legs travel at >= kMinPollHop (the poller clamps
      // sampled RTTs to twice this). Registering the floor here — not at
      // construction — keeps snapshot-only runs on the wider RPC-scale
      // horizons. Like all setup, call this between runs: every shard sits
      // at the previous `until`, so shrinking the floor cannot strand a
      // shard past a future poll delivery.
      engine_->note_channel_latency(0, sh, poll::PollingObserver::kMinPollHop);
      engine_->note_channel_latency(sh, 0, poll::PollingObserver::kMinPollHop);
    }
    for (net::PortId p = 0; p < swch.options().num_ports; ++p) {
      for (const auto dir : {net::Direction::Ingress, net::Direction::Egress}) {
        const sim::Endpoint read = make_endpoint(0, sh, next_key_++);
        const sim::Endpoint record = make_endpoint(sh, 0, next_key_++);
        poller_->add_unit(swch.unit(p, dir), read, record);
      }
    }
  }
}

void Network::enable_tracing(std::size_t capacity) {
  for (auto& sm : sims_) sm->tracer().enable(capacity);

  // Name every lane so the exported trace reads like the topology. Each
  // switch's tracks are named on the tracer of the shard that records
  // them; the shared observer/poller/tap processes are named everywhere.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    const sw::Switch& swch = switches_[i];
    obs::Tracer& tr = sims_[switch_shard(i)]->tracer();
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
  for (auto& sm : sims_) {
    obs::Tracer& tr = sm->tracer();
    tr.name_process(obs::kObserverPid, "snapshot-observer");
    tr.name_track(obs::observer_track(), "assembly");
    tr.name_process(obs::kPollerPid, "polling-observer");
    tr.name_track(obs::poller_track(), "sweeps");
    tr.name_process(obs::kPacketTapPid, "packet-taps");
    tr.name_track(obs::packet_tap_track(), "links");
  }
}

void Network::enable_engine_profiling(std::size_t capacity_per_shard) {
  if (engine_ != nullptr) engine_->enable_profiling(capacity_per_shard);
}

const obs::EngineProfiler* Network::engine_profiler() const {
  return engine_ == nullptr ? nullptr : engine_->profiler();
}

bool Network::export_chrome_trace(const std::string& path) const {
  std::vector<const obs::Tracer*> tracers;
  tracers.reserve(sims_.size());
  for (const auto& sm : sims_) tracers.push_back(&sm->tracer());
  return obs::export_chrome_trace(path, tracers);
}

obs::SnapshotTimeline Network::snapshot_timeline(std::uint64_t id) const {
  // Device-side records live on their shard's tracer; the reconstruction
  // reads the control shard's ring, which holds the complete causal chain
  // only in single-shard runs. Sharded runs still get the observer-side
  // request/collect/complete spine.
  return obs::SnapshotTimeline::build(sims_[0]->tracer(), id);
}

const snap::GlobalSnapshot* Network::take_snapshot(sim::Duration lead,
                                                   sim::Duration max_wait) {
  const auto id = observer_->request_snapshot(now() + lead);
  if (!id) return nullptr;
  const sim::SimTime deadline = now() + lead + max_wait;
  if (engine_ == nullptr) {
    sim::Simulator& sm = *sims_[0];
    while (sm.now() < deadline) {
      const snap::GlobalSnapshot* snap = observer_->result(*id);
      if (snap != nullptr && snap->complete) return snap;
      if (sm.pending() == 0) break;
      sm.step();
    }
    return observer_->result(*id);
  }
  // Engine path: no single-step primitive across shards, so advance in
  // windows and poll for completion. The window is a latency-scale
  // constant — small enough that the returned `now()` overshoots
  // completion by microseconds, large enough to amortize barrier rounds.
  const sim::Duration window =
      std::max<sim::Duration>(engine_->lookahead(), sim::usec(100));
  while (now() < deadline) {
    const snap::GlobalSnapshot* snap = observer_->result(*id);
    if (snap != nullptr && snap->complete) return snap;
    if (pending() == 0) break;
    run_until(std::min<sim::SimTime>(deadline, now() + window));
  }
  return observer_->result(*id);
}

}  // namespace speedlight::core
