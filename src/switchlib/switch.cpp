#include "switchlib/switch.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/determinism.hpp"

namespace speedlight::sw {

// ---------------------------------------------------------------------------
// Per-port, per-direction processing unit: counters + the Speedlight data
// plane state machine, exposed to the control plane as a UnitHandle.
// ---------------------------------------------------------------------------
class Switch::PortUnit final : public snap::UnitHandle {
 public:
  PortUnit(Switch& sw, net::PortId port, net::Direction dir)
      : sw_(sw), port_(port), dir_(dir) {}

  /// The unit's snapshot state machine, materialized on first touch. An
  /// untouched unit of a 50k-port fabric owns no register file, no slot
  /// array, and no callbacks; reads through the UnitHandle below return
  /// exactly what a freshly-built (never-traversed) machine would, so
  /// materialization time is unobservable to the protocol — the twin-run
  /// digest oracle pins this.
  [[nodiscard]] snap::DataplaneUnit& ensure_dataplane() {
    if (!dp_) materialize();
    return *dp_;
  }

  [[nodiscard]] net::UnitId unit_id() const override {
    return net::UnitId{sw_.id(), port_, dir_};
  }
  [[nodiscard]] bool is_ingress() const override {
    return dir_ == net::Direction::Ingress;
  }
  /// Channel geometry is a pure function of the switch options, so the
  /// control plane can size its completion masks before (or without) the
  /// state machine materializing. Snapshot-disabled switches expose no
  /// channels, as before.
  [[nodiscard]] std::uint16_t num_channels() const override {
    if (!sw_.options_.snapshot_enabled) return 0;
    return dir_ == net::Direction::Ingress
               ? 2
               : static_cast<std::uint16_t>(sw_.options_.num_ports *
                                                sw_.fabric_.cos_classes +
                                            1);
  }
  [[nodiscard]] std::uint16_t cpu_channel() const override {
    if (!sw_.options_.snapshot_enabled) return 0;
    return dir_ == net::Direction::Ingress ? kIngressCpuChannel
                                           : sw_.egress_cpu_channel();
  }

  void inject_initiation(snap::WireSid sid) override {
    assert(is_ingress() && "initiations enter through ingress units");
    sw_.do_inject_initiation(port_, sid);
  }

  void inject_probe() override {
    assert(is_ingress() && "probes are injected at ingress units");
    sw_.do_inject_probe(port_);
  }

  // Register reads on an unmaterialized unit return the untouched-machine
  // values (sid 0, empty slots, last-seen 0) without materializing — the
  // polling baseline sweeps every unit of the fabric and must not inflate
  // untouched ports.
  [[nodiscard]] snap::SlotValue read_value_slot(std::size_t index) const override {
    return dp_ ? dp_->read_slot(index) : snap::SlotValue{};
  }
  [[nodiscard]] snap::SlotValue read_oracle_slot(
      std::size_t index) const override {
    return dp_ ? dp_->read_oracle_slot(index) : snap::SlotValue{};
  }
  [[nodiscard]] snap::WireSid read_sid_register() const override {
    return dp_ ? dp_->sid_register() : 0;
  }
  [[nodiscard]] snap::WireSid read_last_seen_register(
      std::uint16_t channel) const override {
    return dp_ ? dp_->last_seen_register(channel) : 0;
  }
  [[nodiscard]] std::uint64_t read_live_counter() const override {
    return counters_.read(sw_.fabric_.metric);
  }

  [[nodiscard]] snap::DataplaneUnit* dataplane() { return dp_.get(); }
  [[nodiscard]] bool has_dataplane() const { return dp_ != nullptr; }
  [[nodiscard]] std::uint64_t captures() const {
    return dp_ ? dp_->captures() : 0;
  }
  [[nodiscard]] std::uint64_t notifications_sent() const {
    return dp_ ? dp_->notifications_sent() : 0;
  }
  [[nodiscard]] std::size_t value_bytes() const {
    return dp_ ? dp_->value_bytes() : 0;
  }
  [[nodiscard]] CounterSet& counters() { return counters_; }
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

 private:
  /// Cold path, once per touched unit. Runs under DetAllow: like event-slab
  /// and packet-pool growth, this is amortized infrastructure allocation,
  /// not per-packet work.
  void materialize() {
    sim::det::DetAllow allow_unit_materialization;
    const MetricKind metric = sw_.fabric_.metric;
    // speedlight-lint: allow(datapath-alloc) one-off unit materialization.
    dp_ = std::make_unique<snap::DataplaneUnit>(
        unit_id(), sw_.fabric_.snapshot, num_channels(), cpu_channel(),
        [this, metric]() { return counters_.read(metric); },
        [metric](const snap::PacketView& v) {
          return metric_channel_add(metric, v.size_bytes);
        },
        [this](const snap::Notification& n) { sw_.notif_->push(n); });
    dp_->attach_observability(&sw_.sim_.tracer());
  }

  Switch& sw_;
  net::PortId port_;
  net::Direction dir_;
  CounterSet counters_;
  std::unique_ptr<snap::DataplaneUnit> dp_;
};

struct Switch::Port {
  Port(Switch& sw, net::PortId id, std::size_t classes, std::size_t capacity)
      : ingress(sw, id, net::Direction::Ingress),
        egress(sw, id, net::Direction::Egress),
        queue(classes, capacity) {}

  PortUnit ingress;
  PortUnit egress;
  CosQueueSet queue;
  net::Link* link = nullptr;
  bool to_host = false;
  bool ingress_neighbor_enabled = true;
  /// When the last dequeued packet finishes serializing. The port is busy
  /// until then, as a host uplink is until its Link's busy_until_.
  sim::SimTime busy_until = 0;
  /// An event is scheduled at `busy_until` and will dequeue the next packet.
  bool wake_pending = false;
};

// ---------------------------------------------------------------------------

Switch::Switch(sim::Simulator& sim, net::NodeId id, std::string name,
               const sim::TimingModel& timing, const FabricOptions& fabric,
               SwitchOptions options, sim::Rng rng, snap::WireStats* wire_stats)
    : net::Node(id, std::move(name)),
      sim_(sim),
      timing_(timing),
      fabric_(fabric),
      options_(options),
      rng_(rng),
      wire_stats_(wire_stats) {
  if (options_.num_ports == 0) {
    throw std::invalid_argument("switch needs at least one port");
  }
  if (fabric_.cos_classes == 0) {
    throw std::invalid_argument("switch needs at least one CoS class");
  }
  lb_ = make_load_balancer(fabric_.load_balancer, id * 0x9E3779B9u + 7,
                           fabric_.flowlet_gap, rng_.fork("lb"));
  // One contiguous arena for every port record; the heavyweight members
  // (snapshot register files, queue rings) stay unmaterialized until the
  // port is actually touched.
  ports_.reset(options_.num_ports);
  for (net::PortId p = 0; p < options_.num_ports; ++p) {
    ports_.emplace_back(*this, p, fabric_.cos_classes, fabric_.queue_capacity);
  }
}

Switch::~Switch() = default;

void Switch::attach_link(net::PortId port, net::Link* link, bool to_host) {
  // finalize() derives each unit's completion mask from the attached links.
  if (finalized_) {
    throw std::logic_error(name() + ": attach_link after finalize()");
  }
  Port& p = ports_.at(port);
  p.link = link;
  p.to_host = to_host;
  if (to_host) p.ingress_neighbor_enabled = false;  // hosts carry no markers
}

void Switch::set_ingress_neighbor_enabled(net::PortId port, bool enabled) {
  if (finalized_) {
    throw std::logic_error(name() + ": neighbor override after finalize()");
  }
  ports_.at(port).ingress_neighbor_enabled = enabled;
}

void Switch::set_route(net::NodeId dst_host, std::vector<net::PortId> ports) {
  routing_.set_route(dst_host, std::move(ports));
}

void Switch::finalize() {
  // A second call would replace a control plane an observer may hold.
  if (finalized_) throw std::logic_error(name() + ": finalize() called twice");
  finalized_ = true;

  // speedlight-lint: allow(datapath-alloc) finalize()-time wiring.
  cp_ = std::make_unique<snap::ControlPlane>(sim_, id(), name(), timing_,
                                             fabric_.snapshot, fabric_.control,
                                             rng_.fork("cp"));
  auto sink = [this](const snap::Notification& n) { cp_->on_notification(n); };
  if (fabric_.notification_mode == snap::NotificationMode::Digest) {
    // speedlight-lint: allow(datapath-alloc) finalize()-time wiring.
    notif_ = std::make_unique<snap::DigestChannel>(
        sim_, timing_, rng_.fork("notif"), sink, id(), fabric_.wire,
        wire_stats_);
  } else {
    // speedlight-lint: allow(datapath-alloc) finalize()-time wiring.
    notif_ = std::make_unique<snap::NotificationChannel>(
        sim_, timing_, rng_.fork("notif"), sink, id(), fabric_.wire,
        wire_stats_);
  }
  cp_->set_transport(notif_.get());

  if (!options_.snapshot_enabled) return;

  // The snapshot state machines themselves materialize lazily on first
  // touch; only the (cheap, inline) queue-depth gauge is wired eagerly so
  // a unit materialized mid-run reads the right occupancy immediately.
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& port = ports_[i];
    CosQueueSet* q = &port.queue;
    port.egress.counters().set_queue_depth_gauge(
        [q]() { return static_cast<std::uint64_t>(q->size()); });
  }

  // Register units with the control plane: ingress units first (initiation
  // dispatch order), then egress. Channel geometry comes from the options,
  // so masks are sized without materializing any state machine.
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& port = ports_[i];
    std::vector<bool> mask(port.ingress.num_channels(), false);
    // The external channel gates completion only when the upstream device
    // speaks the protocol (Section 6 / Section 10) and the port is wired
    // at all.
    mask[kIngressExternalChannel] =
        port.ingress_neighbor_enabled && port.link != nullptr;
    cp_->add_unit(&port.ingress, std::move(mask));
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& port = ports_[i];
    // Every internal (ingress, class) sub-channel can carry markers:
    // initiations reach all ingress units and probes flood all channels.
    std::vector<bool> mask(port.egress.num_channels(), true);
    cp_->add_unit(&port.egress, std::move(mask));
  }
}

std::size_t Switch::classify(const net::Packet& pkt) const {
  // Out-of-range classes are clamped in enqueue() (CosQueueSet::clamp).
  return fabric_.classifier ? fabric_.classifier(pkt) : 0;
}

void Switch::receive(net::PooledPacket pkt, net::PortId in_port) {
  assert(finalized_ && "switch used before finalize()");
  sim::det::DataPathScope datapath;  // Per-packet extent: no allocations.
  Port& port = ports_.at(in_port);
  const sim::SimTime now = sim_.now();

  // --- Ingress processing unit (Figure 4) ---------------------------------
  if (options_.snapshot_enabled) {
    snap::PacketView view;
    view.packet_id = pkt->id;
    view.size_bytes = pkt->size_bytes;
    view.counts_for_metrics = pkt->counts_for_metrics();
    view.has_marker = pkt->snap.present;
    view.wire_sid = pkt->snap.wire_sid;
    snap::DataplaneUnit& dp = port.ingress.ensure_dataplane();
    const snap::WireSid stamped =
        dp.on_packet(view, kIngressExternalChannel, now);
    if (!pkt->snap.present) {
      // First snapshot-enabled router on the path: add the header.
      pkt->snap.present = true;
      pkt->snap.kind = net::PacketKind::Data;
    }
    pkt->snap.wire_sid = stamped;
    pkt->audit_virtual_sid = dp.virtual_sid();
  }
  // Counter update strictly after the snapshot logic (see header comment).
  port.ingress.counters().on_packet(*pkt, now);

  // Probes are single-hop: they exist to carry markers across one link.
  if (pkt->is_probe()) return;

  // --- Forwarding -----------------------------------------------------------
  if (pkt->ttl == 0) {  // Transient loop protection, as in real networks.
    ++ttl_drops_;
    return;
  }
  --pkt->ttl;
  pkt->meta_ingress_port = in_port;
  const std::span<const net::PortId> candidates =
      routing_.lookup(pkt->dst_host);
  if (candidates.empty()) {
    ++fwd_drops_;
    return;
  }
  if (pkt->counts_for_metrics()) {
    port.ingress.counters().stamp_fib_version(routing_.version());
  }
  const net::PortId out = candidates.size() == 1
                              ? candidates[0]
                              : lb_->choose(*pkt, candidates, now);

  if (audit_) {
    // Test-only ground-truth hook; audit implementations may buffer.
    sim::det::DetAllow allow_audit;
    audit_->on_internal_send(id(), in_port, out, pkt->audit_virtual_sid,
                             pkt->counts_for_metrics());
  }
  enqueue(out, std::move(pkt));
}

void Switch::enqueue(net::PortId out, net::PooledPacket pkt,
                     std::size_t forced_class) {
  sim::det::DataPathScope datapath;  // Queue admission: no allocations.
  Port& port = ports_.at(out);
  const std::size_t cls = port.queue.clamp(
      forced_class == kClassifyByPacket ? classify(*pkt) : forced_class);
  if (!port.wake_pending && port.busy_until <= sim_.now()) {
    // Idle port: the packet would be pushed and popped straight back in
    // this call, so it departs without entering the queue. Between events
    // a non-empty queue always has a wake-up pending.
    assert(port.queue.empty() && "idle port with a backlog");
    if (port.queue.pass(cls)) {
      depart(out, std::move(pkt), cls);
      return;
    }
  } else if (port.queue.push(std::move(pkt), cls)) {
    // Busy port: the wake-up at its departure dequeues the packet.
    if (!port.wake_pending) wake_at_departure(out, {});
    return;
  }
  // The packet's class had no room for it: dropped.
  if (audit_) {
    sim::det::DetAllow allow_audit;  // Test-only hook; may buffer.
    audit_->on_queue_drop(id(), out);
  }
}

void Switch::start_transmission(net::PortId out) {
  sim::det::DataPathScope datapath;  // Dequeue + egress unit: no allocations.
  Port& port = ports_.at(out);
  auto popped = port.queue.pop();
  if (!popped) return;
  auto& [pkt, cls] = *popped;
  depart(out, std::move(pkt), cls);
  // The port only needs waking when another packet is already waiting.
  if (!port.wake_pending && !port.queue.empty()) wake_at_departure(out, {});
}

void Switch::depart(net::PortId out, net::PooledPacket pkt, std::size_t cls) {
  Port& port = ports_.at(out);
  // Egress processing happens as the packet leaves the queue (Figure 5).
  process_egress(out, *pkt, cls);

  const sim::Duration ser =
      port.link ? port.link->serialization_delay(pkt->size_bytes)
                : sim::nsec(100);
  port.busy_until = sim_.now() + ser;
  if (port.link != nullptr && port.link->dynamic_loss()) {
    // The link's loss may change mid-serialization: decide it at departure.
    wake_at_departure(out, std::move(pkt));
    return;
  }
  // The wire after the egress unit is a FIFO channel, so the packet is
  // handed over now with its departure time.
  transmit(out, std::move(pkt), port.busy_until);
}

void Switch::wake_at_departure(net::PortId out, net::PooledPacket pkt) {
  Port& port = ports_.at(out);
  port.wake_pending = true;
  sim_.at(port.busy_until, [this, out, pkt = std::move(pkt)]() mutable {
    ports_.at(out).wake_pending = false;
    if (pkt) transmit(out, std::move(pkt), sim_.now());
    start_transmission(out);
  });
}

void Switch::process_egress(net::PortId out, net::Packet& pkt,
                            std::size_t cls) {
  Port& port = ports_.at(out);
  const sim::SimTime now = sim_.now();
  if (options_.snapshot_enabled && pkt.snap.present) {
    snap::PacketView view;
    view.packet_id = pkt.id;
    view.size_bytes = pkt.size_bytes;
    view.counts_for_metrics = pkt.counts_for_metrics();
    view.has_marker = true;
    view.wire_sid = pkt.snap.wire_sid;
    const std::uint16_t channel = egress_channel(pkt.meta_ingress_port, cls);
    snap::DataplaneUnit& dp = port.egress.ensure_dataplane();
    pkt.snap.wire_sid = dp.on_packet(view, channel, now);
    pkt.snap.channel = 0;  // Switched Ethernet: one upstream per ingress.
    pkt.audit_virtual_sid = dp.virtual_sid();
  }
  port.egress.counters().on_packet(pkt, now);
}

void Switch::transmit(net::PortId out, net::PooledPacket pkt,
                      sim::SimTime departed) {
  sim::det::DataPathScope datapath;  // Wire handoff: no allocations.
  Port& port = ports_.at(out);
  if (!port.link) return;  // Unconnected port: blackhole (packet recycled).
  if (port.to_host) {
    if (pkt->is_probe()) return;  // Probes never reach applications.
    pkt->snap = net::SnapshotHeader{};  // Strip before delivery (Section 5.1).
  }
  if (audit_) {
    sim::det::DetAllow allow_audit;  // Test-only hook; may buffer.
    audit_->on_external_send(id(), out, pkt->audit_virtual_sid,
                             pkt->counts_for_metrics());
  }
  port.link->deliver(std::move(pkt), departed);
}

void Switch::do_inject_initiation(net::PortId port_id, snap::WireSid sid) {
  // CPU -> ingress -> same-port egress (Figure 6, path 3). The initiation
  // bypasses the output queue; it travels on the CPU pseudo-channel so
  // per-channel FIFO id monotonicity is preserved for data channels.
  sim_.after(timing_.cpu_to_dataplane_latency, [this, port_id, sid]() {
    if (!options_.snapshot_enabled) return;
    Port& port = ports_.at(port_id);
    const snap::WireSid stamped =
        port.ingress.ensure_dataplane().on_initiation(sid, sim_.now());
    sim_.after(timing_.fabric_delay, [this, port_id, stamped]() {
      Port& p = ports_.at(port_id);
      p.egress.ensure_dataplane().on_initiation(stamped, sim_.now());
      // The initiation is dropped after processing.
    });
  });
}

void Switch::do_inject_probe(net::PortId port_id) {
  // A probe picks up the ingress unit's current id and floods every egress
  // port, refreshing markers on all internal sub-channels and on the links
  // to direct neighbors (Section 6, liveness without traffic). Like data on
  // its sub-channels, it pays the pipeline latency before the ingress unit.
  const sim::Duration latency =
      timing_.cpu_to_dataplane_latency + timing_.fabric_delay;
  sim_.after(latency, [this, port_id]() {
    if (!options_.snapshot_enabled) return;
    Port& port = ports_.at(port_id);
    snap::PacketView view;
    view.has_marker = false;  // Stamp only; do not move the ingress state.
    view.counts_for_metrics = false;
    snap::DataplaneUnit& dp = port.ingress.ensure_dataplane();
    const snap::WireSid stamped =
        dp.on_packet(view, kIngressCpuChannel, sim_.now());

    net::PooledPacket probe = net::PooledPacket::make();
    probe->id = (static_cast<std::uint64_t>(id()) << 40) |
                (0xABull << 32) | probe_serial_++;
    probe->size_bytes = 64;
    probe->snap.present = true;
    probe->snap.kind = net::PacketKind::Probe;
    probe->snap.wire_sid = stamped;
    probe->meta_ingress_port = port_id;
    probe->audit_virtual_sid = dp.virtual_sid();

    // Flood every egress port — including unconnected ones, whose egress
    // units still participate in snapshots and need their internal
    // channels refreshed (the blackhole transmit drops the probe).
    // One probe per (egress port, CoS class): every FIFO sub-channel of
    // Figure 2 needs its own marker, or completion stalls on classes that
    // happen to carry no traffic.
    for (net::PortId out = 0; out < options_.num_ports; ++out) {
      for (std::size_t cls = 0; cls < fabric_.cos_classes; ++cls) {
        enqueue(out, probe.clone(), cls);
      }
    }
  });
}

snap::UnitHandle* Switch::unit(net::PortId port, net::Direction dir) {
  Port& p = ports_.at(port);
  return dir == net::Direction::Ingress ? static_cast<snap::UnitHandle*>(&p.ingress)
                                        : static_cast<snap::UnitHandle*>(&p.egress);
}

const CounterSet& Switch::counters(net::PortId port, net::Direction dir) const {
  const Port& p = ports_.at(port);
  return dir == net::Direction::Ingress ? p.ingress.counters()
                                        : p.egress.counters();
}

std::size_t Switch::queue_depth(net::PortId port) const {
  return ports_.at(port).queue.size();
}

const CosQueueSet& Switch::egress_queue(net::PortId port) const {
  return ports_.at(port).queue;
}

std::uint64_t Switch::queue_drops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) total += ports_[i].queue.drops();
  return total;
}

std::uint64_t Switch::snapshot_captures() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    total += p.ingress.captures() + p.egress.captures();
  }
  return total;
}

std::uint64_t Switch::snapshot_notifications() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    total += p.ingress.notifications_sent() + p.egress.notifications_sent();
  }
  return total;
}

std::size_t Switch::register_bytes() const {
  const auto* flowlet = dynamic_cast<const FlowletBalancer*>(lb_.get());
  std::size_t total = flowlet ? flowlet->table_bytes() : 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    total += p.ingress.value_bytes() + p.egress.value_bytes();
  }
  return total;
}

std::size_t Switch::materialized_ports() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    if (p.ingress.has_dataplane() || p.egress.has_dataplane() ||
        p.queue.materialized()) {
      ++n;
    }
  }
  return n;
}

}  // namespace speedlight::sw
