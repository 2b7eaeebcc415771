// The switch model: per-port ingress/egress processing units, CoS output
// queues, multipath forwarding, the embedded Speedlight data plane, and the
// on-device control plane with its notification channel.
//
// Pipeline ordering note: the snapshot header is examined *before* the
// counter update. A packet carrying snapshot id i is a post-snapshot-i send
// at its upstream neighbor, so it must not be included in this unit's
// snapshot-i state — this ordering is exactly what the paper's proof sketch
// (Section 4.2) requires.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/arena.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/config.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/digest_channel.hpp"
#include "snapshot/notification_channel.hpp"
#include "snapshot/notification_transport.hpp"
#include "snapshot/unit_handle.hpp"
#include "switchlib/counters.hpp"
#include "switchlib/forwarding.hpp"
#include "switchlib/load_balancer.hpp"
#include "switchlib/metric.hpp"
#include "switchlib/queue.hpp"

namespace speedlight::sw {

/// Ground-truth hooks used by the property tests; not part of the protocol.
/// Test-only instrumentation: the pointer is null in every production and
/// benchmark configuration, so the virtuals below never dispatch on a
/// measured path (hence the per-line lint exemptions).
class SwitchAudit {
 public:
  // speedlight-lint: allow(virtual-in-datapath) test-only hook, see above.
  virtual ~SwitchAudit() = default;
  /// A packet was committed to the internal channel ingress `in` -> egress
  /// `out` carrying virtual snapshot id `vsid`.
  // speedlight-lint: allow(virtual-in-datapath) test-only hook, see above.
  virtual void on_internal_send(net::NodeId sw, net::PortId in, net::PortId out,
                                std::uint64_t vsid, bool counts) {
    (void)sw; (void)in; (void)out; (void)vsid; (void)counts;
  }
  /// A packet left egress port `out` carrying virtual snapshot id `vsid`.
  // speedlight-lint: allow(virtual-in-datapath) test-only hook, see above.
  virtual void on_external_send(net::NodeId sw, net::PortId out,
                                std::uint64_t vsid, bool counts) {
    (void)sw; (void)out; (void)vsid; (void)counts;
  }
  // speedlight-lint: allow(virtual-in-datapath) test-only hook, see above.
  virtual void on_queue_drop(net::NodeId sw, net::PortId out) {
    (void)sw; (void)out;
  }
};

/// The settings every switch of a fabric shares, each declared once:
/// core::NetworkOptions extends this struct, and every switch reads the one
/// copy its Network holds.
struct FabricOptions {
  snap::SnapshotConfig snapshot;
  MetricKind metric = MetricKind::PacketCount;

  LoadBalancerKind load_balancer = LoadBalancerKind::Ecmp;
  sim::Duration flowlet_gap = sim::usec(50);

  /// Class-of-service sub-channels per internal channel (Section 4.1).
  /// Must be >= 1.
  std::size_t cos_classes = 1;
  /// Maps a packet to its class in [0, cos_classes). Null = class 0.
  /// The options must stay copyable, which rules out InplaceFunction
  /// (move-only); the classifier is invoked only when cos_classes > 1.
  // speedlight-lint: allow(std-function-in-datapath) copyable options struct.
  std::function<std::size_t(const net::Packet&)> classifier;

  std::size_t queue_capacity = 4096;  ///< Packets per class per port.

  /// ASIC->CPU notification path: raw-socket DMA (the paper's choice) or
  /// the batched digest stream it rejected (kept for the ablation bench).
  snap::NotificationMode notification_mode = snap::NotificationMode::RawSocket;

  /// Control-plane wire format (DESIGN.md section 16) of every
  /// notification transport and report link: notifications cross PCIe as
  /// encoded frames and, when charging bytes, service time scales with
  /// frame size.
  snap::WireOptions wire;

  /// Every control plane's liveness options. With `proactive_register_poll`
  /// set, each snapshot-enabled control plane starts its register-poll loop
  /// as the network is built. Channel-state snapshots stall on traffic-less
  /// channels, so `probe_on_initiate` and `probe_on_reinitiate` default to
  /// Section 6's broadcast injection; clear them to study the failure mode.
  snap::ControlPlane::Options control;
};

/// What differs from one switch to the next.
struct SwitchOptions {
  std::uint16_t num_ports = 0;
  /// Partial deployment: a disabled switch forwards packets (and any
  /// snapshot headers) untouched.
  bool snapshot_enabled = true;
};

class Switch final : public net::Node {
 public:
  /// `timing` and `fabric` are shared by the whole fabric and must outlive
  /// the switch, as must `wire_stats` (the wire accounting its notification
  /// transport writes; may be null). A fabric with no CoS class throws
  /// std::invalid_argument.
  Switch(sim::Simulator& sim, net::NodeId id, std::string name,
         const sim::TimingModel& timing, const FabricOptions& fabric,
         SwitchOptions options, sim::Rng rng,
         snap::WireStats* wire_stats = nullptr);
  ~Switch() override;

  // --- Wiring (all before finalize(); after it they throw std::logic_error) --
  /// Attach the outgoing link of `port`. `to_host` marks host-facing ports:
  /// snapshot headers are stripped on egress and the ingress external
  /// channel is excluded from completion (hosts never carry markers).
  void attach_link(net::PortId port, net::Link* link, bool to_host);

  /// Partial-deployment override: the upstream device on `port` is a
  /// non-snapshot-enabled switch, so no markers arrive on this channel.
  void set_ingress_neighbor_enabled(net::PortId port, bool enabled);

  void set_route(net::NodeId dst_host, std::vector<net::PortId> ports);

  /// Build processing units and the control plane, after
  /// attach_link()/set_ingress_neighbor_enabled(). A second call throws
  /// std::logic_error.
  void finalize();

  // --- Data path ------------------------------------------------------------
  void receive(net::PooledPacket pkt, net::PortId port) override;
  [[nodiscard]] bool is_host() const override { return false; }
  [[nodiscard]] sim::Duration pipeline_latency() const override {
    return timing_.fabric_delay;
  }

  // --- Access ----------------------------------------------------------------
  [[nodiscard]] snap::ControlPlane& control_plane() { return *cp_; }
  [[nodiscard]] snap::NotificationTransport& notifications() { return *notif_; }
  [[nodiscard]] snap::UnitHandle* unit(net::PortId port, net::Direction dir);
  [[nodiscard]] RoutingTable& routing() { return routing_; }
  [[nodiscard]] const SwitchOptions& options() const { return options_; }
  [[nodiscard]] const CounterSet& counters(net::PortId port,
                                           net::Direction dir) const;
  [[nodiscard]] std::size_t queue_depth(net::PortId port) const;
  /// The egress port's class-of-service queues: per-class occupancy, drops
  /// and depth high-water marks.
  [[nodiscard]] const CosQueueSet& egress_queue(net::PortId port) const;
  [[nodiscard]] std::uint64_t queue_drops() const;
  [[nodiscard]] std::uint64_t forwarding_drops() const { return fwd_drops_; }
  [[nodiscard]] std::uint64_t ttl_drops() const { return ttl_drops_; }
  /// Aggregate snapshot captures / notifications over materialized units.
  [[nodiscard]] std::uint64_t snapshot_captures() const;
  [[nodiscard]] std::uint64_t snapshot_notifications() const;
  /// Bytes of register state held in host memory: the flowlet table plus
  /// every materialized unit's Snapshot Value array. Both grow with the
  /// state a run makes live, so this is deterministic per run.
  [[nodiscard]] std::size_t register_bytes() const;

  /// Ports whose snapshot state machines or queue rings have materialized.
  /// Untouched ports of a large fabric cost ~0 bytes beyond the port record
  /// itself; this probe is what the scale tests assert O(ports-touched) on.
  [[nodiscard]] std::size_t materialized_ports() const;

  void set_audit(SwitchAudit* audit) { audit_ = audit; }

  /// Ingress channel indices within a unit.
  static constexpr std::uint16_t kIngressExternalChannel = 0;
  static constexpr std::uint16_t kIngressCpuChannel = 1;

  /// Egress channel index for a packet from `in_port` in CoS class `cls`.
  [[nodiscard]] std::uint16_t egress_channel(net::PortId in_port,
                                             std::size_t cls) const {
    return static_cast<std::uint16_t>(in_port * fabric_.cos_classes + cls);
  }
  [[nodiscard]] std::uint16_t egress_cpu_channel() const {
    return static_cast<std::uint16_t>(options_.num_ports *
                                      fabric_.cos_classes);
  }

 private:
  class PortUnit;
  struct Port;

  void enqueue(net::PortId out, net::PooledPacket pkt,
               std::size_t forced_class = kClassifyByPacket);
  static constexpr std::size_t kClassifyByPacket = ~std::size_t{0};
  /// Dequeue the next packet and depart() it. The port must be idle.
  void start_transmission(net::PortId out);
  /// Run egress processing on `pkt` of class `cls` and hand it to the link:
  /// the one egress path, for dequeued packets and for packets passing
  /// straight through an idle port. The port must be idle.
  void depart(net::PortId out, net::PooledPacket pkt, std::size_t cls);
  /// Schedule the port's next dequeue where the current packet finishes
  /// serializing, delivering `pkt` (if any) there first.
  void wake_at_departure(net::PortId out, net::PooledPacket pkt);
  void process_egress(net::PortId out, net::Packet& pkt, std::size_t cls);
  void transmit(net::PortId out, net::PooledPacket pkt, sim::SimTime departed);
  [[nodiscard]] std::size_t classify(const net::Packet& pkt) const;
  void do_inject_initiation(net::PortId port, snap::WireSid sid);
  void do_inject_probe(net::PortId port);

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  const FabricOptions& fabric_;
  SwitchOptions options_;
  sim::Rng rng_;
  snap::WireStats* wire_stats_;
  bool finalized_ = false;

  /// Contiguous id-indexed port records (one arena allocation, no
  /// per-entity heap objects); the heavyweight per-port state inside each
  /// record (snapshot register files, queue rings) materializes lazily.
  net::ObjectArena<Port> ports_;
  RoutingTable routing_;
  std::unique_ptr<LoadBalancer> lb_;
  std::unique_ptr<snap::ControlPlane> cp_;
  std::unique_ptr<snap::NotificationTransport> notif_;
  SwitchAudit* audit_ = nullptr;

  std::uint64_t fwd_drops_ = 0;
  std::uint64_t ttl_drops_ = 0;
  std::uint64_t probe_serial_ = 0;
};

}  // namespace speedlight::sw
