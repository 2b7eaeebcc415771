// The public Speedlight facade: instantiate a topology into a live
// simulated network with snapshot-enabled switches, a PTP service, a
// snapshot observer, and a polling baseline — everything the paper's
// evaluation (and a downstream user) needs, behind one builder.
//
// Typical use:
//
//   speedlight::core::NetworkOptions opt;
//   opt.snapshot.channel_state = true;
//   speedlight::core::Network net(speedlight::net::make_leaf_spine(2, 2, 3),
//                                 opt);
//   auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
//   net.run_for(sim::msec(20));
//   const auto* snap = net.observer().result(*id);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/arena.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/partition.hpp"
#include "net/soa.hpp"
#include "net/topology.hpp"
#include "obs/streaming.hpp"
#include "obs/timeline.hpp"
#include "polling/polling_observer.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/ptp.hpp"
#include "switchlib/switch.hpp"

namespace speedlight::core {

struct NetworkOptions {
  std::uint64_t seed = 1;
  sim::TimingModel timing;

  snap::SnapshotConfig snapshot;
  sw::MetricKind metric = sw::MetricKind::PacketCount;

  sw::LoadBalancerKind load_balancer = sw::LoadBalancerKind::Ecmp;
  sim::Duration flowlet_gap = sim::usec(50);

  std::size_t cos_classes = 1;
  /// Maps packets to CoS classes (null = class 0); applied on every switch.
  std::function<std::size_t(const net::Packet&)> classifier;
  std::size_t queue_capacity = 4096;
  /// Every switch's SwitchOptions::fabric_delay: pipeline latency, charged
  /// on the inbound wire before the ingress unit.
  sim::Duration fabric_delay = sim::nsec(400);
  snap::NotificationMode notification_mode = snap::NotificationMode::RawSocket;

  /// Control-plane wire fast path (DESIGN.md section 16): notifications and
  /// unit reports cross process boundaries as v2-encoded frames, service
  /// time scales with frame size, and the observer assembles from per-link
  /// decoders. Off (default) preserves the exact v1 struct-shipping model.
  bool wire_fast_path = false;
  /// Wire encoding knobs, meaningful with wire_fast_path. The `wire.*`
  /// metrics series (notification/report/keyframe/delta bytes, fallback and
  /// drop counters) register on the control shard when the fast path is on.
  snap::WireOptions wire;

  /// Enable In-band Network Telemetry on all switches.
  bool int_enabled = false;
  /// ECN marking threshold in packets (0 = off), applied on all switches.
  std::size_t ecn_threshold = 0;

  snap::Observer::Options observer;
  snap::ControlPlane::Options control;

  /// Channel-state snapshots stall on traffic-less channels; by default the
  /// builder turns on probe flooding at initiation and re-initiation
  /// (Section 6's broadcast injection). Disable to study the failure mode.
  bool force_probe_liveness = true;

  /// Partial deployment (Section 10): when true, channels that traverse a
  /// snapshot-disabled transit switch still gate completion and carry
  /// markers (valid only when the transit path is single-source FIFO, e.g.
  /// a chain — the paper's path-tagging requirement). When false (default),
  /// such channels are conservatively removed from completion.
  bool transit_neighbors_carry_markers = false;

  /// Start the PTP correction loop (on by default, as on the testbed).
  bool start_ptp = true;
  /// Start each control plane's proactive register poll loop.
  bool start_register_poll = false;

  /// Parallel execution: partition the topology into this many shards,
  /// each driven by its own event queue, advanced in lockstep sweeps
  /// synchronized conservatively on link-latency lookahead. The
  /// partitioner may use fewer shards than requested (it never splits a
  /// zero-latency trunk). 1 (the default) is plain serial execution.
  /// Any shard count produces bit-identical results: execution order is
  /// canonical (time, merge key, schedule order) at every shard count.
  std::size_t shards = 1;
  /// Expected workload flows, used to weight trunks for traffic-aware
  /// partitioning (shards > 1). Empty = uniform weights (the partitioner
  /// minimizes the crossing-trunk count). Purely advisory: hints shape the
  /// shards and the achieved cut (Partition::stats), never the results.
  std::vector<net::FlowHint> traffic_hints;

  /// Fabrics up to this many switches register the classic per-instance
  /// "switch.<name>.*" metric series; larger fabrics register only the
  /// fixed-cardinality fabric-wide streaming view ("fabric.*",
  /// obs/streaming.hpp) — per-instance names and reader closures alone are
  /// O(switches) memory at production scale. Set to 0 to force streaming
  /// (the metrics tests do), or SIZE_MAX to force per-instance everywhere.
  std::size_t per_instance_metrics_limit = 64;
};

class Network {
 public:
  Network(const net::TopologySpec& spec, NetworkOptions options);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Simulation control ----------------------------------------------------
  /// The control shard's simulator (shard 0: observer, poller, campaign
  /// scheduling). With shards == 1 this is the only simulator.
  [[nodiscard]] sim::Simulator& simulator() { return *sims_[0]; }
  [[nodiscard]] sim::SimTime now() const { return sims_[0]->now(); }
  void run_for(sim::Duration d) { run_until(now() + d); }
  void run_until(sim::SimTime t) {
    if (engine_ != nullptr) {
      engine_->run_until(t);
    } else {
      sims_[0]->run_until(t);
    }
  }

  /// Actual shard count after partitioning (<= options().shards).
  [[nodiscard]] std::size_t num_shards() const { return sims_.size(); }
  [[nodiscard]] sim::Simulator& shard_simulator(std::size_t i) {
    return *sims_.at(i);
  }
  /// The parallel engine, or nullptr when running serially (1 shard).
  [[nodiscard]] const sim::ParallelEngine* engine() const {
    return engine_.get();
  }
  [[nodiscard]] const net::Partition& partition() const { return part_; }
  /// Shard owning switch `s` / host `h` (all zero with 1 shard). Workload
  /// generators and fault injectors must schedule their events on the
  /// owning shard's simulator.
  [[nodiscard]] std::size_t switch_shard(std::size_t s) const {
    return part_.switch_shard.empty() ? 0 : part_.switch_shard[s];
  }
  [[nodiscard]] std::size_t host_shard(std::size_t h) const {
    return part_.host_shard.empty() ? 0 : part_.host_shard[h];
  }
  /// Total pending events across every shard.
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& s : sims_) n += s->pending();
    return n;
  }

  // --- Topology access --------------------------------------------------------
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] sw::Switch& switch_at(std::size_t i) { return switches_.at(i); }
  [[nodiscard]] net::Host& host(std::size_t i) { return hosts_.at(i); }
  /// Node id of host `i` (what Host::send routes on).
  [[nodiscard]] net::NodeId host_id(std::size_t i) const {
    return hosts_.at(i).id();
  }
  [[nodiscard]] const net::TopologySpec& spec() const { return spec_; }
  /// The struct-of-arrays topology view and the shared interned route base
  /// every switch's RoutingTable points into (src/net/soa.hpp).
  [[nodiscard]] const net::TopologyIndex& topology_index() const {
    return index_;
  }
  [[nodiscard]] const net::CompactRoutes& compact_routes() const {
    return routes_;
  }

  /// Ports across the fabric whose snapshot state machines or queue rings
  /// have materialized — the scale tests assert this stays O(ports
  /// touched), not O(ports built).
  [[nodiscard]] std::size_t materialized_ports() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      n += switches_[i].materialized_ports();
    }
    return n;
  }

  /// Direct access to the instantiated links, for taps and fault injection.
  /// Host access links: `host_uplink`/`host_downlink`; trunk links by index
  /// into spec().trunks and direction.
  [[nodiscard]] net::Link& host_uplink(std::size_t host) {
    return links_.at(2 * host);
  }
  [[nodiscard]] net::Link& host_downlink(std::size_t host) {
    return links_.at(2 * host + 1);
  }
  [[nodiscard]] net::Link& trunk_link(std::size_t trunk, bool a_to_b) {
    return links_.at(2 * spec_.hosts.size() + 2 * trunk + (a_to_b ? 0 : 1));
  }

  // --- Measurement services ----------------------------------------------------
  [[nodiscard]] snap::Observer& observer() { return *observer_; }
  [[nodiscard]] poll::PollingObserver& poller() { return *poller_; }
  [[nodiscard]] snap::PtpService& ptp() { return *ptp_; }
  [[nodiscard]] const NetworkOptions& options() const { return options_; }

  /// Fabric-wide wire accounting summed across shards (all zeros unless
  /// wire_fast_path). Collect while the simulation is not running.
  [[nodiscard]] snap::WireStats wire_stats_total() const;

  /// Mutable view of the live timing model (the control shard's copy;
  /// with 1 shard it is the only copy, and every component holds a
  /// reference into it, so mutation takes effect immediately — the
  /// fault-injection hook behind notification drop bursts and CPU
  /// service-time spikes in src/check). Parameters sampled once at
  /// construction (clock drift rates, buffer capacities) are unaffected.
  /// Under the engine, prefer mutate_timing_at(), which mutates every
  /// shard's copy at one simulated instant.
  [[nodiscard]] sim::TimingModel& mutable_timing() { return *shard_timing_[0]; }

  /// Apply `fn` to every shard's timing copy at simulated time `when`
  /// (>= now). The mutation lands as an ordinary event on each shard's
  /// queue, so every shard sees it at the same simulated instant and the
  /// run stays deterministic for any shard count.
  void mutate_timing_at(sim::SimTime when,
                        std::function<void(sim::TimingModel&)> fn);

  /// Register every unit of every snapshot-capable switch with the polling
  /// baseline, in deterministic (switch, port, direction) order.
  void register_all_units_for_polling();

  /// Convenience: request a snapshot `lead` in the future, run the
  /// simulation until it completes (or `max_wait` elapses), and return it.
  const snap::GlobalSnapshot* take_snapshot(
      sim::Duration lead = sim::msec(1), sim::Duration max_wait = sim::msec(500));

  // --- Flight recorder ---------------------------------------------------------
  /// Start recording structured trace events into a bounded ring (oldest
  /// records are overwritten once full) and name every track after its
  /// device/unit so exports are human-readable. Idempotent.
  void enable_tracing(std::size_t capacity = obs::Tracer::kDefaultCapacity);

  /// The control shard's tracer / metrics registry. Under the engine each
  /// shard records into its own ring; enable_tracing() turns them all on,
  /// and export_chrome_trace() merges every shard's records.
  [[nodiscard]] obs::Tracer& tracer() { return sims_[0]->tracer(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return sims_[0]->metrics(); }

  /// Write the recorded trace as Chrome trace-event JSON (loadable in
  /// Perfetto / chrome://tracing). Returns false on I/O failure.
  bool export_chrome_trace(const std::string& path) const;

  /// Start the engine's per-shard round profiler (obs/prof.hpp): one
  /// RoundRecord per planned window or stall, per shard. No-op when
  /// running serially (1 shard) or when the trace layer is compiled out.
  /// Call before run_until; read engine_profiler() after it returns.
  void enable_engine_profiling(std::size_t capacity_per_shard = 0);

  /// The engine's round profiler, or nullptr (serial run, profiling never
  /// enabled, or trace layer compiled out). Feed obs::analyze() for the
  /// blame matrix or obs::export_profile_chrome_trace() for the timeline.
  [[nodiscard]] const obs::EngineProfiler* engine_profiler() const;

  /// Reconstruct the causal timeline of snapshot `id` from the trace ring.
  /// Requires enable_tracing() before the snapshot ran.
  [[nodiscard]] obs::SnapshotTimeline snapshot_timeline(std::uint64_t id) const;

 private:
  /// Keyed endpoint delivering onto shard `to`, posted from shard `from`.
  /// Same-shard posts are local keyed schedules; cross-shard posts go
  /// through the engine's channel. Serial builds get the local form too,
  /// so the canonical (time, key, seq) order is identical in every mode.
  [[nodiscard]] sim::Endpoint make_endpoint(std::size_t from, std::size_t to,
                                            sim::MergeKey key);

  NetworkOptions options_;
  net::TopologySpec spec_;
  net::Partition part_;
  /// Struct-of-arrays topology core. Declared before the device arenas:
  /// every switch's RoutingTable points into routes_, so the route base
  /// must outlive the switches (members destroy in reverse order).
  net::TopologyIndex index_;
  net::CompactRoutes routes_;
  /// Shard 0 is the control shard (observer, poller, campaign clock).
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  /// Per-shard timing copies at stable addresses; [0] doubles as the
  /// serial-mode "the" timing model.
  std::vector<std::unique_ptr<sim::TimingModel>> shard_timing_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  sim::MergeKey next_key_ = 1;  ///< 0 is reserved for unkeyed local events.

  /// Contiguous id-indexed device storage: one allocation per kind, stable
  /// addresses (components exchange raw pointers at wiring time), no
  /// per-entity heap objects or pointer indirections.
  net::ObjectArena<sw::Switch> switches_;
  net::ObjectArena<net::Host> hosts_;
  net::ObjectArena<net::Link> links_;

  /// Fabric-wide O(1)-memory metric accumulators (large fabrics).
  obs::StreamingMetrics streaming_;

  /// Wire accounting, one instance per shard at a stable address (each is
  /// written only by its shard; readers sum across shards when idle).
  std::vector<std::unique_ptr<snap::WireStats>> wire_stats_;

  std::unique_ptr<snap::PtpService> ptp_;
  std::unique_ptr<snap::Observer> observer_;
  std::unique_ptr<poll::PollingObserver> poller_;
};

}  // namespace speedlight::core
