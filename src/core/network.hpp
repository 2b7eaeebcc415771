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

#include "net/arena.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/soa.hpp"
#include "net/topology.hpp"
#include "obs/timeline.hpp"
#include "polling/polling_observer.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/ptp.hpp"
#include "switchlib/switch.hpp"

namespace speedlight::core {

/// A Network's configuration. The settings every switch shares
/// (sw::FabricOptions: snapshot variant, metric, load balancer, CoS, queue
/// capacity, notification transport, wire format, control-plane liveness)
/// are declared once, in the base; the observer and every control plane
/// run the fabric's snapshot variant and wire format.
struct NetworkOptions : sw::FabricOptions {
  std::uint64_t seed = 1;
  /// Every latency constant, the switch pipeline's included.
  sim::TimingModel timing;

  /// Must be true: notifications and unit reports always cross process
  /// boundaries as v2 wire frames. false makes the constructor throw
  /// std::invalid_argument. Kept so callers that still set it keep
  /// compiling.
  bool wire_fast_path = true;

  snap::Observer::Options observer;

  /// Partial deployment (Section 10): when true, channels that traverse a
  /// snapshot-disabled transit switch still gate completion and carry
  /// markers (valid only when the transit path is single-source FIFO, e.g.
  /// a chain — the paper's path-tagging requirement). When false (default),
  /// such channels are conservatively removed from completion.
  bool transit_neighbors_carry_markers = false;

  /// Must be 1: a Network runs on one simulator. Any other value makes the
  /// constructor throw std::invalid_argument. Kept, last, so callers that
  /// still set it keep compiling.
  std::size_t shards = 1;
};

class Network {
 public:
  Network(const net::TopologySpec& spec, NetworkOptions options);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Simulation control ----------------------------------------------------
  /// The one simulator every device, service and workload schedules on.
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }
  void run_for(sim::Duration d) { run_until(now() + d); }
  void run_until(sim::SimTime t) { sim_.run_until(t); }
  [[nodiscard]] std::size_t pending() const { return sim_.pending(); }

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

  /// Register state held fabric-wide (sw::Switch::register_bytes summed).
  [[nodiscard]] std::size_t register_bytes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      n += switches_[i].register_bytes();
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
  [[nodiscard]] const NetworkOptions& options() const { return options_; }

  /// Fabric-wide wire accounting.
  [[nodiscard]] snap::WireStats wire_stats_total() const { return wire_stats_; }

  /// Apply `fn` to the timing model at simulated time `when` (>= now). The
  /// mutation is one event under its own fresh merge key, so its order
  /// among other events at `when` is fixed by construction order.
  /// Components hold references into the live model, so it takes effect at
  /// once; values sampled at construction (clock drift rates, buffer
  /// capacities) do not change.
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

  /// The simulator's tracer / metrics registry.
  [[nodiscard]] obs::Tracer& tracer() { return sim_.tracer(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return sim_.metrics(); }

  /// Write the recorded trace as Chrome trace-event JSON (loadable in
  /// Perfetto / chrome://tracing). Returns false on I/O failure.
  bool export_chrome_trace(const std::string& path) const;

  /// Reconstruct the causal timeline of snapshot `id` from the trace ring.
  /// Requires enable_tracing() before the snapshot ran.
  [[nodiscard]] obs::SnapshotTimeline snapshot_timeline(std::uint64_t id) const;

 private:
  /// The next channel merge key. Keys are handed out in construction
  /// order, so a channel's key is a pure function of the topology and the
  /// canonical (time, key, seq) order follows from it.
  [[nodiscard]] sim::MergeKey make_key() { return next_key_++; }

  NetworkOptions options_;
  net::TopologySpec spec_;
  /// The shared interned route base (src/net/soa.hpp). Declared before the
  /// device arenas: every switch's RoutingTable points into it, so it must
  /// outlive the switches (members destroy in reverse order).
  net::CompactRoutes routes_;
  /// Declared before everything that holds a reference to them.
  sim::Simulator sim_;
  sim::TimingModel timing_;
  sim::MergeKey next_key_ = 1;  ///< 0 is reserved for unkeyed local events.

  /// Contiguous id-indexed device storage: one allocation per kind, stable
  /// addresses (components exchange raw pointers at wiring time), no
  /// per-entity heap objects or pointer indirections.
  net::ObjectArena<sw::Switch> switches_;
  net::ObjectArena<net::Host> hosts_;
  net::ObjectArena<net::Link> links_;

  /// Wire accounting, written by every encoder and decoder.
  snap::WireStats wire_stats_;

  std::unique_ptr<snap::PtpService> ptp_;
  std::unique_ptr<snap::Observer> observer_;
  std::unique_ptr<poll::PollingObserver> poller_;
};

}  // namespace speedlight::core
