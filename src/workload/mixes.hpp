// Production workload mixes for large-fabric runs: the traffic shapes that
// stress a datacenter-scale snapshot deployment in ways the fuzzer's
// uniform Poisson all-to-all does not — synchronized cross-rack incast
// storms (fan-in collapse at one access port), datacenter-wide shuffle
// (every trunk loaded, heavy ECMP churn), and mixed-tenant traffic
// (partitioned host sets with asymmetric service/batch behaviour).
//
// Like wl::PoissonGenerator, each generator instance drives exactly ONE
// source host. Fabric-wide structure (everyone bursts at the same instant,
// everyone walks the same shuffle schedule) comes from shared *parameters*
// — a common epoch and period — not from shared state, so each generator's
// events depend only on its own host and seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/basic.hpp"
#include "workload/flow.hpp"

namespace speedlight::wl {

/// Cross-rack incast: this source periodically fires a burst of packets at
/// one victim host, phase-aligned with every other IncastGenerator sharing
/// the same period (all sources constructed with the same options hit the
/// victim together — the storm). Jitter decorrelates packet-level
/// interleaving without breaking the storm structure.
class IncastGenerator final : public Generator {
 public:
  struct Options {
    sim::Duration period = sim::msec(1);    ///< Storm cadence (shared).
    std::uint32_t burst_packets = 64;       ///< Packets per source per storm.
    std::uint32_t packet_size = 1000;
    double burst_rate_bps = 10e9;           ///< Pacing inside the burst.
    sim::Duration start_jitter = sim::usec(20);  ///< Per-source phase noise.
  };

  IncastGenerator(sim::Simulator& sim, net::Host& src, net::NodeId victim,
                  Options options, sim::Rng rng)
      : sim_(sim), src_(src), victim_(victim), options_(options), rng_(rng) {}

  void start(sim::SimTime at) override {
    mark_running();
    epoch_ = at;
    schedule_next();
  }

 private:
  void schedule_next() {
    const auto jitter = static_cast<sim::Duration>(
        rng_.uniform_int(0, static_cast<std::uint64_t>(options_.start_jitter)));
    sim_.at(epoch_ + jitter, [this]() { storm(); });
    epoch_ += options_.period;
  }

  void storm() {
    if (!running()) return;
    FlowSpec spec;
    spec.dst = victim_;
    spec.flow = next_flow_++;
    spec.bytes = static_cast<std::uint64_t>(options_.burst_packets) *
                 options_.packet_size;
    spec.rate_bps = options_.burst_rate_bps;
    spec.packet_size = options_.packet_size;
    launch_flow(sim_, src_, spec, sim_.now());
    schedule_next();
  }

  sim::Simulator& sim_;
  net::Host& src_;
  net::NodeId victim_;
  Options options_;
  sim::Rng rng_;
  sim::SimTime epoch_ = 0;
  net::FlowId next_flow_ = 1;
};

/// Datacenter-wide shuffle: this source streams a fixed-size chunk to every
/// peer in turn, walking a per-source rotation of the shared destination
/// list (source i starts at peer i+1, so at any instant the fabric carries
/// a near-complete bipartite exchange — the classic MapReduce shuffle
/// pattern that loads every trunk).
class ShuffleGenerator final : public Generator {
 public:
  struct Options {
    std::uint64_t chunk_bytes = 64 * 1024;  ///< Per-destination transfer.
    double rate_bps = 5e9;
    std::uint32_t packet_size = 1400;
    /// Pause between consecutive chunks (think reducer pull pacing).
    sim::Duration inter_chunk_gap = sim::usec(50);
  };

  /// `peers` are the destination node ids, excluding the source itself;
  /// `offset` rotates the starting peer (pass the source's host index).
  ShuffleGenerator(sim::Simulator& sim, net::Host& src,
                   std::vector<net::NodeId> peers, std::size_t offset,
                   Options options, sim::Rng rng)
      : sim_(sim), src_(src), peers_(std::move(peers)),
        next_peer_(peers_.empty() ? 0 : offset % peers_.size()),
        options_(options), rng_(rng) {}

  void start(sim::SimTime at) override {
    if (peers_.empty()) return;
    mark_running();
    sim_.at(at, [this]() { chunk(); });
  }

 private:
  void chunk() {
    if (!running()) return;
    FlowSpec spec;
    spec.dst = peers_[next_peer_];
    next_peer_ = (next_peer_ + 1) % peers_.size();
    spec.flow = next_flow_++;
    spec.bytes = options_.chunk_bytes;
    spec.rate_bps = options_.rate_bps;
    spec.packet_size = options_.packet_size;
    launch_flow(sim_, src_, spec, sim_.now(), [this]() {
      sim_.after(options_.inter_chunk_gap, [this]() { chunk(); });
    });
  }

  sim::Simulator& sim_;
  net::Host& src_;
  std::vector<net::NodeId> peers_;
  std::size_t next_peer_;
  Options options_;
  sim::Rng rng_;
  net::FlowId next_flow_ = 1;
};

/// Mixed-tenant traffic: hosts are partitioned into `tenants` disjoint
/// groups (tenant of host i = i mod tenants) and traffic never crosses a
/// tenant boundary. Even tenants run latency-sensitive service traffic
/// (steady Poisson of small packets); odd tenants run batch traffic
/// (occasional large bursts) — the asymmetric co-tenancy a production
/// fabric actually carries.
class MixedTenantGenerator final : public Generator {
 public:
  struct Options {
    std::size_t tenants = 4;
    double service_rate_pps = 40'000;     ///< Even tenants.
    std::uint32_t service_packet_size = 300;
    std::uint64_t batch_burst_bytes = 256 * 1024;  ///< Odd tenants.
    double batch_rate_bps = 8e9;
    sim::Duration batch_idle_mean = sim::usec(500);
    std::uint32_t batch_packet_size = 1400;
  };

  /// `host_index`/`all_host_ids` describe the fabric's host table (index i
  /// maps to id all_host_ids[i]); the generator derives its tenant and peer
  /// set from them.
  MixedTenantGenerator(sim::Simulator& sim, net::Host& src,
                       std::size_t host_index,
                       const std::vector<net::NodeId>& all_host_ids,
                       Options options, sim::Rng rng)
      : sim_(sim), src_(src), options_(options), rng_(rng) {
    const std::size_t tenants = options_.tenants == 0 ? 1 : options_.tenants;
    tenant_ = host_index % tenants;
    for (std::size_t i = 0; i < all_host_ids.size(); ++i) {
      if (i != host_index && i % tenants == tenant_) {
        peers_.push_back(all_host_ids[i]);
      }
    }
  }

  void start(sim::SimTime at) override {
    if (peers_.empty()) return;
    mark_running();
    if (tenant_ % 2 == 0) {
      sim_.at(at, [this]() { service_tick(); });
    } else {
      sim_.at(at, [this]() { batch_burst(); });
    }
  }

 private:
  void service_tick() {
    if (!running()) return;
    const net::NodeId dst = peers_[rng_.uniform_int(0, peers_.size() - 1)];
    src_.send(dst, next_flow_++, options_.service_packet_size);
    sim_.after(static_cast<sim::Duration>(
                   rng_.exponential(1e9 / options_.service_rate_pps)),
               [this]() { service_tick(); });
  }

  void batch_burst() {
    if (!running()) return;
    FlowSpec spec;
    spec.dst = peers_[rng_.uniform_int(0, peers_.size() - 1)];
    spec.flow = next_flow_++;
    spec.bytes = 1 + static_cast<std::uint64_t>(rng_.exponential(
                         static_cast<double>(options_.batch_burst_bytes)));
    spec.rate_bps = options_.batch_rate_bps;
    spec.packet_size = options_.batch_packet_size;
    launch_flow(sim_, src_, spec, sim_.now(), [this]() {
      sim_.after(static_cast<sim::Duration>(rng_.exponential(static_cast<double>(
                     options_.batch_idle_mean))),
                 [this]() { batch_burst(); });
    });
  }

  sim::Simulator& sim_;
  net::Host& src_;
  Options options_;
  sim::Rng rng_;
  std::size_t tenant_ = 0;
  std::vector<net::NodeId> peers_;
  net::FlowId next_flow_ = 1;
};

}  // namespace speedlight::wl
