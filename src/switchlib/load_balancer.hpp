// Multipath load-balancing policies: flow-hash ECMP (RFC 2992) and flowlet
// switching (Kandula et al.), the two algorithms Section 8 compares.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace speedlight::sw {

class LoadBalancer {
 public:
  // Pre-existing strategy interface: one indirect call per multi-path
  // forwarding decision, the strategy chosen per switch at configuration
  // time (perf-verified in fig13).
  // speedlight-lint: allow(virtual-in-datapath) strategy interface, above.
  virtual ~LoadBalancer() = default;
  /// Choose one of `candidates` (non-empty) for `pkt` at time `now`. The
  /// span typically views the fabric's shared interned route pool
  /// (net::CompactRoutes); order matches the per-entity ECMP sets exactly.
  // speedlight-lint: allow(virtual-in-datapath) see class note above.
  virtual net::PortId choose(const net::Packet& pkt,
                             std::span<const net::PortId> candidates,
                             sim::SimTime now) = 0;
};

/// Flow-hash ECMP: a flow is pinned to one path for its lifetime.
class EcmpBalancer final : public LoadBalancer {
 public:
  /// `salt` decorrelates hash functions across switches (as real deployments
  /// do to avoid polarization).
  explicit EcmpBalancer(std::uint64_t salt) : salt_(salt) {}

  net::PortId choose(const net::Packet& pkt,
                     std::span<const net::PortId> candidates,
                     sim::SimTime /*now*/) override {
    return candidates[hash_flow(pkt) % candidates.size()];
  }

 private:
  [[nodiscard]] std::uint64_t hash_flow(const net::Packet& pkt) const {
    // SplitMix64-style mix of the 5-tuple stand-in (flow id + endpoints).
    std::uint64_t x = salt_ ^ (static_cast<std::uint64_t>(pkt.flow) << 32) ^
                      (static_cast<std::uint64_t>(pkt.src_host) << 16) ^
                      pkt.dst_host;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t salt_;
};

/// Flowlet switching: bursts of a flow separated by more than `gap` may take
/// different paths without reordering.
class FlowletBalancer final : public LoadBalancer {
 public:
  /// Flowlet table entries; a power of two, so a mask picks the entry.
  static constexpr std::size_t kTableSize = 4096;
  static_assert((kTableSize & (kTableSize - 1)) == 0,
                "the flowlet table is indexed with a mask");

  FlowletBalancer(std::uint64_t salt, sim::Duration gap, sim::Rng rng)
      : ecmp_(salt), gap_(gap), rng_(rng), table_(kTableSize) {}

  net::PortId choose(const net::Packet& pkt,
                     std::span<const net::PortId> candidates,
                     sim::SimTime now) override {
    const std::size_t idx =
        (static_cast<std::size_t>(pkt.flow) * 0x9E3779B97f4A7C15ULL) &
        (kTableSize - 1);
    Entry& e = table_[idx];
    if (!e.valid || now - e.last_seen > gap_ ||
        e.port_index >= candidates.size()) {
      // New flowlet: pick a fresh path uniformly at random.
      e.port_index = static_cast<std::uint32_t>(
          rng_.uniform_int(0, candidates.size() - 1));
      e.valid = true;
      ++flowlets_started_;
    }
    e.last_seen = now;
    return candidates[e.port_index];
  }

  [[nodiscard]] std::uint64_t flowlets_started() const {
    return flowlets_started_;
  }

 private:
  struct Entry {
    sim::SimTime last_seen = 0;
    std::uint32_t port_index = 0;
    bool valid = false;
  };

  EcmpBalancer ecmp_;
  sim::Duration gap_;
  sim::Rng rng_;
  std::vector<Entry> table_;
  std::uint64_t flowlets_started_ = 0;
};

enum class LoadBalancerKind : std::uint8_t { Ecmp, Flowlet };

/// Factory used by switch configuration.
[[nodiscard]] inline std::unique_ptr<LoadBalancer> make_load_balancer(
    LoadBalancerKind kind, std::uint64_t salt, sim::Duration flowlet_gap,
    sim::Rng rng) {
  if (kind == LoadBalancerKind::Flowlet) {
    // speedlight-lint: allow(datapath-alloc) configuration-time factory.
    return std::make_unique<FlowletBalancer>(salt, flowlet_gap, rng);
  }
  // speedlight-lint: allow(datapath-alloc) configuration-time factory.
  return std::make_unique<EcmpBalancer>(salt);
}

}  // namespace speedlight::sw
