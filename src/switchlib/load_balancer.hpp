// Multipath load-balancing policies: flow-hash ECMP (RFC 2992) and flowlet
// switching (Kandula et al.), the two algorithms Section 8 compares.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/determinism.hpp"
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
///
/// The flowlet table is the hardware's 4096-entry hashed table, indexed the
/// same way, but it keeps only entries that can still matter. An entry idle
/// for more than `gap` decides nothing (the next packet at its index starts
/// a new flowlet either way), so rebuilding the table drops it. Entries are open-addressed
/// by their index with linear probing in a table that starts small and
/// doubles. At kTableSize slots every index has its own home slot, so the
/// table is the dense one and never costs more than it.
class FlowletBalancer final : public LoadBalancer {
 public:
  /// Flowlet table entries; a power of two, so a mask picks the entry.
  static constexpr std::size_t kTableSize = 4096;
  static_assert((kTableSize & (kTableSize - 1)) == 0,
                "the flowlet table is indexed with a mask");

  FlowletBalancer(sim::Duration gap, sim::Rng rng) : gap_(gap), rng_(rng) {}

  net::PortId choose(const net::Packet& pkt,
                     std::span<const net::PortId> candidates,
                     sim::SimTime now) override {
    const auto idx = static_cast<std::uint16_t>(
        (static_cast<std::size_t>(pkt.flow) * 0x9E3779B97f4A7C15ULL) &
        (kTableSize - 1));
    Entry& e = entry(idx, now);
    if (now - e.last_seen > gap_ || e.port_index >= candidates.size()) {
      // New flowlet: pick a fresh path uniformly at random.
      e.port_index = static_cast<std::uint32_t>(
          rng_.uniform_int(0, candidates.size() - 1));
      ++flowlets_started_;
    }
    e.last_seen = now;
    return candidates[e.port_index];
  }

  [[nodiscard]] std::uint64_t flowlets_started() const {
    return flowlets_started_;
  }
  /// Bytes the flowlet table holds (at most kTableSize entries' worth).
  [[nodiscard]] std::size_t table_bytes() const {
    return slots_.capacity() * sizeof(Entry);
  }

 private:
  /// Index field of an unclaimed slot; table indices are all below it.
  static constexpr std::uint16_t kFree = 0xFFFF;
  static_assert(kTableSize <= kFree, "indices must not collide with kFree");
  /// Port index of a claimed entry no path has been picked for yet: it is
  /// out of range for every candidate set, so choose() starts a flowlet.
  static constexpr std::uint32_t kNoPort = 0xFFFFFFFF;
  static constexpr std::size_t kInitialSlots = 16;

  struct Entry {
    sim::SimTime last_seen = 0;
    std::uint32_t port_index = kNoPort;
    std::uint16_t index = kFree;
  };

  /// The entry of table index `idx`, claimed unassigned if it is absent.
  Entry& entry(std::uint16_t idx, sim::SimTime now) {
    if (slots_.empty()) rebuild(now);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = idx & mask;; i = (i + 1) & mask) {
      Entry& e = slots_[i];
      if (e.index == idx) return e;
      if (e.index != kFree) continue;
      if (4 * (claimed_ + 1) > 3 * slots_.size() &&
          slots_.size() < kTableSize) {
        rebuild(now);
        return entry(idx, now);
      }
      e.index = idx;
      ++claimed_;
      return e;
    }
  }

  /// Cold path: the table is three quarters claimed (or not yet built).
  /// Keeps only the entries still live at `now` (choose() runs at the
  /// simulator's clock, which never runs backwards, so a dropped entry
  /// could never be live again) and doubles until they fill at most half
  /// the slots. Amortized over at least a quarter table of new flowlets,
  /// DetAllow-exempted like FifoQueue::grow.
  void rebuild(sim::SimTime now) {
    sim::det::DetAllow allow_table_growth;  // Amortized, see above.
    const auto live = [&](const Entry& e) {
      return e.index != kFree && now - e.last_seen <= gap_;
    };
    std::size_t kept = 0;
    for (const Entry& e : slots_) kept += live(e) ? 1 : 0;
    std::size_t size = std::max(slots_.size(), kInitialSlots);
    while (2 * (kept + 1) > size && size < kTableSize) size *= 2;
    // speedlight-lint: allow(datapath-alloc) amortized table growth, above.
    std::vector<Entry> fresh(size);
    for (const Entry& e : slots_) {
      if (!live(e)) continue;
      std::size_t i = e.index & (size - 1);
      while (fresh[i].index != kFree) i = (i + 1) & (size - 1);
      fresh[i] = e;
    }
    slots_ = std::move(fresh);
    claimed_ = kept;
  }

  sim::Duration gap_;
  sim::Rng rng_;
  std::vector<Entry> slots_;
  std::size_t claimed_ = 0;  ///< Slots holding an index, live or not.
  std::uint64_t flowlets_started_ = 0;
};

enum class LoadBalancerKind : std::uint8_t { Ecmp, Flowlet };

/// Factory used by switch configuration. `salt` seeds ECMP's flow hash;
/// flowlet decisions draw from `rng` alone.
[[nodiscard]] inline std::unique_ptr<LoadBalancer> make_load_balancer(
    LoadBalancerKind kind, std::uint64_t salt, sim::Duration flowlet_gap,
    sim::Rng rng) {
  if (kind == LoadBalancerKind::Flowlet) {
    // speedlight-lint: allow(datapath-alloc) configuration-time factory.
    return std::make_unique<FlowletBalancer>(flowlet_gap, rng);
  }
  // speedlight-lint: allow(datapath-alloc) configuration-time factory.
  return std::make_unique<EcmpBalancer>(salt);
}

}  // namespace speedlight::sw
