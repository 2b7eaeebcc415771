#include "net/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

namespace speedlight::net {

namespace {

/// Plain union-find over switch indices (path halving, union by size).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

/// Fixed-point scale for traffic mass -> integer trunk weights.
constexpr double kTrafficScale = 4096.0;

}  // namespace

std::vector<std::uint64_t> trunk_traffic(const TopologySpec& spec,
                                         const std::vector<FlowHint>& hints) {
  if (hints.empty()) {
    // No hints, no routing needed: all trunks weigh 1.
    return std::vector<std::uint64_t>(spec.trunks.size(), 1);
  }
  const TopologyIndex index = build_topology_index(spec);
  return trunk_traffic(spec, index, compute_compact_routes(spec, index),
                       hints);
}

std::vector<std::uint64_t> trunk_traffic(const TopologySpec& spec,
                                         const TopologyIndex& index,
                                         const CompactRoutes& routes,
                                         const std::vector<FlowHint>& hints) {
  std::vector<double> mass(spec.trunks.size(), 0.0);
  for (const FlowHint& f : hints) {
    if (f.src_host >= spec.hosts.size() || f.dst_host >= spec.hosts.size() ||
        f.src_host == f.dst_host || f.weight <= 0.0) {
      continue;
    }
    // Push the flow's mass along every ECMP shortest path, splitting
    // evenly over the next-hop set at each switch. Shortest-path next
    // hops are loop-free, so the walk terminates; a step cap guards
    // against pathological route tables all the same. The interned route
    // sets match the per-entity ECMP sets exactly (contents and order),
    // so the accumulated weights are bit-identical to the old path.
    std::deque<std::pair<std::size_t, double>> frontier;
    frontier.emplace_back(spec.hosts[f.src_host].attached_switch, f.weight);
    std::size_t steps = 0;
    while (!frontier.empty() && steps < 1u << 20) {
      const auto [sw, m] = frontier.front();
      frontier.pop_front();
      ++steps;
      const std::span<const PortId> ports = routes.lookup(sw, f.dst_host);
      if (ports.empty()) continue;  // Unreachable: drop the mass.
      const double share = m / static_cast<double>(ports.size());
      for (const PortId p : ports) {
        const std::int32_t t = index.port_trunk[sw * index.max_ports + p];
        if (t < 0) continue;  // Host access port: delivered.
        mass[static_cast<std::size_t>(t)] += share;
        const TrunkSpec& tr = spec.trunks[static_cast<std::size_t>(t)];
        frontier.emplace_back(tr.switch_a == sw ? tr.switch_b : tr.switch_a,
                              share);
      }
    }
  }
  std::vector<std::uint64_t> weight(spec.trunks.size(), 1);
  for (std::size_t t = 0; t < spec.trunks.size(); ++t) {
    weight[t] += static_cast<std::uint64_t>(std::llround(
        kTrafficScale * mass[t]));
  }
  return weight;
}

Partition partition_topology(const TopologySpec& spec,
                             std::size_t requested_shards,
                             const std::vector<std::uint64_t>& trunk_weight) {
  assert(trunk_weight.empty() || trunk_weight.size() == spec.trunks.size());
  const std::size_t s = spec.switches.size();
  const auto weight_of = [&](std::size_t t) -> std::uint64_t {
    return trunk_weight.empty() ? 1 : trunk_weight[t];
  };
  Partition out;
  out.switch_shard.assign(s, 0);
  out.host_shard.assign(spec.hosts.size(), 0);
  out.min_cross_latency = std::numeric_limits<sim::Duration>::max();
  for (std::size_t t = 0; t < spec.trunks.size(); ++t) {
    out.stats.total_weight += weight_of(t);
  }

  if (requested_shards <= 1 || s <= 1) {
    for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
      out.host_shard[h] = 0;
    }
    return out;
  }

  // Contract zero-latency trunks: their endpoints must share a shard, or
  // the engine's lookahead would collapse to zero.
  UnionFind uf(s);
  for (const TrunkSpec& t : spec.trunks) {
    if (t.propagation <= 0) uf.unite(t.switch_a, t.switch_b);
  }

  // Components in first-switch-index order (deterministic), with sizes.
  std::vector<std::uint32_t> comp_of(s);
  std::vector<std::size_t> comp_size;
  {
    std::vector<std::int64_t> root_comp(s, -1);
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t r = uf.find(i);
      if (root_comp[r] < 0) {
        root_comp[r] = static_cast<std::int64_t>(comp_size.size());
        comp_size.push_back(0);
      }
      comp_of[i] = static_cast<std::uint32_t>(root_comp[r]);
      ++comp_size[comp_of[i]];
    }
  }
  const std::size_t ncomp = comp_size.size();
  const std::size_t shards = std::min(requested_shards, ncomp);
  out.num_shards = static_cast<std::uint32_t>(shards);

  // Component adjacency in trunk-weight units (contracted trunks vanish).
  std::vector<std::uint64_t> comp_w(ncomp * ncomp, 0);
  for (std::size_t t = 0; t < spec.trunks.size(); ++t) {
    const std::uint32_t a = comp_of[spec.trunks[t].switch_a];
    const std::uint32_t b = comp_of[spec.trunks[t].switch_b];
    if (a == b) continue;
    comp_w[a * ncomp + b] += weight_of(t);
    comp_w[b * ncomp + a] += weight_of(t);
  }

  std::vector<std::uint32_t> comp_shard(ncomp, 0);
  std::vector<std::size_t> load(shards, 0);
  std::vector<std::size_t> shard_comps(shards, 0);

  if (shards > 1) {
    // Balance cap: perfectly even plus ~25% slack. Infeasible fits fall
    // back to the least-loaded shard, so packing always succeeds.
    const std::size_t cap =
        (s + shards - 1) / shards +
        std::max<std::size_t>(1, s / (4 * shards));

    // Traffic-affine packing, Prim-style: repeatedly place the unassigned
    // component with the strongest tie to anything already placed, onto
    // the feasible shard it is most attached to. Components with no placed
    // neighbours seed new clusters on the least-loaded shard, largest
    // first. Ties break toward lower component index — fully deterministic.
    // aff[c * shards + sh] is c's weight to the components already placed
    // on sh, kept current incrementally as each component lands.
    std::vector<bool> placed(ncomp, false);
    std::vector<std::uint64_t> aff(ncomp * shards, 0);
    for (std::size_t round = 0; round < ncomp; ++round) {
      const std::size_t remaining = ncomp - round;
      std::size_t empty_shards = 0;
      for (std::size_t sh = 0; sh < shards; ++sh) {
        if (shard_comps[sh] == 0) ++empty_shards;
      }
      // Every shard must end non-empty: once the spare components run out,
      // only empty shards may receive seeds.
      const bool force_empty = remaining <= empty_shards;

      std::size_t best_c = ncomp;
      std::uint32_t best_sh = 0;
      std::uint64_t best_aff = 0;
      std::size_t best_size = 0;
      for (std::size_t c = 0; c < ncomp; ++c) {
        if (placed[c]) continue;
        // The best shard for this component under the current placement.
        std::uint32_t sh_pick = std::numeric_limits<std::uint32_t>::max();
        std::uint64_t aff_pick = 0;
        for (std::uint32_t sh = 0; sh < shards; ++sh) {
          if (force_empty && shard_comps[sh] != 0) continue;
          if (load[sh] + comp_size[c] > cap && !force_empty) continue;
          const std::uint64_t a = force_empty ? 0 : aff[c * shards + sh];
          if (sh_pick == std::numeric_limits<std::uint32_t>::max() ||
              a > aff_pick ||
              (a == aff_pick && load[sh] < load[sh_pick])) {
            sh_pick = sh;
            aff_pick = a;
          }
        }
        if (sh_pick == std::numeric_limits<std::uint32_t>::max()) {
          // Cap squeezed every shard out: least-loaded fallback.
          sh_pick = static_cast<std::uint32_t>(std::distance(
              load.begin(), std::min_element(load.begin(), load.end())));
          aff_pick = aff[c * shards + sh_pick];
        }
        if (best_c == ncomp || aff_pick > best_aff ||
            (aff_pick == best_aff && comp_size[c] > best_size)) {
          best_c = c;
          best_sh = sh_pick;
          best_aff = aff_pick;
          best_size = comp_size[c];
        }
      }
      placed[best_c] = true;
      comp_shard[best_c] = best_sh;
      load[best_sh] += comp_size[best_c];
      ++shard_comps[best_sh];
      for (std::size_t c = 0; c < ncomp; ++c) {
        aff[c * shards + best_sh] += comp_w[c * ncomp + best_c];
      }
    }

    // FM-style refinement: move whole components between shards while the
    // weighted cut strictly shrinks, respecting the balance cap and never
    // emptying a shard. Strict improvement => termination; fixed scan
    // order => determinism.
    for (std::size_t pass = 0; pass < 8; ++pass) {
      bool moved = false;
      for (std::size_t c = 0; c < ncomp; ++c) {
        const std::uint32_t from = comp_shard[c];
        if (shard_comps[from] <= 1) continue;
        std::vector<std::uint64_t> attach(shards, 0);
        for (std::size_t x = 0; x < ncomp; ++x) {
          attach[comp_shard[x]] += comp_w[c * ncomp + x];
        }
        std::uint32_t best_to = from;
        std::int64_t best_gain = 0;
        for (std::uint32_t to = 0; to < shards; ++to) {
          if (to == from || load[to] + comp_size[c] > cap) continue;
          const std::int64_t gain = static_cast<std::int64_t>(attach[to]) -
                                    static_cast<std::int64_t>(attach[from]);
          if (gain > best_gain) {
            best_gain = gain;
            best_to = to;
          }
        }
        if (best_to != from) {
          comp_shard[c] = best_to;
          load[from] -= comp_size[c];
          load[best_to] += comp_size[c];
          --shard_comps[from];
          ++shard_comps[best_to];
          ++out.stats.refine_moves;
          moved = true;
        }
      }
      if (!moved) break;
    }
  }

  for (std::size_t i = 0; i < s; ++i) {
    out.switch_shard[i] = comp_shard[comp_of[i]];
  }
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    out.host_shard[h] = out.switch_shard[spec.hosts[h].attached_switch];
  }

  for (std::size_t t = 0; t < spec.trunks.size(); ++t) {
    const TrunkSpec& tr = spec.trunks[t];
    if (out.switch_shard[tr.switch_a] == out.switch_shard[tr.switch_b]) {
      continue;
    }
    assert(tr.propagation > 0 && "zero-latency trunk crossed shards");
    ++out.cross_trunks;
    out.min_cross_latency = std::min(out.min_cross_latency, tr.propagation);
    out.stats.cut_weight += weight_of(t);
  }
  return out;
}

}  // namespace speedlight::net
