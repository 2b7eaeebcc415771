#include "net/soa.hpp"

#include <algorithm>
#include <limits>
#include <map>

namespace speedlight::net {

TopologyIndex build_topology_index(const TopologySpec& spec) {
  TopologyIndex idx;
  idx.num_switches = spec.switches.size();
  idx.num_hosts = spec.hosts.size();

  // CSR adjacency: count degrees, prefix-sum, then fill in trunk order so
  // each switch's entries appear exactly as compute_ecmp_routes() pushes
  // them ((b, port_a) for a, then (a, port_b) for b, per trunk).
  std::vector<std::uint32_t> degree(idx.num_switches, 0);
  for (const auto& t : spec.trunks) {
    ++degree[t.switch_a];
    ++degree[t.switch_b];
  }
  idx.adj_offset.assign(idx.num_switches + 1, 0);
  for (std::size_t s = 0; s < idx.num_switches; ++s) {
    idx.adj_offset[s + 1] = idx.adj_offset[s] + degree[s];
  }
  const std::size_t edges = idx.adj_offset[idx.num_switches];
  idx.adj_peer.resize(edges);
  idx.adj_port.resize(edges);
  std::vector<std::uint32_t> cursor(idx.adj_offset.begin(),
                                    idx.adj_offset.end() - 1);
  for (const TrunkSpec& tr : spec.trunks) {
    const std::uint32_t ea = cursor[tr.switch_a]++;
    idx.adj_peer[ea] = static_cast<std::uint32_t>(tr.switch_b);
    idx.adj_port[ea] = tr.port_a;
    const std::uint32_t eb = cursor[tr.switch_b]++;
    idx.adj_peer[eb] = static_cast<std::uint32_t>(tr.switch_a);
    idx.adj_port[eb] = tr.port_b;
  }

  idx.host_attach.reserve(idx.num_hosts);
  idx.host_port.reserve(idx.num_hosts);
  for (const auto& h : spec.hosts) {
    idx.host_attach.push_back(static_cast<std::uint32_t>(h.attached_switch));
    idx.host_port.push_back(h.switch_port);
  }
  return idx;
}

CompactRoutes compute_compact_routes(const TopologySpec& spec,
                                     const TopologyIndex& index) {
  const std::size_t s = spec.switches.size();
  CompactRoutes out;
  out.num_switches_ = s;
  out.host_attach_ = index.host_attach;
  out.host_port_ = index.host_port;
  out.set_of_.assign(s * s, CompactRoutes::kNoRoute);
  out.set_offset_.push_back(0);
  out.routable_.assign(s, 0);

  // Hosts per access switch: one BFS per *distinct* attach switch covers
  // every co-attached host (route sets depend only on the attach switch).
  std::vector<std::uint32_t> hosts_behind(s, 0);
  for (const std::uint32_t a : index.host_attach) ++hosts_behind[a];

  // Interning table, build-time only. std::map keeps set ids deterministic
  // in content order; ids are never compared across builds.
  std::map<std::vector<PortId>, std::uint32_t> interned;
  std::vector<PortId> scratch;

  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(s);
  std::vector<std::uint32_t> queue(s);

  for (std::size_t root = 0; root < s; ++root) {
    if (hosts_behind[root] == 0) continue;

    // BFS distances from the destination's access switch — identical
    // traversal to compute_ecmp_routes() (deque push_back/pop_front over
    // the same adjacency order).
    std::fill(dist.begin(), dist.end(), kInf);
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = static_cast<std::uint32_t>(root);
    dist[root] = 0;
    while (head < tail) {
      const std::uint32_t u = queue[head++];
      for (std::uint32_t e = index.adj_offset[u]; e < index.adj_offset[u + 1];
           ++e) {
        const std::uint32_t v = index.adj_peer[e];
        if (dist[v] == kInf) {
          dist[v] = dist[u] + 1;
          queue[tail++] = v;
        }
      }
    }

    for (std::size_t u = 0; u < s; ++u) {
      if (u == root || dist[u] == kInf) continue;
      scratch.clear();
      for (std::uint32_t e = index.adj_offset[u]; e < index.adj_offset[u + 1];
           ++e) {
        if (dist[index.adj_peer[e]] + 1 == dist[u]) {
          scratch.push_back(index.adj_port[e]);
        }
      }
      if (scratch.empty()) continue;
      auto [it, inserted] = interned.try_emplace(
          scratch, static_cast<std::uint32_t>(out.set_offset_.size() - 1));
      if (inserted) {
        out.pool_.insert(out.pool_.end(), scratch.begin(), scratch.end());
        out.set_offset_.push_back(static_cast<std::uint32_t>(out.pool_.size()));
      }
      out.set_of_[u * s + root] = it->second;
      out.routable_[u] += hosts_behind[root];
    }
    // The attach switch itself routes to its hosts via their access ports.
    out.routable_[root] += hosts_behind[root];
  }
  return out;
}

CompactRoutes compute_compact_routes(const TopologySpec& spec) {
  return compute_compact_routes(spec, build_topology_index(spec));
}

}  // namespace speedlight::net
