#include "net/topology.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>

namespace speedlight::net {

namespace {

/// "leaf" + 3 -> "leaf3" by append. Avoids operator+(const char*,
/// std::string&&), whose front-insertion path trips a GCC 12 -Wrestrict
/// false positive at -O2 (and would break -Werror release builds).
std::string name(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string name(const char* prefix, std::size_t a, std::size_t b) {
  std::string s(prefix);
  s += std::to_string(a);
  s += '_';
  s += std::to_string(b);
  return s;
}

}  // namespace

void TopologySpec::validate() const {
  std::set<std::pair<std::size_t, PortId>> used;
  auto claim = [&](std::size_t sw, PortId port, const char* what) {
    if (sw >= switches.size()) {
      throw std::invalid_argument(std::string(what) + ": switch index out of range");
    }
    if (port >= switches[sw].num_ports) {
      throw std::invalid_argument(std::string(what) + ": port out of range on " +
                                  switches[sw].name);
    }
    if (!used.insert({sw, port}).second) {
      throw std::invalid_argument(std::string(what) + ": port already in use on " +
                                  switches[sw].name);
    }
  };
  // A link must take positive, finite time per byte and never deliver
  // before it sends: a zero bandwidth would divide by zero when a frame
  // serializes, and a negative propagation would schedule arrivals in the
  // past.
  auto check_link = [](double bandwidth_bps, sim::Duration propagation,
                       const char* what) {
    if (!std::isfinite(bandwidth_bps) || bandwidth_bps <= 0.0) {
      throw std::invalid_argument(std::string(what) +
                                  ": bandwidth must be finite and positive");
    }
    if (propagation < 0) {
      throw std::invalid_argument(std::string(what) +
                                  ": propagation must not be negative");
    }
  };
  check_link(host_link_bandwidth_bps, host_link_propagation, "host links");
  for (const auto& h : hosts) claim(h.attached_switch, h.switch_port, "host");
  for (const auto& t : trunks) {
    if (t.switch_a == t.switch_b) {
      throw std::invalid_argument("trunk: self-loop");
    }
    claim(t.switch_a, t.port_a, "trunk");
    claim(t.switch_b, t.port_b, "trunk");
    check_link(t.bandwidth_bps, t.propagation, "trunk");
  }
}

EcmpRoutes compute_ecmp_routes(const TopologySpec& spec) {
  const std::size_t s = spec.switches.size();
  const std::size_t h = spec.hosts.size();

  // Adjacency: for each switch, (neighbor switch, local out port).
  std::vector<std::vector<std::pair<std::size_t, PortId>>> adj(s);
  for (const auto& t : spec.trunks) {
    adj[t.switch_a].push_back({t.switch_b, t.port_a});
    adj[t.switch_b].push_back({t.switch_a, t.port_b});
  }

  EcmpRoutes routes(s, std::vector<std::vector<PortId>>(h));
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();

  for (std::size_t host = 0; host < h; ++host) {
    const std::size_t root = spec.hosts[host].attached_switch;

    // BFS distances from the destination's access switch.
    std::vector<std::size_t> dist(s, kInf);
    std::deque<std::size_t> queue{root};
    dist[root] = 0;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const auto& [v, port] : adj[u]) {
        (void)port;
        if (dist[v] == kInf) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }

    routes[root][host].push_back(spec.hosts[host].switch_port);
    for (std::size_t u = 0; u < s; ++u) {
      if (u == root || dist[u] == kInf) continue;
      for (const auto& [v, port] : adj[u]) {
        if (dist[v] + 1 == dist[u]) routes[u][host].push_back(port);
      }
    }
  }
  return routes;
}

TopologySpec make_leaf_spine(std::size_t leaves, std::size_t spines,
                             std::size_t hosts_per_leaf) {
  TopologySpec spec;
  // Leaf port layout: [0, hosts_per_leaf) hosts, then one uplink per spine.
  for (std::size_t l = 0; l < leaves; ++l) {
    spec.switches.push_back(
        {name("leaf", l),
         static_cast<std::uint16_t>(hosts_per_leaf + spines), true});
  }
  for (std::size_t sp = 0; sp < spines; ++sp) {
    spec.switches.push_back({name("spine", sp),
                             static_cast<std::uint16_t>(leaves), true});
  }
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t hst = 0; hst < hosts_per_leaf; ++hst) {
      spec.hosts.push_back({name("h", l * hosts_per_leaf + hst), l,
                            static_cast<PortId>(hst)});
    }
    for (std::size_t sp = 0; sp < spines; ++sp) {
      spec.trunks.push_back({l, static_cast<PortId>(hosts_per_leaf + sp),
                             leaves + sp, static_cast<PortId>(l), 100e9,
                             sim::nsec(500)});
    }
  }
  return spec;
}

TopologySpec make_line(std::size_t n) {
  TopologySpec spec;
  if (n == 0) return spec;
  for (std::size_t i = 0; i < n; ++i) {
    spec.switches.push_back({name("s", i), 3, true});
  }
  spec.hosts.push_back({"h0", 0, 0});
  spec.hosts.push_back({"h1", n - 1, 0});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    spec.trunks.push_back(
        {i, 2, i + 1, 1, 100e9, sim::nsec(500)});
  }
  return spec;
}

TopologySpec make_ring(std::size_t n) {
  TopologySpec spec;
  for (std::size_t i = 0; i < n; ++i) {
    spec.switches.push_back({name("s", i), 3, true});
    spec.hosts.push_back({name("h", i), i, 0});
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Port 1: clockwise out; port 2: counter-clockwise in.
    spec.trunks.push_back({i, 1, (i + 1) % n, 2, 100e9, sim::nsec(500)});
  }
  return spec;
}

TopologySpec make_star(std::size_t n) {
  TopologySpec spec;
  spec.switches.push_back({"s0", static_cast<std::uint16_t>(n), true});
  for (std::size_t i = 0; i < n; ++i) {
    spec.hosts.push_back({name("h", i), 0, static_cast<PortId>(i)});
  }
  return spec;
}

TopologySpec make_fat_tree(std::size_t k) {
  if (k == 0 || k % 2 != 0) {
    throw std::invalid_argument("fat-tree parameter k must be even");
  }
  TopologySpec spec;
  const std::size_t half = k / 2;
  const std::size_t pods = k;
  const std::size_t edge_per_pod = half;
  const std::size_t agg_per_pod = half;
  const std::size_t cores = half * half;

  // Index layout: edges [0, pods*half), aggs [pods*half, 2*pods*half),
  // cores [2*pods*half, ...).
  const std::size_t edge_base = 0;
  const std::size_t agg_base = pods * edge_per_pod;
  const std::size_t core_base = agg_base + pods * agg_per_pod;

  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < edge_per_pod; ++e) {
      spec.switches.push_back({name("edge", p, e),
                               static_cast<std::uint16_t>(k), true});
    }
  }
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t a = 0; a < agg_per_pod; ++a) {
      spec.switches.push_back({name("agg", p, a),
                               static_cast<std::uint16_t>(k), true});
    }
  }
  for (std::size_t c = 0; c < cores; ++c) {
    spec.switches.push_back({name("core", c),
                             static_cast<std::uint16_t>(k), true});
  }

  // Hosts: half per edge switch on ports [0, half).
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < edge_per_pod; ++e) {
      const std::size_t sw = edge_base + p * edge_per_pod + e;
      for (std::size_t hh = 0; hh < half; ++hh) {
        spec.hosts.push_back({name("h", sw, hh),
                              sw, static_cast<PortId>(hh)});
      }
    }
  }

  // Edge<->agg inside each pod: edge up-ports [half, k), agg down-ports [0, half).
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < edge_per_pod; ++e) {
      for (std::size_t a = 0; a < agg_per_pod; ++a) {
        spec.trunks.push_back({edge_base + p * edge_per_pod + e,
                               static_cast<PortId>(half + a),
                               agg_base + p * agg_per_pod + a,
                               static_cast<PortId>(e), 100e9, sim::nsec(500)});
      }
    }
  }

  // Agg<->core: agg a in each pod connects to cores [a*half, (a+1)*half).
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t a = 0; a < agg_per_pod; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        spec.trunks.push_back({agg_base + p * agg_per_pod + a,
                               static_cast<PortId>(half + c),
                               core_base + a * half + c,
                               static_cast<PortId>(p), 100e9, sim::nsec(500)});
      }
    }
  }
  return spec;
}

TopologySpec make_figure1() {
  TopologySpec spec;
  spec.switches.push_back({"a", 3, true});  // ports: 0 host, 1 ->x, 2 ->y
  spec.switches.push_back({"b", 2, true});  // ports: 0 host, 1 ->y
  spec.switches.push_back({"x", 2, true});  // ports: 0 host, 1 ->a
  spec.switches.push_back({"y", 3, true});  // ports: 0 host, 1 ->a, 2 ->b
  spec.hosts.push_back({"ha", 0, 0});
  spec.hosts.push_back({"hb", 1, 0});
  spec.hosts.push_back({"hx", 2, 0});
  spec.hosts.push_back({"hy", 3, 0});
  spec.trunks.push_back({0, 1, 2, 1, 100e9, sim::nsec(500)});
  spec.trunks.push_back({0, 2, 3, 1, 100e9, sim::nsec(500)});
  spec.trunks.push_back({1, 1, 3, 2, 100e9, sim::nsec(500)});
  return spec;
}

}  // namespace speedlight::net
