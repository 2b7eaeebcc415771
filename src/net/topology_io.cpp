#include "net/topology_io.hpp"

#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace speedlight::net {

void write_topology(std::ostream& os, const TopologySpec& spec) {
  os << "# speedlight topology\n";
  os << "host_links " << spec.host_link_bandwidth_bps / 1e9 << " "
     << spec.host_link_propagation << "\n";
  for (const auto& s : spec.switches) {
    os << "switch " << s.name << " " << s.num_ports;
    if (!s.snapshot_enabled) os << " disabled";
    os << "\n";
  }
  for (const auto& h : spec.hosts) {
    os << "host " << h.name << " " << spec.switches[h.attached_switch].name
       << " " << h.switch_port << "\n";
  }
  for (const auto& t : spec.trunks) {
    os << "trunk " << spec.switches[t.switch_a].name << " " << t.port_a << " "
       << spec.switches[t.switch_b].name << " " << t.port_b << " "
       << t.bandwidth_bps / 1e9 << " " << t.propagation << "\n";
  }
}

std::string topology_to_string(const TopologySpec& spec) {
  std::ostringstream os;
  write_topology(os, spec);
  return os.str();
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("topology line " + std::to_string(line) + ": " +
                              what);
}

}  // namespace

TopologySpec read_topology(std::istream& is) {
  TopologySpec spec;
  std::map<std::string, std::size_t> switch_index;
  std::string line;
  int line_no = 0;

  auto switch_of = [&](const std::string& name, int ln) {
    const auto it = switch_index.find(name);
    if (it == switch_index.end()) fail(ln, "unknown switch '" + name + "'");
    return it->second;
  };

  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // Blank/comment line.

    if (directive == "host_links") {
      double gbps = 0.0;
      sim::Duration prop = 0;
      if (!(ls >> gbps >> prop)) {
        fail(line_no, "host_links needs <gbps> <propagation_ns>");
      }
      spec.host_link_bandwidth_bps = gbps * 1e9;
      spec.host_link_propagation = prop;
    } else if (directive == "switch") {
      std::string name;
      int ports = 0;
      if (!(ls >> name >> ports) || ports <= 0 || ports > 0xFFFF) {
        fail(line_no, "switch needs <name> <num_ports>");
      }
      if (switch_index.contains(name)) {
        fail(line_no, "duplicate switch '" + name + "'");
      }
      std::string flag;
      bool enabled = true;
      if (ls >> flag) {
        if (flag != "disabled") fail(line_no, "unknown flag '" + flag + "'");
        enabled = false;
      }
      switch_index[name] = spec.switches.size();
      spec.switches.push_back(
          {name, static_cast<std::uint16_t>(ports), enabled});
    } else if (directive == "host") {
      std::string name;
      std::string sw;
      int port = -1;
      if (!(ls >> name >> sw >> port) || port < 0) {
        fail(line_no, "host needs <name> <switch> <port>");
      }
      spec.hosts.push_back(
          {name, switch_of(sw, line_no), static_cast<PortId>(port)});
    } else if (directive == "trunk") {
      std::string a;
      std::string b;
      int pa = -1;
      int pb = -1;
      if (!(ls >> a >> pa >> b >> pb) || pa < 0 || pb < 0) {
        fail(line_no, "trunk needs <swA> <portA> <swB> <portB>");
      }
      TrunkSpec t;
      t.switch_a = switch_of(a, line_no);
      t.port_a = static_cast<PortId>(pa);
      t.switch_b = switch_of(b, line_no);
      t.port_b = static_cast<PortId>(pb);
      double gbps = 0.0;
      if (ls >> gbps) {
        t.bandwidth_bps = gbps * 1e9;
        sim::Duration prop = 0;
        if (ls >> prop) t.propagation = prop;
      }
      spec.trunks.push_back(t);
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("topology: ") + e.what());
  }
  return spec;
}

TopologySpec topology_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_topology(is);
}

}  // namespace speedlight::net
