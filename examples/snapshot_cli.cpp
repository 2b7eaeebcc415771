// speedlight command-line driver: build a network (built-in shapes or a
// topology file), run a workload, take synchronized snapshots, and print
// the results — optionally side by side with the polling baseline.
//
//   $ ./snapshot_cli --topology leaf-spine:2x2x3 --workload poisson:40000
//         --channel-state --snapshots 5 --interval-ms 5 --compare-polling
//   $ ./snapshot_cli --topology-file mynet.topo --metric queue_depth
//   $ ./snapshot_cli --help
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "net/topology_io.hpp"
#include "stats/summary.hpp"
#include "workload/apps.hpp"
#include "workload/basic.hpp"

namespace {

using namespace speedlight;

struct CliOptions {
  std::string topology = "leaf-spine:2x2x3";
  std::string topology_file;
  std::string metric = "packet_count";
  std::string workload = "poisson:40000";
  std::string load_balancer = "ecmp";
  bool channel_state = false;
  std::size_t snapshots = 5;
  double interval_ms = 5.0;
  double warmup_ms = 10.0;
  std::uint64_t seed = 1;
  bool compare_polling = false;
  std::uint32_t wire_modulus = 0;
  std::string csv_path;
};

void usage() {
  std::cout << R"(speedlight snapshot_cli — synchronized network snapshots

  --topology SHAPE      leaf-spine:LxSxH | line:N | ring:N | star:N |
                        fat-tree:K | figure1          (default leaf-spine:2x2x3)
  --topology-file PATH  load a .topo file instead (see net/topology_io.hpp)
  --metric NAME         packet_count | byte_count | queue_depth |
                        ewma_interarrival | ewma_rate  (default packet_count)
  --workload SPEC       poisson:PPS | hadoop | graphx | memcache | none
  --lb NAME             ecmp | flowlet                  (default ecmp)
  --channel-state       record in-flight packets (Chandy-Lamport channel state)
  --wire-modulus N      bounded wire id space, a power of two
                        (0 = 32-bit, default)
  --snapshots N         how many snapshots to take      (default 5)
  --interval-ms X       spacing between snapshots       (default 5)
  --warmup-ms X         workload warmup before snapshotting (default 10)
  --seed N              simulation seed                 (default 1)
  --compare-polling     also run sequential polling sweeps and compare
  --csv PATH            dump per-(snapshot, unit) results as CSV
  --help
)";
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      exit(0);
    } else if (arg == "--topology") {
      opt.topology = value("--topology");
    } else if (arg == "--topology-file") {
      opt.topology_file = value("--topology-file");
    } else if (arg == "--metric") {
      opt.metric = value("--metric");
    } else if (arg == "--workload") {
      opt.workload = value("--workload");
    } else if (arg == "--lb") {
      opt.load_balancer = value("--lb");
    } else if (arg == "--channel-state") {
      opt.channel_state = true;
    } else if (arg == "--wire-modulus") {
      opt.wire_modulus = static_cast<std::uint32_t>(
          std::stoul(value("--wire-modulus")));
    } else if (arg == "--snapshots") {
      opt.snapshots = std::stoul(value("--snapshots"));
    } else if (arg == "--interval-ms") {
      opt.interval_ms = std::stod(value("--interval-ms"));
    } else if (arg == "--warmup-ms") {
      opt.warmup_ms = std::stod(value("--warmup-ms"));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value("--seed"));
    } else if (arg == "--compare-polling") {
      opt.compare_polling = true;
    } else if (arg == "--csv") {
      opt.csv_path = value("--csv");
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> parse_dims(const std::string& spec) {
  std::vector<std::size_t> dims;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, 'x')) dims.push_back(std::stoul(token));
  return dims;
}

net::TopologySpec build_topology(const CliOptions& opt) {
  if (!opt.topology_file.empty()) {
    std::ifstream in(opt.topology_file);
    if (!in) {
      throw std::invalid_argument("cannot open " + opt.topology_file);
    }
    return net::read_topology(in);
  }
  const auto colon = opt.topology.find(':');
  const std::string kind = opt.topology.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : opt.topology.substr(colon + 1);
  if (kind == "leaf-spine") {
    const auto d = parse_dims(args.empty() ? "2x2x3" : args);
    if (d.size() != 3) throw std::invalid_argument("leaf-spine:LxSxH");
    return net::make_leaf_spine(d[0], d[1], d[2]);
  }
  if (kind == "line") return net::make_line(std::stoul(args));
  if (kind == "ring") return net::make_ring(std::stoul(args));
  if (kind == "star") return net::make_star(std::stoul(args));
  if (kind == "fat-tree") return net::make_fat_tree(std::stoul(args));
  if (kind == "figure1") return net::make_figure1();
  throw std::invalid_argument("unknown topology " + opt.topology);
}

sw::MetricKind parse_metric(const std::string& name) {
  if (name == "packet_count") return sw::MetricKind::PacketCount;
  if (name == "byte_count") return sw::MetricKind::ByteCount;
  if (name == "queue_depth") return sw::MetricKind::QueueDepth;
  if (name == "ewma_interarrival") return sw::MetricKind::EwmaInterarrival;
  if (name == "ewma_rate") return sw::MetricKind::EwmaPacketRate;
  throw std::invalid_argument("unknown metric " + name);
}

std::vector<std::unique_ptr<wl::Generator>> start_workload(
    core::Network& net, const CliOptions& opt) {
  std::vector<std::unique_ptr<wl::Generator>> gens;
  const auto colon = opt.workload.find(':');
  const std::string kind = opt.workload.substr(0, colon);
  if (kind == "none") return gens;

  std::vector<net::Host*> hosts;
  std::vector<net::NodeId> ids;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    hosts.push_back(&net.host(h));
    ids.push_back(net.host_id(h));
  }
  if (kind == "poisson") {
    const double pps =
        colon == std::string::npos ? 40000 : std::stod(opt.workload.substr(colon + 1));
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      std::vector<net::NodeId> dsts;
      for (const auto id : ids) {
        if (id != hosts[h]->id()) dsts.push_back(id);
      }
      auto g = std::make_unique<wl::PoissonGenerator>(
          net.simulator(), *hosts[h], dsts, pps, 1200, sim::Rng(opt.seed + h));
      g->start(net.now());
      gens.push_back(std::move(g));
    }
  } else if (kind == "hadoop") {
    const std::size_t half = hosts.size() / 2;
    std::vector<net::Host*> mappers(hosts.begin(), hosts.begin() + half);
    std::vector<net::Host*> reducers(hosts.begin() + half, hosts.end());
    auto g = std::make_unique<wl::HadoopGenerator>(
        net.simulator(), mappers, reducers, wl::HadoopGenerator::Options{},
        sim::Rng(opt.seed));
    g->start(net.now());
    gens.push_back(std::move(g));
  } else if (kind == "graphx") {
    auto g = std::make_unique<wl::GraphXGenerator>(
        net.simulator(), hosts, wl::GraphXGenerator::Options{},
        sim::Rng(opt.seed));
    g->start(net.now());
    gens.push_back(std::move(g));
  } else if (kind == "memcache") {
    std::vector<net::Host*> clients{hosts.front()};
    auto g = std::make_unique<wl::MemcacheGenerator>(
        net.simulator(), clients, hosts, wl::MemcacheGenerator::Options{},
        sim::Rng(opt.seed));
    g->start(net.now());
    gens.push_back(std::move(g));
  } else {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  return gens;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    core::NetworkOptions netopt;
    netopt.seed = opt.seed;
    netopt.metric = parse_metric(opt.metric);
    netopt.snapshot.channel_state = opt.channel_state;
    netopt.snapshot.wire_id_modulus = opt.wire_modulus;
    netopt.load_balancer = opt.load_balancer == "flowlet"
                               ? sw::LoadBalancerKind::Flowlet
                               : sw::LoadBalancerKind::Ecmp;
    core::Network net(build_topology(opt), netopt);
    std::cout << "network: " << net.num_switches() << " switches, "
              << net.num_hosts() << " hosts; metric " << opt.metric
              << (opt.channel_state ? " (+channel state)" : "") << "\n";

    auto gens = start_workload(net, opt);
    net.run_for(sim::msec(opt.warmup_ms));
    if (opt.compare_polling) net.register_all_units_for_polling();

    const auto campaign = core::run_snapshot_campaign(
        net, opt.snapshots, sim::msec(opt.interval_ms));
    const auto results = campaign.results(net);
    std::cout << results.size() << "/" << opt.snapshots
              << " snapshots complete"
              << (campaign.skipped
                      ? " (" + std::to_string(campaign.skipped) +
                            " refused by the rollover window)"
                      : "")
              << "\n\n";

    for (const auto* snap : results) {
      std::cout << "snapshot " << snap->id << " @ "
                << sim::to_msec(snap->scheduled_at) << "ms: sync span "
                << sim::to_usec(snap->advance_span()) << "us, "
                << snap->consistent_count() << "/" << snap->reports.size()
                << " consistent units, total " << snap->total_value(false);
      if (opt.channel_state) {
        std::cout << " (+" << snap->total_value(true) - snap->total_value(false)
                  << " in flight)";
      }
      std::cout << "\n";
    }

    if (!results.empty()) {
      const auto* last = results.back();
      std::cout << "\nlast snapshot, per switch (ingress unit values):\n";
      for (net::NodeId swid = 0; swid < net.num_switches(); ++swid) {
        std::cout << "  " << std::left << std::setw(10)
                  << net.switch_at(swid).name() << std::right;
        const auto ports = net.switch_at(swid).options().num_ports;
        for (net::PortId p = 0; p < ports; ++p) {
          const auto it =
              last->reports.find({swid, p, net::Direction::Ingress});
          if (it != last->reports.end()) {
            std::cout << " " << std::setw(8)
                      << (it->second.consistent
                              ? std::to_string(it->second.local_value)
                              : std::string("inconsist"));
          }
        }
        std::cout << "\n";
      }
    }

    if (!opt.csv_path.empty()) {
      std::ofstream csv(opt.csv_path);
      if (!csv) {
        std::cerr << "cannot write " << opt.csv_path << "\n";
        return 1;
      }
      core::write_snapshot_csv(csv, results);
      std::cout << "\nwrote " << opt.csv_path << "\n";
    }

    if (opt.compare_polling) {
      const auto sweeps = core::run_polling_campaign(
          net, opt.snapshots, sim::msec(opt.interval_ms));
      stats::Summary spans;
      for (const auto& s : sweeps) {
        spans.add(static_cast<double>(s.span()));
      }
      std::cout << "\npolling baseline: " << sweeps.size()
                << " sweeps, mean first-to-last spread "
                << spans.mean() / 1e6 << "ms";
      if (!results.empty()) {
        std::cout << " (snapshots above: "
                  << sim::to_usec(results.back()->advance_span()) << "us)";
      }
      std::cout << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
