// Figure 13: pairwise Spearman correlation coefficients of per-egress-port
// EWMA packet rates while running GraphX, from 100 snapshots vs 100
// polling sweeps.
//
// Paper findings reproduced as shape checks:
//  * snapshots find substantially more statistically significant (p < 0.1)
//    correlated port pairs than polling (+43% in the paper);
//  * ground truth 1: the port egressing to the master server (which does
//    not participate in the computation) correlates with nothing;
//  * ground truth 2: ECMP next-hop pairs (the two uplinks of a leaf) are
//    positively correlated under snapshots, while polling misses or even
//    inverts them.
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "stats/spearman.hpp"
#include "workload/apps.hpp"

namespace {

using namespace speedlight;

constexpr double kAlpha = 0.1;

struct Series {
  std::vector<net::UnitId> ports;          // All egress units ("ports").
  std::vector<std::string> labels;
  std::vector<std::vector<double>> values; // values[port][sample]
};

struct Analysis {
  std::size_t significant_pairs = 0;
  std::size_t master_significant = 0;  // Pairs involving the master port.
  double min_uplink_pair_rho = 1.0;    // Over same-leaf uplink pairs.
  bool uplink_pairs_all_significant = true;
  std::vector<std::vector<double>> rho;  // Matrix (0 when insignificant).
};

Analysis analyze(const Series& s, std::size_t master_port_index,
                 const std::vector<std::pair<std::size_t, std::size_t>>&
                     uplink_pairs) {
  const std::size_t n = s.ports.size();
  Analysis a;
  a.rho.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto c = stats::spearman(s.values[i], s.values[j]);
      if (c && c->significant(kAlpha)) {
        a.rho[i][j] = a.rho[j][i] = c->rho;
        ++a.significant_pairs;
        if (i == master_port_index || j == master_port_index) {
          ++a.master_significant;
        }
      }
    }
  }
  for (const auto& [i, j] : uplink_pairs) {
    const auto c = stats::spearman(s.values[i], s.values[j]);
    if (!c || !c->significant(kAlpha)) {
      a.uplink_pairs_all_significant = false;
      a.min_uplink_pair_rho = std::min(a.min_uplink_pair_rho, 0.0);
    } else {
      a.min_uplink_pair_rho = std::min(a.min_uplink_pair_rho, c->rho);
    }
  }
  return a;
}

void print_matrix(const Analysis& a, const Series& s, const char* title) {
  std::cout << "\n" << title << " — significant (p<" << kAlpha
            << ") Spearman rho (.. = insignificant):\n      ";
  for (std::size_t j = 0; j < s.ports.size(); ++j) {
    std::cout << std::setw(6) << s.labels[j];
  }
  std::cout << "\n";
  for (std::size_t i = 0; i < s.ports.size(); ++i) {
    std::cout << std::setw(6) << s.labels[i];
    for (std::size_t j = 0; j < s.ports.size(); ++j) {
      if (i == j) {
        std::cout << std::setw(6) << "1";
      } else if (a.rho[i][j] == 0.0) {
        std::cout << std::setw(6) << "..";
      } else {
        std::cout << std::setw(6) << std::fixed << std::setprecision(2)
                  << a.rho[i][j];
      }
    }
    std::cout << "\n";
  }
  std::cout.unsetf(std::ios::fixed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("fig13_correlation");
  bench::banner(
      "Figure 13 — pairwise correlation of egress port rates (GraphX)",
      "snapshots find ~43% more significant pairs than polling and recover "
      "both ground truths (idle master port; correlated ECMP next-hops)");

  core::NetworkOptions opt;
  opt.seed = 20180822;
  opt.metric = sw::MetricKind::EwmaPacketRate;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  net.register_all_units_for_polling();

  // Workers: hosts 0..4. Host 5 is the master/driver: no bulk traffic.
  std::vector<net::Host*> workers;
  for (std::size_t h = 0; h < 5; ++h) workers.push_back(&net.host(h));
  wl::GraphXGenerator::Options go;
  go.superstep_interval = sim::msec(17);
  go.bytes_per_pair_mean = 192 * 1024;
  wl::GraphXGenerator gen(net.simulator(), workers, go, sim::Rng(31));
  gen.start(net.now());
  net.run_for(sim::msec(50));

  // The "ports" of the figure: every egress unit in the network (14 total:
  // 2 leaves x 5 + 2 spines x 2), like the paper's 14-port testbed matrix.
  Series series;
  std::size_t master_index = 0;
  std::vector<std::pair<std::size_t, std::size_t>> uplink_pairs;
  for (net::NodeId swid = 0; swid < 4; ++swid) {
    const auto ports = net.switch_at(swid).options().num_ports;
    std::size_t first_uplink = 0;
    for (net::PortId p = 0; p < ports; ++p) {
      series.ports.push_back({swid, p, net::Direction::Egress});
      // Append, not operator+: GCC 12's -Wrestrict false-positives on the
      // `"lit" + std::string&&` chain at -O2.
      std::string label = "s";
      label += std::to_string(swid);
      label += 'p';
      label += std::to_string(p);
      series.labels.push_back(std::move(label));
      if (swid < 2 && p == 3) first_uplink = series.ports.size() - 1;
      if (swid < 2 && p == 4) {
        uplink_pairs.push_back({first_uplink, series.ports.size() - 1});
      }
      if (swid == 1 && p == 2) master_index = series.ports.size() - 1;
    }
  }
  series.values.assign(series.ports.size(), {});
  auto polled = series;

  // 100 snapshots and 100 polling sweeps, interleaved offsets, both at the
  // same cadence (scaled down from the paper's 1s to keep simulated time
  // tractable; the superstep:interval ratio matches).
  // Not scaled down under --smoke: the run takes well under a second, and
  // the uplink-pair correlations need the full 100 sweeps to stay
  // significant at p < 0.1.
  constexpr std::size_t kSamples = 100;
  const auto campaign =
      core::run_snapshot_campaign(net, kSamples, sim::msec(23));
  std::vector<double> row;
  for (const auto* snap : campaign.results(net)) {
    if (!core::extract_values(*snap, series.ports, row)) continue;
    for (std::size_t i = 0; i < row.size(); ++i) {
      series.values[i].push_back(row[i]);
    }
  }
  const auto sweeps = core::run_polling_campaign(net, kSamples, sim::msec(23));
  for (const auto& sweep : sweeps) {
    if (!core::extract_values(sweep, polled.ports, row)) continue;
    for (std::size_t i = 0; i < row.size(); ++i) {
      polled.values[i].push_back(row[i]);
    }
  }

  const Analysis snap_a = analyze(series, master_index, uplink_pairs);
  const Analysis poll_a = analyze(polled, master_index, uplink_pairs);

  print_matrix(snap_a, series, "(a) Snapshot");
  print_matrix(poll_a, polled, "(b) Polling");

  const std::size_t pairs_total =
      series.ports.size() * (series.ports.size() - 1) / 2;
  std::cout << "\nSignificant pairs: snapshots " << snap_a.significant_pairs
            << " / " << pairs_total << ", polling "
            << poll_a.significant_pairs << " / " << pairs_total << "\n";
  std::cout << "Master-port significant correlations: snapshots "
            << snap_a.master_significant << ", polling "
            << poll_a.master_significant << "\n";
  std::cout << "Min same-leaf uplink-pair rho: snapshots "
            << snap_a.min_uplink_pair_rho << ", polling "
            << poll_a.min_uplink_pair_rho << "\n\n";

  report.metric("pairs_total", static_cast<double>(pairs_total));
  const auto emit = [&report](const std::string& side, const Analysis& a) {
    report.metric(side + ".significant_pairs",
                  static_cast<double>(a.significant_pairs));
    report.metric(side + ".master_significant",
                  static_cast<double>(a.master_significant));
    report.metric(side + ".min_uplink_pair_rho", a.min_uplink_pair_rho);
  };
  emit("snapshot", snap_a);
  emit("polling", poll_a);

  bench::check(snap_a.significant_pairs >
                   static_cast<std::size_t>(poll_a.significant_pairs * 1.2),
               "snapshots find substantially more significant pairs than "
               "polling (paper: +43%)");
  bench::check(snap_a.master_significant == 0,
               "ground truth 1: the idle master port correlates with nothing");
  bench::check(snap_a.uplink_pairs_all_significant &&
                   snap_a.min_uplink_pair_rho > 0.0,
               "ground truth 2: same-leaf ECMP uplinks positively correlated "
               "under snapshots");
  bench::check(!poll_a.uplink_pairs_all_significant ||
                   poll_a.min_uplink_pair_rho < snap_a.min_uplink_pair_rho,
               "polling misses or weakens the ECMP uplink correlations");

  report.embed_registry(net.metrics());
  return bench::finish(report);
}
