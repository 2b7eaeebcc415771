// Figure 11: average whole-network synchronization of Speedlight snapshots
// in large simulated deployments — {10, 100, 1000, 10000} routers with 64
// ports each, no channel state.
//
// Methodology mirrors the paper's: the per-unit snapshot instant is
// composed of PTP residual offset, control-plane (OpenNetworkLinux)
// scheduling jitter, sequential initiation dispatch, and CPU->ASIC
// latency; the distributions are the ones the Figure 9 harness exercises
// on the small testbed. Synchronization of one snapshot is the spread
// (max - min) of the instants over every unit in the network; we report
// the average over many trials.
//
// Usage: fig11_scalability [--smoke] [--large] [--json-out PATH]
//   --large adds the k=16 (and, without --smoke, k=32) fat-tree sweep
//   points. Any other flag exits 2.
//
// The full-simulator runs emit the events they executed
// (`full_sim.events`, `fat_tree.k<k>.events`) and the fat-tree runs their
// metrics-registry size (`fat_tree.k<k>.registry_entries`) and the bytes
// of register state the fabric holds after its rounds
// (`fat_tree.k<k>.register_bytes`: flowlet tables plus Snapshot Value
// arrays, both sized by what the run made live): deterministic counts that
// CI gates exactly.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "obs/process_stats.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/timing_model.hpp"
#include "stats/summary.hpp"

namespace {

using namespace speedlight;

double average_sync_us(std::size_t routers, int trials, sim::Rng& rng,
                       int ports_per_router = 64) {
  const sim::TimingModel timing;
  const int kPortsPerRouter = ports_per_router;
  stats::Summary sync;

  for (int t = 0; t < trials; ++t) {
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t r = 0; r < routers; ++r) {
      // Per-router terms: clock error at the fire instant + scheduler
      // wakeup delay before the control plane starts dispatching.
      const double clock_error =
          static_cast<double>(timing.sample_ptp_residual(rng)) +
          timing.sample_drift_ppm(rng) * 1e-6 *
              rng.uniform(0.0, static_cast<double>(timing.ptp_sync_interval));
      const double wakeup =
          static_cast<double>(timing.sample_sched_jitter(rng));
      for (int p = 0; p < kPortsPerRouter; ++p) {
        // Sequential per-port dispatch; ingress and egress units of a port
        // snapshot a fabric-delay apart, folded into the dispatch term.
        const double dispatch =
            static_cast<double>((p + 1) * timing.initiation_dispatch_per_port) +
            static_cast<double>(timing.cpu_to_dataplane_latency);
        const double instant = clock_error + wakeup + dispatch;
        lo = std::min(lo, instant);
        hi = std::max(hi, instant);
      }
    }
    sync.add((hi - lo) / 1e3);  // us
  }
  return sync.mean();
}

}  // namespace

// Cross-validation: the same quantity measured in the *full* simulator
// (every packet, clock, and control-plane event) on a ring of
// 3-port routers, vs the sampled model at matched parameters.
double full_sim_sync_us(std::size_t routers, std::size_t snapshots,
                        bench::JsonReport& report) {
  core::NetworkOptions opt;
  opt.seed = 818;
  core::Network net(net::make_ring(routers), opt);
  const auto campaign = core::run_snapshot_campaign(
      net, snapshots, sim::msec(5));
  stats::Summary sync;
  for (const auto* snap : campaign.results(net)) {
    sync.add(sim::to_usec(snap->advance_span()));
  }
  report.metric("full_sim.events",
                static_cast<double>(net.simulator().stats().executed));
  report.embed_registry(net.metrics());
  return sync.mean();
}

// Past-paper-scale sweep: run real snapshot rounds on whole fat-tree
// fabrics (not the sampled per-router model) and report, per k —
//   * snapshot spread (advance_span, the Figure 11 quantity),
//   * a collection-time breakdown: capture phase (scheduled -> last unit
//     advance) vs assembly tail (last advance -> observer completion),
//   * memory accounting from the SoA/lazy-port core: anonymous RSS growth
//     across construction (heap, not code pages), peak RSS, and how many
//     ports a workload-free snapshot round actually materializes,
//   * streaming-assembly accounting (DESIGN.md section 16.4): the observer
//     folds unit reports into per-device digests as they arrive, so a
//     round's assembly state is one entry per switch and the assembly tail
//     stays flat as the fabric grows.
// Trivially copyable: a forked child sends it to the parent as raw bytes.
struct FatTreeRound {
  std::size_t switches = 0;
  std::size_t hosts = 0;
  std::size_t ports = 0;
  std::size_t completed = 0;
  std::size_t mat_before = 0;
  std::size_t mat_after = 0;
  std::size_t assembly_entries = 0;  ///< Observer digest entries, all rounds.
  /// Metrics registry size after the campaign.
  std::size_t registry_entries = 0;
  std::size_t register_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t construct_rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  double spread_us = 0;
  double capture_us = 0;
  double assemble_us = 0;

  [[nodiscard]] std::size_t units() const { return 2 * ports; }
  [[nodiscard]] std::size_t assembly_entries_per_round() const {
    return completed == 0 ? 0 : assembly_entries / completed;
  }
};
static_assert(std::is_trivially_copyable_v<FatTreeRound>);

FatTreeRound fat_tree_round(std::size_t k, std::size_t snapshots) {
  const std::uint64_t rss_before = obs::current_anon_rss_kb();

  core::NetworkOptions opt;
  opt.seed = 818;
  // Production posture (DESIGN.md section 16): the default wire format +
  // streaming digest-only assembly. A round's observer state is
  // O(devices) — the raw unit reports are never retained — and every
  // aggregate below reads the digests.
  opt.observer.retain_unit_reports = false;
  core::Network net(net::make_fat_tree(k), opt);

  FatTreeRound out;
  out.construct_rss_kb = obs::current_anon_rss_kb() - rss_before;
  out.mat_before = net.materialized_ports();

  const auto campaign =
      core::run_snapshot_campaign(net, snapshots, sim::msec(2));

  stats::Summary spread, capture, assemble;
  for (const auto* snap : campaign.results(net)) {
    spread.add(sim::to_usec(snap->advance_span()));
    const sim::SimTime last_advance =
        std::max(snap->scheduled_at, snap->latest_advance());
    capture.add(sim::to_usec(last_advance - snap->scheduled_at));
    assemble.add(sim::to_usec(snap->completed_at - last_advance));
    for (const auto& shard : snap->digests) {
      out.assembly_entries += shard.size();
    }
    ++out.completed;
  }
  out.spread_us = spread.mean();
  out.capture_us = capture.mean();
  out.assemble_us = assemble.mean();
  out.switches = net.spec().switches.size();
  out.hosts = net.num_hosts();
  for (const auto& sw : net.spec().switches) out.ports += sw.num_ports;
  out.mat_after = net.materialized_ports();
  out.events = net.simulator().stats().executed;
  out.registry_entries = net.metrics().size();
  out.register_bytes = net.register_bytes();
  out.peak_rss_kb = obs::peak_rss_kb();
  return out;
}

/// Runs fat_tree_round in a forked child and reads its result back over a
/// pipe, so each fabric is built on a heap nothing else has used: reused
/// free memory would hide part of what construction costs. Forked before
/// main() simulates anything, a child's construct_rss_kb equals that of
/// the same fabric built alone in a fresh process.
FatTreeRound fat_tree_round_in_child(std::size_t k, std::size_t snapshots) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("fig11: pipe() failed");
  std::cout.flush();  // The child must not inherit unwritten output.
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fig11: fork() failed");
  if (pid == 0) {
    // The child never returns into main().
    close(fds[0]);
    bool sent = false;
    try {
      const FatTreeRound r = fat_tree_round(k, snapshots);
      sent = write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
    } catch (const std::exception& e) {
      std::cerr << "fig11: k=" << k << ": " << e.what() << "\n";
    }
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  // A pipe write of at most PIPE_BUF bytes arrives whole, so one read
  // returns all of it or nothing.
  static_assert(sizeof(FatTreeRound) <= PIPE_BUF);
  FatTreeRound r;
  const bool got = read(fds[0], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fig11: the k=" + std::to_string(k) +
                             " child failed");
  }
  return r;
}

void report_fat_tree_round(std::size_t k, std::size_t snapshots,
                           const FatTreeRound& r, bench::JsonReport& report) {
  const std::string prefix = "fat_tree.k" + std::to_string(k);
  report.metric(prefix + ".switches", static_cast<double>(r.switches));
  report.metric(prefix + ".hosts", static_cast<double>(r.hosts));
  report.metric(prefix + ".ports", static_cast<double>(r.ports));
  report.metric(prefix + ".completed", static_cast<double>(r.completed));
  report.metric(prefix + ".spread_us", r.spread_us);
  report.metric(prefix + ".capture_us", r.capture_us);
  report.metric(prefix + ".assemble_us", r.assemble_us);
  report.metric(prefix + ".construct_rss_kb",
                static_cast<double>(r.construct_rss_kb));
  report.metric(prefix + ".peak_rss_kb", static_cast<double>(r.peak_rss_kb));
  report.metric(prefix + ".materialized_ports_before",
                static_cast<double>(r.mat_before));
  report.metric(prefix + ".materialized_ports_after",
                static_cast<double>(r.mat_after));
  // Streaming assembly: per-round observer state is one digest per device
  // (units fold in and are dropped), so entries == switches x rounds.
  report.metric(prefix + ".assembly_entries_per_round",
                r.completed == 0
                    ? 0.0
                    : static_cast<double>(r.assembly_entries) /
                          static_cast<double>(r.completed));
  report.metric(prefix + ".events", static_cast<double>(r.events));
  report.metric(prefix + ".registry_entries",
                static_cast<double>(r.registry_entries));
  report.metric(prefix + ".register_bytes",
                static_cast<double>(r.register_bytes));

  std::cout << "  k=" << k << "\t" << r.switches << " switches\t"
            << r.completed << "/" << snapshots << " snapshots\tspread "
            << r.spread_us << " us\tcapture " << r.capture_us / 1e3
            << " ms\tassemble " << r.assemble_us << " us\tRSS +"
            << r.construct_rss_kb / 1024 << " MB\n";
}

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      ++i;  // Handled by bench::parse_args.
    } else if (std::strcmp(argv[i], "--smoke") != 0) {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return 2;
    }
  }
  bench::JsonReport report("fig11_scalability");

  // Past paper scale: whole fat-tree fabrics through the full simulator.
  // k=4/8 always; k=16 (320 switches / 1,024 hosts) under --large or in a
  // full run; k=32 (1,280 switches / 8,192 hosts) only in a full --large
  // run — it is the documented upper bound, not a CI default. Each fabric
  // runs in its own child, forked before this process has simulated
  // anything, and is reported below.
  std::vector<std::size_t> ks = {4, 8};
  if (large || !bench::g_smoke) ks.push_back(16);
  if (large && !bench::g_smoke) ks.push_back(32);
  const std::size_t rounds = bench::scaled<std::size_t>(3, 2);
  std::vector<FatTreeRound> ft;
  for (const auto k : ks) ft.push_back(fat_tree_round_in_child(k, rounds));

  bench::banner(
      "Figure 11 — average synchronization vs number of routers",
      "64-port routers, no channel state: sync grows slowly with network "
      "size but stays below ~100us (under typical datacenter RTTs)");

  sim::Rng rng(20180820);
  const std::size_t sizes[] = {10, 100, 1000, 10000};
  std::vector<double> avg;

  std::cout << "\n  routers   avg synchronization (us)\n";
  for (const auto n : sizes) {
    const int trials =
        bench::scaled(n >= 10000 ? 5 : 30, n >= 10000 ? 1 : 5);
    avg.push_back(average_sync_us(n, trials, rng));
    std::cout << "  " << n << "\t" << avg.back() << "\n";
  }
  std::cout << "\n";

  bench::check(avg[0] < 100.0, "10-router sync under 100us");
  bench::check(avg[3] < 100.0,
               "10,000-router sync still under 100us (the paper's headline)");
  for (std::size_t i = 1; i < avg.size(); ++i) {
    bench::check(avg[i] >= avg[i - 1] * 0.98,
                 "sync grows (weakly) with network size");
  }
  bench::check(avg[3] / avg[0] < 2.0,
               "growth is asymptotic, not linear (tail effect only)");

  // Cross-validate the sampled model against the full simulator at a scale
  // the simulator can run exhaustively (12 x 3-port routers).
  const double model = average_sync_us(12, bench::scaled(200, 40), rng,
                                       /*ports=*/3);
  const double simulated =
      full_sim_sync_us(12, bench::scaled<std::size_t>(60, 15), report);
  std::cout << "\nCross-validation @ 12 routers x 3 ports:\n"
            << "  sampled model:  " << model << " us\n"
            << "  full simulator: " << simulated << " us\n";
  bench::check(simulated > 0.5 * model && simulated < 2.0 * model,
               "full-simulation sync agrees with the sampled model within 2x");

  std::cout << "\nFull-fabric fat-tree sweep:\n";
  for (std::size_t i = 0; i < ft.size(); ++i) {
    report_fat_tree_round(ks[i], rounds, ft[i], report);
  }
  for (std::size_t i = 0; i < ft.size(); ++i) {
    bench::check(ft[i].completed == rounds,
                 "k=" + std::to_string(ks[i]) +
                     ": every requested snapshot completed");
    bench::check(ft[i].mat_before == 0,
                 "k=" + std::to_string(ks[i]) +
                     ": construction materializes zero ports (lazy SoA core)");
    bench::check(ft[i].spread_us > 0.0 && ft[i].spread_us < 500.0,
                 "k=" + std::to_string(ks[i]) +
                     ": full-fabric spread positive and under 500us");
    bench::check(ft[i].assembly_entries_per_round() == ft[i].switches,
                 "k=" + std::to_string(ks[i]) +
                     ": assembly state is O(devices) per round (one digest "
                     "per switch, no retained unit reports)");
  }
  // The registry holds fabric-wide series only, so its size does not grow
  // with the fabric.
  bool same_registry = true;
  for (const auto& r : ft) {
    same_registry &= r.registry_entries == ft.front().registry_entries;
  }
  bench::check(same_registry, "metrics registry the same size at every k");
  // Streaming completion is O(1) per report: the assembly tail (last unit
  // advance -> observer completion) must grow far slower than the unit
  // count across fabric sizes.
  if (ft.size() >= 2) {
    const auto& lo = ft.front();
    const auto& hi = ft.back();
    const double unit_ratio =
        static_cast<double>(hi.units()) / static_cast<double>(lo.units());
    const double assemble_ratio = hi.assemble_us / std::max(lo.assemble_us, 1.0);
    bench::check(assemble_ratio < unit_ratio / 2.0,
                 "assembly tail grows sublinearly in unit count (" +
                     std::to_string(assemble_ratio) + "x tail vs " +
                     std::to_string(unit_ratio) + "x units)");
  }

  return bench::finish(report);
}
