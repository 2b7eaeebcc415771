// Ablation: raw-socket DMA notifications (the paper's choice) vs the P4
// digest-stream alternative Section 7.2 mentions and rejects.
//
// Measures (a) end-to-end snapshot collection latency and (b) the maximum
// sustained snapshot rate (the Figure 10 criterion) under both transports.
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "stats/summary.hpp"

namespace {

using namespace speedlight;

/// Mean scheduled-fire -> observer-complete latency over a campaign.
double completion_latency_ms(snap::NotificationMode mode,
                             bench::JsonReport* report = nullptr) {
  core::NetworkOptions opt;
  opt.seed = 99;
  opt.notification_mode = mode;
  // Fixed-cost notification service, the paper's calibration.
  opt.wire.charge_bytes = false;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  const auto campaign = core::run_snapshot_campaign(
      net, bench::scaled<std::size_t>(30, 10), sim::msec(10));
  stats::Summary latency;
  for (const auto* snap : campaign.results(net)) {
    latency.add(sim::to_msec(snap->completed_at - snap->scheduled_at));
  }
  if (report != nullptr) report->embed_registry(net.metrics());
  return latency.mean();
}

bool sustains(snap::NotificationMode mode, int ports, double rate_hz) {
  core::NetworkOptions opt;
  opt.seed = 7;
  opt.notification_mode = mode;
  opt.wire.charge_bytes = false;
  opt.observer.completion_timeout = sim::sec(5.0);
  core::Network net(net::make_star(static_cast<std::size_t>(ports)), opt);
  core::run_snapshot_campaign(
      net, bench::scaled<std::size_t>(25, 8),
      static_cast<sim::Duration>(sim::kSecond / rate_hz), sim::msec(1),
      sim::msec(100));
  auto& notif = net.switch_at(0).notifications();
  const std::size_t one_burst = 2 * static_cast<std::size_t>(ports) + 8;
  return notif.dropped_overflow() == 0 && notif.max_backlog() <= one_burst;
}

double max_rate(snap::NotificationMode mode, int ports) {
  const int kBisections = bench::scaled(12, 7);
  double lo = 0.5;
  double hi = 20000.0;
  for (int iter = 0; iter < kBisections; ++iter) {
    const double mid = std::sqrt(lo * hi);
    (sustains(mode, ports, mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("ablation_notification_transport");
  bench::banner(
      "Ablation — notification transport: raw socket vs digest stream",
      "Section 7.2: raw sockets were chosen because they \"offered "
      "significantly better performance\" than the P4 digest stream");

  const double raw_lat =
      completion_latency_ms(snap::NotificationMode::RawSocket, &report);
  const double digest_lat = completion_latency_ms(snap::NotificationMode::Digest);
  std::cout << "\nSnapshot collection latency (fire -> observer complete):\n"
            << "  raw socket:    " << raw_lat << " ms\n"
            << "  digest stream: " << digest_lat << " ms\n";
  report.metric("raw.completion_ms", raw_lat);
  report.metric("digest.completion_ms", digest_lat);

  std::cout << "\nMax sustained snapshot rate (Hz):\n  ports   raw     digest\n";
  double raw_rate[2];
  double digest_rate[2];
  const int ports[2] = {16, 64};
  for (int i = 0; i < 2; ++i) {
    raw_rate[i] = max_rate(snap::NotificationMode::RawSocket, ports[i]);
    digest_rate[i] = max_rate(snap::NotificationMode::Digest, ports[i]);
    std::cout << "  " << ports[i] << "\t" << raw_rate[i] << "\t"
              << digest_rate[i] << "\n";
    // Append, not operator+: GCC 12's -Wrestrict false-positives on the
    // `"lit" + std::string&&` chain at -O2.
    std::string suffix = ".max_rate_hz_";
    suffix += std::to_string(ports[i]);
    suffix += "_ports";
    report.metric("raw" + suffix, raw_rate[i]);
    report.metric("digest" + suffix, digest_rate[i]);
  }
  std::cout << "\n";

  bench::check(raw_lat < digest_lat,
               "raw socket collects snapshots faster than the digest stream");
  bench::check(digest_lat / raw_lat > 1.3,
               "the gap is significant (>30%), matching the paper's rationale");
  for (int i = 0; i < 2; ++i) {
    bench::check(raw_rate[i] > digest_rate[i],
                 "raw socket sustains a higher snapshot rate at " +
                     std::to_string(ports[i]) + " ports");
  }
  return bench::finish(report);
}
