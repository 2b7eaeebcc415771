// Figure 10: maximum sustained snapshot rate before notification queue
// buildup, versus router port count {4, 8, 16, 32, 64}. The bottleneck is
// the control plane's per-notification service time; the paper sustains
// >70 snapshots/s at 64 ports (a full linecard).
//
// Runs on the default wire format (DESIGN.md section 16): notifications
// ship as delta-encoded compact-timestamp frames whose service time scales
// with frame size, so the sustained rate is >=3x the fixed-cost service
// rate and notification bytes drop >=5x against the 29-byte full frames.
// The fixed-cost rates come from the same bisection with byte charging off
// (every frame costs the full service time, the retired v1 model).
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "snapshot/wire.hpp"

namespace {

using namespace speedlight;

/// Run `count` snapshots at `rate_hz` on a single switch with `ports`
/// ports; returns true when the notification queue never builds up across
/// snapshots (max backlog stays within a single snapshot's burst of 2*ports
/// notifications) and nothing is dropped — the paper's criterion of "the
/// highest frequency without [notification] drops / queue buildup".
/// `charge_bytes` false makes every frame cost the fixed service time.
bool sustains(int ports, double rate_hz, std::size_t count, bool charge_bytes,
              bench::JsonReport* report = nullptr,
              snap::WireStats* wire = nullptr) {
  core::NetworkOptions opt;
  opt.seed = 7;
  opt.timing.notification_buffer_capacity = 4096;
  // The default wire format, delta + compact ts.
  opt.wire.charge_bytes = charge_bytes;
  opt.observer.completion_timeout = sim::sec(5.0);
  core::Network net(net::make_star(static_cast<std::size_t>(ports)), opt);

  const auto interval =
      static_cast<sim::Duration>(sim::kSecond / rate_hz);
  core::run_snapshot_campaign(net, count, interval, sim::msec(1),
                              sim::msec(100));
  if (report != nullptr) report->embed_registry(net.metrics());
  if (wire != nullptr) *wire = net.wire_stats_total();
  auto& notif = net.switch_at(0).notifications();
  const std::size_t one_burst =
      2 * static_cast<std::size_t>(ports) + 4;  // ingress+egress per port
  return notif.dropped_overflow() == 0 && notif.max_backlog() <= one_burst;
}

double max_rate(int ports, bool charge_bytes) {
  const std::size_t kSnapshots = bench::scaled<std::size_t>(25, 8);
  const int kBisections = bench::scaled(14, 8);
  double lo = 1.0;      // Always sustainable.
  double hi = 20000.0;  // Never sustainable.
  for (int iter = 0; iter < kBisections; ++iter) {
    const double mid = std::sqrt(lo * hi);  // Log-scale bisection.
    if (sustains(ports, mid, kSnapshots, charge_bytes)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("fig10_snapshot_rate");
  bench::banner(
      "Figure 10 — max sustained snapshot rate vs ports/router",
      ">70 snapshots/s at 64 ports; rate falls roughly linearly in port "
      "count on a log-log scale (control-plane service time bottleneck)");

  std::cout << "\n  ports   max sustained rate (Hz)   fixed-cost service (Hz)\n";
  double rates[5];
  double fixed[5];
  const int ports[5] = {4, 8, 16, 32, 64};
  for (int i = 0; i < 5; ++i) {
    rates[i] = max_rate(ports[i], /*charge_bytes=*/true);
    fixed[i] = max_rate(ports[i], /*charge_bytes=*/false);
    std::cout << "  " << ports[i] << "\t" << rates[i] << "\t\t\t" << fixed[i]
              << "\n";
  }
  std::cout << "\n";

  bench::check(rates[4] > 70.0,
               "64-port router sustains >70 snapshots/s (paper's claim)");
  // Byte-charged delta frames must buy at least 3x over fixed-cost
  // service (the retired v1 model) at 64 ports.
  bench::check(rates[4] > 3.0 * fixed[4],
               "wire fast path sustains >=3x the fixed-cost 64-port rate");
  bench::check(rates[0] > 500.0, "4-port router sustains hundreds of Hz");
  for (int i = 1; i < 5; ++i) {
    bench::check(rates[i] < rates[i - 1],
                 "rate decreases with port count (" +
                     std::to_string(ports[i - 1]) + " -> " +
                     std::to_string(ports[i]) + " ports)");
  }
  // Log-log linearity: doubling ports roughly halves the rate.
  for (int i = 1; i < 5; ++i) {
    const double ratio = rates[i - 1] / rates[i];
    bench::check(ratio > 1.4 && ratio < 2.9,
                 "doubling ports roughly halves the sustainable rate (" +
                     std::to_string(ports[i]) + " ports: ratio " +
                     std::to_string(ratio) + ")");
  }

  for (int i = 0; i < 5; ++i) {
    report.metric("max_rate_hz_" + std::to_string(ports[i]) + "_ports",
                  rates[i]);
  }
  for (int i = 0; i < 5; ++i) {
    report.metric(
        "fixed_cost_max_rate_hz_" + std::to_string(ports[i]) + "_ports",
        fixed[i]);
  }
  // One representative run at the 64-port sustained rate to capture the
  // flight recorder's registry dump and the wire byte accounting.
  snap::WireStats wire;
  sustains(64, rates[4], bench::scaled<std::size_t>(25, 8),
           /*charge_bytes=*/true, &report, &wire);
  const double bytes_per_notification =
      wire.notifications_encoded == 0
          ? 0.0
          : static_cast<double>(wire.notification_bytes) /
                static_cast<double>(wire.notifications_encoded);
  report.metric("wire_bytes_per_notification", bytes_per_notification);
  report.metric("wire_ts_fallbacks", static_cast<double>(wire.ts_fallbacks));
  bench::check(wire.notifications_encoded > 0 &&
                   bytes_per_notification * 5.0 <=
                       static_cast<double>(snap::kFullNotificationBytes),
               "delta + compact-ts notifications are >=5x smaller than the "
               "29-byte full frames");
  bench::check(wire.decode_failures == 0, "no wire decode failures");
  return bench::finish(report);
}
