// Ablation: control-plane wire encoding (DESIGN.md section 16). Four
// configurations of the same leaf-spine campaign —
//
//   full           v2 fixed-size frames (29B notifications / 44B reports)
//   delta          delta-encoded frames against per-observer baselines
//   delta_compact  + truncated 16/24-bit timestamps with epoch recovery
//   sync_group     + an ingress-only observer scope (relevancy filtering
//                  at the control planes)
//
// all byte-charged, so smaller frames buy real control-plane service time.
// Reports per-config notification/report bytes per frame, shipped-vs-
// filtered report counts, and mean scheduled-fire -> observer-complete
// latency; checks that each step shrinks the wire footprint and that the
// full stack beats fixed-size frames end to end.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "snapshot/wire.hpp"
#include "stats/summary.hpp"

namespace {

using namespace speedlight;

struct Config {
  const char* name;
  snap::WireEncoding encoding;
  bool compact_ts;
  bool ingress_scope;
};

constexpr Config kConfigs[] = {
    {"full", snap::WireEncoding::FullV2, false, false},
    {"delta", snap::WireEncoding::DeltaV2, false, false},
    {"delta_compact", snap::WireEncoding::DeltaV2, true, false},
    {"sync_group", snap::WireEncoding::DeltaV2, true, true},
};

struct Result {
  double notif_bytes_per_frame = 0;
  double report_bytes_per_frame = 0;
  double wire_bytes_total = 0;
  double completion_ms = 0;
  std::uint64_t reports_shipped = 0;
  std::uint64_t reports_filtered = 0;
  std::uint64_t ts_fallbacks = 0;
  std::uint64_t decode_failures = 0;
};

Result run_config(const Config& cfg, bench::JsonReport& report) {
  core::NetworkOptions opt;
  opt.seed = 424;
  opt.wire.encoding = cfg.encoding;
  opt.wire.compact_timestamps = cfg.compact_ts;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  if (cfg.ingress_scope) {
    net.observer().set_scope([](const net::UnitId& u) {
      return u.direction == net::Direction::Ingress;
    });
    net.run_for(sim::msec(1));  // Let the scope RPCs land everywhere.
  }

  const auto campaign = core::run_snapshot_campaign(
      net, bench::scaled<std::size_t>(30, 10), sim::msec(5));

  Result out;
  stats::Summary latency;
  for (const auto* snap : campaign.results(net)) {
    latency.add(sim::to_msec(snap->completed_at - snap->scheduled_at));
  }
  out.completion_ms = latency.mean();

  const snap::WireStats ws = net.wire_stats_total();
  if (ws.notifications_encoded > 0) {
    out.notif_bytes_per_frame = static_cast<double>(ws.notification_bytes) /
                                static_cast<double>(ws.notifications_encoded);
  }
  if (ws.reports_encoded > 0) {
    out.report_bytes_per_frame = static_cast<double>(ws.report_bytes) /
                                 static_cast<double>(ws.reports_encoded);
  }
  out.wire_bytes_total =
      static_cast<double>(ws.notification_bytes + ws.report_bytes);
  out.reports_shipped = ws.reports_encoded;
  out.ts_fallbacks = ws.ts_fallbacks;
  out.decode_failures = ws.decode_failures;
  for (std::size_t i = 0; i < net.num_switches(); ++i) {
    out.reports_filtered += net.switch_at(i).control_plane().reports_filtered();
  }

  const std::string p = std::string("config.") + cfg.name;
  report.metric(p + ".notif_bytes_per_frame", out.notif_bytes_per_frame);
  report.metric(p + ".report_bytes_per_frame", out.report_bytes_per_frame);
  report.metric(p + ".wire_bytes_total", out.wire_bytes_total);
  report.metric(p + ".completion_ms", out.completion_ms);
  report.metric(p + ".reports_shipped",
                static_cast<double>(out.reports_shipped));
  report.metric(p + ".reports_filtered",
                static_cast<double>(out.reports_filtered));
  report.metric(p + ".ts_fallbacks", static_cast<double>(out.ts_fallbacks));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("ablation_wire_encoding");
  bench::banner(
      "Ablation — control-plane wire encoding",
      "full v2 frames vs delta vs delta+compact-ts vs +sync-group scope; "
      "byte-charged service, so every saved byte is saved service time");

  std::cout << "\n  config         notif B/frame  report B/frame  wire bytes"
               "  completion (ms)  shipped/filtered\n";
  Result res[4];
  for (int i = 0; i < 4; ++i) {
    res[i] = run_config(kConfigs[i], report);
    std::cout << "  " << kConfigs[i].name << "\t" << res[i].notif_bytes_per_frame
              << "\t" << res[i].report_bytes_per_frame << "\t"
              << res[i].wire_bytes_total << "\t" << res[i].completion_ms << "\t"
              << res[i].reports_shipped << "/" << res[i].reports_filtered
              << "\n";
  }
  std::cout << "\n";

  const Result& full = res[0];
  const Result& delta = res[1];
  const Result& compact = res[2];
  const Result& scoped = res[3];

  bench::check(full.notif_bytes_per_frame ==
                   static_cast<double>(snap::kFullNotificationBytes),
               "full config ships fixed 29-byte notifications");
  bench::check(delta.notif_bytes_per_frame < full.notif_bytes_per_frame,
               "delta encoding shrinks notifications");
  bench::check(compact.notif_bytes_per_frame < delta.notif_bytes_per_frame,
               "compact timestamps shrink notifications further");
  bench::check(compact.notif_bytes_per_frame * 5.0 <=
                   static_cast<double>(snap::kFullNotificationBytes),
               "delta + compact-ts notifications are >=5x smaller than full "
               "frames");
  bench::check(delta.report_bytes_per_frame < full.report_bytes_per_frame,
               "delta encoding shrinks reports");
  bench::check(compact.completion_ms < full.completion_ms,
               "smaller frames complete snapshots faster (byte-charged "
               "service)");
  bench::check(scoped.reports_filtered > 0 &&
                   scoped.reports_shipped < compact.reports_shipped,
               "sync-group scope filters out-of-scope reports at the source");
  bench::check(scoped.wire_bytes_total < compact.wire_bytes_total,
               "sync-group scope shrinks total wire traffic");
  for (const auto& r : res) {
    bench::check(r.decode_failures == 0, "no wire decode failures");
  }
  return bench::finish(report);
}
