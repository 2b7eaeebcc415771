// Ablation: the liveness mechanisms of Section 6 for channel-state
// snapshots on a traffic-less network — where only control-plane action
// can complete a snapshot.
//
//   (a) probe flood at initiation (this implementation's default),
//   (b) probes only on re-initiation timeouts,
//   (c) no probes at all (re-initiation alone cannot help: the ids are
//       already delivered; the Last Seen entries are what stall).
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "stats/summary.hpp"

namespace {

using namespace speedlight;

struct Result {
  double mean_completion_ms = 0.0;
  std::size_t completed = 0;
  std::size_t excluded_devices = 0;
};

Result run(bool probe_on_initiate, bool probe_on_reinitiate,
           bench::JsonReport* report = nullptr) {
  core::NetworkOptions opt;
  opt.seed = 4;
  opt.snapshot.channel_state = true;
  opt.control.probe_on_initiate = probe_on_initiate;
  opt.control.probe_on_reinitiate = probe_on_reinitiate;
  opt.observer.completion_timeout = sim::msec(60);
  // Fixed-cost notification service, the paper's calibration.
  opt.wire.charge_bytes = false;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  // NO traffic at all: the hard case for channel-state completion.
  const auto campaign = core::run_snapshot_campaign(
      net, bench::scaled<std::size_t>(10, 4), sim::msec(80));
  Result r;
  stats::Summary latency;
  for (const auto* snap : campaign.results(net)) {
    ++r.completed;
    r.excluded_devices += snap->excluded_devices.size();
    if (snap->excluded_devices.empty()) {
      latency.add(sim::to_msec(snap->completed_at - snap->scheduled_at));
    }
  }
  r.mean_completion_ms = latency.count() > 0 ? latency.mean() : -1.0;
  if (report != nullptr) report->embed_registry(net.metrics());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("ablation_liveness");
  bench::banner(
      "Ablation — channel-state liveness without traffic (Section 6)",
      "\"if there is no such traffic on which to piggyback, the snapshot "
      "may never complete ... we can inject broadcasts into the network\"");

  const Result at_init = run(true, true, &report);
  const Result at_reinit = run(false, true);
  const Result none = run(false, false);

  // Deterministic counts, gated exactly in CI. mean_completion_ms is -1
  // when no snapshot completed without a device exclusion.
  auto emit = [&report](const std::string& variant, const Result& r) {
    report.metric(variant + ".completed", static_cast<double>(r.completed));
    report.metric(variant + ".excluded_devices",
                  static_cast<double>(r.excluded_devices));
    report.metric(variant + ".mean_completion_ms", r.mean_completion_ms);
  };
  emit("at_init", at_init);
  emit("at_reinit", at_reinit);
  emit("none", none);

  const std::size_t requested = bench::scaled<std::size_t>(10, 4);
  auto show = [requested](const char* label, const Result& r) {
    std::cout << "  " << label << ": " << r.completed << "/" << requested
              << " snapshots assembled, mean full completion ";
    if (r.mean_completion_ms >= 0) {
      std::cout << r.mean_completion_ms << " ms";
    } else {
      std::cout << "n/a";
    }
    std::cout << ", device exclusions " << r.excluded_devices << "\n";
  };
  std::cout << "\n";
  show("probes at initiation  ", at_init);
  show("probes on re-initiation", at_reinit);
  show("no probes             ", none);
  std::cout << "\n";

  bench::check(at_init.excluded_devices == 0,
               "probe-at-initiation completes every snapshot fully");
  bench::check(at_init.mean_completion_ms >= 0 &&
                   at_init.mean_completion_ms < 6.0,
               "probe-at-initiation completes in single-digit milliseconds "
               "(bounded by notification service, not by timeouts)");
  bench::check(at_reinit.excluded_devices == 0,
               "re-initiation probes also complete everything eventually");
  bench::check(at_reinit.mean_completion_ms > at_init.mean_completion_ms,
               "waiting for the re-initiation timeout costs latency");
  bench::check(none.excluded_devices > 0,
               "without probes, traffic-less channel-state snapshots stall "
               "until devices are excluded (the failure mode Section 6 "
               "warns about)");
  return bench::finish(report);
}
