// Ablation: the wire snapshot-id space (the "+Wrap Around" variant's
// parameter). A smaller id space means smaller Snapshot Value register
// arrays (SRAM) but a tighter no-lapping window the observer must enforce
// out-of-band — at high snapshot rates requests start getting refused
// until outstanding snapshots complete. Accepted rounds either assemble in
// full or are closed by the observer's completion timeout with devices
// excluded; the bench counts the two apart.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace {

using namespace speedlight;

struct Result {
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::size_t completed = 0;
  std::size_t assembled = 0;  ///< Completed with every device's reports.
  std::size_t timed_out = 0;  ///< Closed by the timeout, devices excluded.
  double slot_kb_per_unit = 0.0;
};

Result run(std::uint32_t modulus, bench::JsonReport* report = nullptr) {
  core::NetworkOptions opt;
  opt.seed = 12;
  opt.snapshot.channel_state = true;
  opt.snapshot.wire_id_modulus = modulus;
  // Fixed-cost notification service, the paper's calibration.
  opt.wire.charge_bytes = false;
  core::Network net(net::make_leaf_spine(2, 2, 3), opt);
  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::CbrGenerator>(
        net.simulator(), net.host(h), net.host_id((h + 3) % 6),
        static_cast<net::FlowId>(h + 1), 1e9, 1500);
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  net.run_for(sim::msec(2));
  // Aggressive cadence: one snapshot per 500us, 60 requests.
  const auto campaign = core::run_snapshot_campaign(
      net, bench::scaled<std::size_t>(60, 24), sim::usec(500));
  if (report != nullptr) report->embed_registry(net.metrics());
  Result r;
  r.accepted = campaign.ids.size();
  r.skipped = campaign.skipped;
  for (const snap::GlobalSnapshot* snap : campaign.results(net)) {
    ++r.completed;
    if (snap->excluded_devices.empty()) {
      ++r.assembled;
    } else {
      ++r.timed_out;
    }
  }
  // Register cost per unit: one slot = value(8B) + channel(8B) + tag/flag.
  const std::size_t slots = opt.snapshot.slots();
  r.slot_kb_per_unit = static_cast<double>(slots) * 17.0 / 1024.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("ablation_wraparound");
  bench::banner(
      "Ablation — wire snapshot-id space vs snapshot cadence",
      "Section 5.3: rollover trades register memory for the out-of-band "
      "no-lapping window (max in-flight spread modulus-1 with channel "
      "state)");

  const std::uint32_t moduli[] = {4, 8, 16, 64, 0};
  Result results[5];
  std::cout << "\n  id space   accepted  refused  assembled  timed out"
               "  slot-KB/unit\n";
  for (int i = 0; i < 5; ++i) {
    results[i] = run(moduli[i], i == 4 ? &report : nullptr);
    std::cout << "  " << (moduli[i] == 0 ? std::string("2^32")
                                         : std::to_string(moduli[i]))
              << "\t     " << results[i].accepted << "\t  "
              << results[i].skipped << "\t   " << results[i].assembled
              << "\t      " << results[i].timed_out << "\t  "
              << results[i].slot_kb_per_unit << "\n";
    // Built by append: `"lit" + std::string&&` trips a GCC 12 -Wrestrict
    // false positive at -O2 (see bench_common.hpp).
    std::string key = "m";
    key += std::to_string(moduli[i]);
    key += '.';
    report.metric(key + "accepted", static_cast<double>(results[i].accepted));
    report.metric(key + "refused", static_cast<double>(results[i].skipped));
    report.metric(key + "assembled",
                  static_cast<double>(results[i].assembled));
    report.metric(key + "timed_out",
                  static_cast<double>(results[i].timed_out));
  }
  std::cout << "\n";

  bench::check(results[0].skipped > 0,
               "a 2-bit id space refuses requests at this cadence (window=3)");
  for (int i = 1; i < 5; ++i) {
    bench::check(results[i].skipped <= results[i - 1].skipped,
                 "a larger id space refuses no more requests (" +
                     std::to_string(moduli[i]) + ")");
  }
  bench::check(results[3].skipped == 0 && results[4].skipped == 0,
               "64 ids refuse no request at this cadence");
  for (int i = 0; i < 5; ++i) {
    bench::check(results[i].completed == results[i].accepted,
                 "every accepted snapshot completes or times out (modulus " +
                     std::to_string(moduli[i]) + ")");
  }
  bench::check(results[0].slot_kb_per_unit < results[3].slot_kb_per_unit,
               "smaller id spaces shrink the per-unit register arrays");
  return bench::finish(report);
}
