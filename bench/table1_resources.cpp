// Table 1: resource usage of the Speedlight data plane on the Tofino, for
// the three variants (packet count / + wraparound / + channel state),
// plus the 14-port configuration quoted in Section 7.1.
//
// Metrics, per variant at 64 ports (`<variant>.<resource>`, variant one of
// packet_count, wrap_around, channel_state): stateless_alus, stateful_alus,
// tables, gateways, stages, sram_kb, tcam_kb and max_utilization_frac; plus
// `ports14.sram_kb` / `ports14.tcam_kb`. The model is deterministic, so CI
// gates every count exactly.
#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "resources/tofino_model.hpp"

int main(int argc, char** argv) {
  using namespace speedlight;
  using res::Variant;
  bench::parse_args(argc, argv);
  bench::JsonReport report("table1_resources");

  bench::banner(
      "Table 1 — Speedlight data plane resource usage (Tofino)",
      "64-port snapshots occupy <25% of any dedicated resource; "
      "wraparound and channel state cost more logic and memory");

  res::print_table1(std::cout, 64);
  std::cout << "\n";

  const auto pc = res::estimate(Variant::PacketCount, 64);
  const auto wa = res::estimate(Variant::WrapAround, 64);
  const auto cs = res::estimate(Variant::ChannelState, 64);
  for (const auto& [key, u] : {std::pair{"packet_count.", pc},
                               std::pair{"wrap_around.", wa},
                               std::pair{"channel_state.", cs}}) {
    const std::string k = key;
    report.metric(k + "stateless_alus", u.stateless_alus);
    report.metric(k + "stateful_alus", u.stateful_alus);
    report.metric(k + "tables", u.logical_table_ids);
    report.metric(k + "gateways", u.conditional_gateways);
    report.metric(k + "stages", u.physical_stages);
    report.metric(k + "sram_kb", u.sram_kb);
    report.metric(k + "tcam_kb", u.tcam_kb);
    report.metric(k + "max_utilization_frac",
                  res::max_utilization_fraction(u));
  }

  bench::check(pc.stateless_alus == 17 && pc.stateful_alus == 9 &&
                   pc.logical_table_ids == 27 && pc.conditional_gateways == 15 &&
                   pc.physical_stages == 10,
               "Packet Count logic resources match Table 1 (17/9/27/15/10)");
  bench::check(std::lround(pc.sram_kb) == 606 && std::lround(pc.tcam_kb) == 42,
               "Packet Count memory matches Table 1 (606KB SRAM / 42KB TCAM)");
  bench::check(wa.stateless_alus == 19 && wa.logical_table_ids == 35 &&
                   wa.conditional_gateways == 19 && wa.physical_stages == 10,
               "+Wrap Around logic resources match Table 1 (19/9/35/19/10)");
  bench::check(std::lround(wa.sram_kb) == 671 && std::lround(wa.tcam_kb) == 59,
               "+Wrap Around memory matches Table 1 (671KB SRAM / 59KB TCAM)");
  bench::check(cs.stateless_alus == 24 && cs.stateful_alus == 11 &&
                   cs.logical_table_ids == 37 && cs.physical_stages == 12,
               "+Chnl State logic resources match Table 1 (24/11/37/19/12)");
  bench::check(std::lround(cs.sram_kb) == 770 && std::lround(cs.tcam_kb) == 244,
               "+Chnl State memory matches Table 1 (770KB SRAM / 244KB TCAM)");

  const auto cs14 = res::estimate(Variant::ChannelState, 14);
  std::cout << std::fixed << std::setprecision(1)
            << "\n14-port wraparound+channel-state configuration (Section "
               "7.1):\n  SRAM "
            << cs14.sram_kb << " KB, TCAM " << cs14.tcam_kb << " KB\n";
  report.metric("ports14.sram_kb", cs14.sram_kb);
  report.metric("ports14.tcam_kb", cs14.tcam_kb);
  bench::check(std::fabs(cs14.sram_kb - 638.0) < 1.0 &&
                   std::fabs(cs14.tcam_kb - 90.0) < 1.0,
               "14-port config matches Section 7.1 (638KB SRAM / 90KB TCAM)");

  std::cout << "\nMax utilization fraction of one Tofino pipe:\n";
  for (const auto v :
       {Variant::PacketCount, Variant::WrapAround, Variant::ChannelState}) {
    const double f = res::max_utilization_fraction(res::estimate(v, 64));
    std::cout << "  " << res::variant_name(v) << ": " << std::fixed
              << std::setprecision(1) << f * 100.0 << "%\n";
    bench::check(f < 0.25, std::string(res::variant_name(v)) +
                               " stays under 25% of any dedicated resource");
  }

  return bench::finish(report);
}
