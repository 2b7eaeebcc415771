// The consolidated consistency-checking library of DESIGN.md section 7,
// promoted out of the one-off assertions in audit_test/property_test so the
// scenario fuzzer, the replay harness, and the tests all share one oracle:
//
//   * structure       — completed snapshots account for exactly the units of
//                       their non-excluded expected devices, every report
//                       carries the snapshot's id;
//   * conservation    — per trunk direction, sent-pre equals received-pre
//                       plus channel state, modulo audited wire drops
//                       (channel-state runs with a flow metric only);
//   * monotonicity    — per-unit counter values never decrease across
//                       consecutive snapshots (counter metrics: packets
//                       and bytes);
//   * advance order   — per-unit local snapshot instants never decrease in
//                       id order (sid monotonicity, observed in time);
//   * sync span       — local snapshot instants of one id stay within a
//                       scenario-derived bound (Section 3's guarantee);
//   * liveness        — when nothing adversarial is configured, every
//                       accepted request completes with no exclusions;
//   * oracle          — values of reports consistent in both a
//                       hardware-faithful and an idealized (Figure 3) run
//                       of the same event stream match exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"

namespace speedlight::check {

struct Violation {
  std::string invariant;       ///< "conservation", "monotonicity", ...
  snap::VirtualSid snapshot;   ///< Offending snapshot id (0 = run-level).
  std::string detail;
};

struct CheckOptions {
  /// Subtract the receiver's channel state in the conservation equation.
  /// Disabling this deliberately breaks the checker — the fuzzer's
  /// self-test mode (--inject-bug) uses it to prove violations are caught
  /// and shrunk.
  bool subtract_channel_state = true;

  /// Upper bound on GlobalSnapshot::advance_span(). 0 disables the check;
  /// callers derive it from the scenario's clock parameters
  /// (check::sync_span_bound).
  sim::Duration sync_span_bound = 0;

  /// Conservation slack per dropped wire packet (1 for packet counters,
  /// the max packet size for byte counters).
  std::uint64_t per_drop_slack = 1;

  /// Require every accepted snapshot request to complete without excluded
  /// devices (set only for fault-free raw-socket scenarios).
  bool expect_complete = false;
};

class ConsistencyChecker {
 public:
  ConsistencyChecker(core::Network& net, CheckOptions options)
      : net_(net), options_(options) {}

  /// Run every applicable invariant over the campaign's completed
  /// snapshots, in id order. Returns all violations found.
  [[nodiscard]] std::vector<Violation> check_all(
      const core::SnapshotCampaign& campaign);

  // --- Individual invariants (composable; append to `out`) -----------------
  void check_structure(const snap::GlobalSnapshot& s,
                       std::vector<Violation>& out) const;
  void check_conservation(const snap::GlobalSnapshot& s,
                          std::vector<Violation>& out);
  void check_sync_span(const snap::GlobalSnapshot& s,
                       std::vector<Violation>& out) const;
  static void check_monotonicity(const snap::GlobalSnapshot& prev,
                                 const snap::GlobalSnapshot& cur,
                                 std::vector<Violation>& out);
  static void check_advance_order(const snap::GlobalSnapshot& prev,
                                  const snap::GlobalSnapshot& cur,
                                  std::vector<Violation>& out);

  /// Hardware-vs-ideal oracle: for every snapshot id completed in both runs
  /// and every unit whose report is consistent (and not inferred) in both,
  /// local and channel values must match exactly.
  static void check_oracle(
      const std::map<snap::VirtualSid, snap::GlobalSnapshot>& hardware,
      const std::map<snap::VirtualSid, snap::GlobalSnapshot>& ideal,
      std::vector<Violation>& out);

  /// Conservation equations actually evaluated by check_all/
  /// check_conservation so far (callers assert coverage > 0).
  [[nodiscard]] std::uint64_t conservation_checked() const {
    return conservation_checked_;
  }

 private:
  core::Network& net_;
  CheckOptions options_;
  std::uint64_t conservation_checked_ = 0;
};

/// Sync-span bound for a run of `total_duration` with the given clock
/// quality: a fixed floor for dispatch/jitter plus terms for the PTP
/// residual and accumulated oscillator drift.
[[nodiscard]] sim::Duration sync_span_bound(sim::Duration ptp_residual_stddev,
                                            double drift_ppm,
                                            sim::Duration total_duration);

}  // namespace speedlight::check
