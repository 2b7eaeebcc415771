// The scenario fuzzer's engine: run one scenario end-to-end (build the
// network, drive the workload, apply the fault schedule, take the snapshot
// train, run the ConsistencyChecker, optionally cross-check against the
// idealized Figure 3 reports the same run's oracle arrays yield), and
// shrink failing scenarios to minimal reproducers by delta-debugging over
// the scenario description. The CLI front-end is bench/speedlight_fuzz.cpp; replay
// regression tests live in tests/check_replay_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "obs/metrics.hpp"

namespace speedlight::check {

/// Control-plane wire encoding for a scenario run (DESIGN.md section 16).
/// Every mode runs with byte-charging *off*: each frame costs the fixed
/// notification service time, so the event timeline — and therefore the
/// run digest — is the same under both encodings, and matches the retired
/// v1 struct-shipping model except across observer restarts, where the
/// wire session protocol drops stale in-flight frames.
/// `speedlight_fuzz --digest` twin-runs DeltaCompact against FullV2 as the
/// codec-equivalence oracle.
enum class WireMode : std::uint8_t {
  DeltaCompact,  ///< DeltaV2 + compact timestamps (the default).
  FullV2,        ///< Fixed-size frames, full timestamps.
};

struct RunOptions {
  /// Keep the idealized Figure 3 oracle beside the hardware data plane
  /// (SnapshotConfig::oracle) in the same simulation, require reports
  /// consistent under both to match exactly, and fold the oracle's digest
  /// into the run's.
  bool with_oracle = true;

  /// Wire encoding for the network under test (see WireMode).
  WireMode wire = WireMode::DeltaCompact;

  /// Self-test: deliberately break the conservation checker (drop the
  /// channel-state term) to prove the find-and-shrink loop works.
  bool break_conservation = false;

  /// Must be 1: run_scenario() throws std::invalid_argument for any other
  /// value. Kept, last, so callers that still set it keep compiling.
  std::size_t shards = 1;
};

struct RunResult {
  std::vector<Violation> violations;
  std::size_t requested = 0;  ///< Snapshot requests accepted by the observer.
  std::size_t skipped = 0;    ///< Requests refused (rollover window).
  std::size_t completed = 0;
  std::uint64_t conservation_checked = 0;
  std::uint64_t link_drops = 0;  ///< Wire drops across all links.
  std::uint64_t flaps = 0;       ///< LinkFlapper transitions observed.
  /// Simulated time covered: from zero to the instant the run settled or
  /// reached its deadline. One simulation, with or without the oracle.
  sim::Duration simulated = 0;

  /// Order-independent digest of the run's observable end state (every
  /// completed snapshot's reports plus run totals). Two runs of one
  /// scenario must produce equal digests; `speedlight_fuzz --digest`
  /// enforces that, catching nondeterminism the invariants cannot see.
  std::uint64_t digest = 0;
  /// Determinism-audit results (active only under
  /// SPEEDLIGHT_CHECK_DETERMINISM; zero otherwise). The fingerprint folds
  /// every same-timestamp event pair that touched a common processing unit;
  /// `--digest` twin runs must agree or the tie-break order is racy.
  std::uint64_t tie_fingerprint = 0;
  std::uint64_t tie_pairs = 0;
  /// Allocations flagged inside data-path scopes during the run.
  std::uint64_t datapath_allocs = 0;

  [[nodiscard]] bool failed() const { return !violations.empty(); }
};

/// Run one scenario (deterministic: equal scenarios yield equal results).
/// Throws std::invalid_argument if opts.shards != 1.
[[nodiscard]] RunResult run_scenario(const Scenario& s,
                                     const RunOptions& opts = {});

struct ShrinkResult {
  Scenario scenario;        ///< Minimal still-failing reproducer.
  RunResult result;         ///< Its violations.
  std::size_t attempts = 0; ///< Candidate runs spent.
  std::size_t steps = 0;    ///< Accepted reductions.
};

/// Delta-debug a failing scenario down to a minimal reproducer: greedily
/// drop faults, shrink the topology, shorten the snapshot train, and thin
/// the workload while the scenario still fails, until a fixpoint or the
/// attempt budget is exhausted.
[[nodiscard]] ShrinkResult shrink_scenario(const Scenario& failing,
                                           const RunOptions& opts,
                                           std::size_t max_attempts = 64);

/// Fuzzing-progress counters, registered into a MetricsRegistry so fuzz
/// runs emit the same bench/registry JSON schema as every other harness.
struct FuzzStats {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t violations = 0;
  std::uint64_t snapshots_checked = 0;
  std::uint64_t conservation_checked = 0;
  std::uint64_t shrink_attempts = 0;
  std::uint64_t shrink_steps = 0;
  std::uint64_t replays = 0;
  std::uint64_t digest_runs = 0;         ///< Seeds run twice under --digest.
  std::uint64_t digest_divergences = 0;  ///< Twin runs that disagreed.
  std::uint64_t tie_pairs = 0;           ///< Same-tick same-unit event pairs.
  std::uint64_t datapath_allocs = 0;     ///< Guarded-scope allocations seen.
  double simulated_ms = 0;               ///< Sum of RunResult::simulated.

  void account(const RunResult& r) {
    ++runs;
    if (r.failed()) ++failures;
    violations += r.violations.size();
    snapshots_checked += r.completed;
    conservation_checked += r.conservation_checked;
    tie_pairs += r.tie_pairs;
    datapath_allocs += r.datapath_allocs;
    simulated_ms += sim::to_msec(r.simulated);
  }

  void register_metrics(obs::MetricsRegistry& reg) const;
};

}  // namespace speedlight::check
