// Adversarial scenario fuzzer (DESIGN.md section 10). Each run derives a
// full random scenario — topology, protocol variant, workload, clock
// quality, fault schedule — from one 64-bit seed, executes it end-to-end,
// and checks every completed snapshot with check::ConsistencyChecker plus
// the hardware-vs-ideal oracle. Failures are delta-debugged to a minimal
// reproducer and saved as a replayable `.scenario` file. Control-plane
// traffic ships as delta-encoded compact-timestamp v2 frames with uncharged
// (fixed-cost) service, check::RunOptions' default.
//
// Usage:
//   speedlight_fuzz [--seed S] [--runs N] [--time-budget SECONDS]
//                   [--replay FILE] [--digest]
//                   [--inject-bug] [--out DIR] [--smoke] [--json-out PATH]
//
//   --seed S          Base seed; run i uses seed S+i (default 1).
//   --runs N          Maximum scenarios to run (default 50).
//   --time-budget T   Stop starting new runs after T wall seconds (default
//                     unlimited; the nightly CI job sets this).
//   --replay FILE     Run one saved .scenario instead of fuzzing; exit 1
//                     if it violates any invariant.
//   --digest          Determinism + codec backstop: run every seed twice and
//                     demand bit-identical end-state digests and (under
//                     SPEEDLIGHT_CHECK_DETERMINISM) tie-break fingerprints.
//                     The twin ships full v2 frames instead of delta
//                     frames (both uncharged), so every seed is also an
//                     encode/decode equivalence check across the whole
//                     fault schedule. Any divergence or guarded
//                     data-path allocation fails the whole run. Doubles the
//                     cost. The --json-out report lists every seed's
//                     digest, twin digest (hex strings) and snapshot and
//                     violation counts under "seeds", so two builds'
//                     reports diff seed by seed.
//   --inject-bug      Self-test: disable the conservation checker's
//                     channel-state term, prove the loop finds the
//                     resulting violation and shrinks it to <= 4 switches,
//                     and that the saved reproducer replays to the same
//                     failure. Exits nonzero if any of that fails.
//   --out DIR         Directory for failing .scenario files (default ".").
//   --json-out PATH   Write the result file to PATH instead of
//                     ./BENCH_speedlight_fuzz.json.
//
// Exit status: 0 clean, 1 invariant violations found (or self-test failed),
// 2 on an unknown flag or a missing flag value.
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/fuzzer.hpp"

namespace {

using namespace speedlight;

struct Args {
  std::uint64_t seed = 1;
  std::size_t runs = 50;
  double time_budget_s = 0;  // 0 = unlimited.
  std::string replay;
  std::string out_dir = ".";
  bool digest = false;
  bool inject_bug = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      a.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      a.runs = std::strtoull(next("--runs"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--time-budget") == 0) {
      a.time_budget_s = std::strtod(next("--time-budget"), nullptr);
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      a.replay = next("--replay");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      a.out_dir = next("--out");
    } else if (std::strcmp(argv[i], "--digest") == 0) {
      a.digest = true;
    } else if (std::strcmp(argv[i], "--inject-bug") == 0) {
      a.inject_bug = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // Handled by bench::parse_args.
    } else if (std::strcmp(argv[i], "--json-out") == 0) {
      next("--json-out");  // Handled by bench::parse_args.
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      std::exit(2);
    }
  }
  return a;
}

void print_violations(const check::RunResult& r) {
  for (const auto& v : r.violations) {
    std::cout << "  [" << v.invariant << "] snapshot " << v.snapshot << ": "
              << v.detail << "\n";
  }
}

/// A 64-bit digest as 16 hex digits. The report writes digests as strings:
/// a JSON number (a double) cannot hold 64 bits.
std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// One "seeds" entry of the --digest report.
std::string seed_record(std::uint64_t seed, const check::RunResult& r,
                        const check::RunResult& twin) {
  std::ostringstream os;
  os << "{\"seed\": " << seed;
  os << ", \"digest\": \"" << hex64(r.digest) << '"';
  os << ", \"twin_digest\": \"" << hex64(twin.digest) << '"';
  os << ", \"requested\": " << r.requested;
  os << ", \"skipped\": " << r.skipped;
  os << ", \"completed\": " << r.completed;
  os << ", \"violations\": " << r.violations.size() << '}';
  return os.str();
}

std::string fail_path(const Args& args, std::uint64_t seed) {
  return args.out_dir + "/fuzz_fail_seed" + std::to_string(seed) + ".scenario";
}

int replay_one(const Args& args, check::FuzzStats& stats) {
  const check::Scenario s = check::load_scenario(args.replay);
  std::cout << "Replaying " << args.replay << ": " << s.label() << "\n";
  const check::RunResult r = check::run_scenario(s);
  ++stats.replays;
  stats.account(r);
  std::cout << "  " << r.completed << "/" << r.requested
            << " snapshots completed (" << r.skipped << " skipped), "
            << r.conservation_checked << " conservation checks, "
            << r.link_drops << " wire drops, " << r.flaps << " flaps\n";
  if (r.failed()) {
    std::cout << r.violations.size() << " violation(s):\n";
    print_violations(r);
    return 1;
  }
  std::cout << "  clean\n";
  return 0;
}

/// Self-test: with the checker's channel-state term disabled, the fuzz
/// loop must find a conservation violation, shrink it to a reproducer of
/// at most 4 switches, and the saved file must replay to the same failure.
int inject_bug(const Args& args, check::FuzzStats& stats) {
  const check::RunOptions opts{.with_oracle = false,
                               .break_conservation = true};
  for (std::size_t i = 0; i < args.runs; ++i) {
    const check::Scenario s = check::generate_scenario(args.seed + i);
    const check::RunResult r = check::run_scenario(s, opts);
    stats.account(r);
    if (!r.failed()) continue;

    std::cout << "Injected bug caught at seed " << s.seed << " ("
              << s.label() << "):\n";
    print_violations(r);
    const check::ShrinkResult shrunk = check::shrink_scenario(s, opts);
    stats.shrink_attempts += shrunk.attempts;
    stats.shrink_steps += shrunk.steps;
    const std::size_t switches = shrunk.scenario.topology().switches.size();
    std::cout << "Shrunk in " << shrunk.steps << " steps ("
              << shrunk.attempts << " attempts) to " << shrunk.scenario.label()
              << " [" << switches << " switches]\n";
    bench::check(shrunk.result.failed(), "shrunk scenario still fails");
    bench::check(switches <= 4, "shrunk reproducer has <= 4 switches");

    const std::string path = fail_path(args, s.seed);
    bench::check(check::save_scenario(path, shrunk.scenario),
                 "reproducer saved to " + path);
    const check::Scenario reloaded = check::load_scenario(path);
    bench::check(check::scenario_to_string(reloaded) ==
                     check::scenario_to_string(shrunk.scenario),
                 "reproducer round-trips byte-identically");
    const check::RunResult replayed = check::run_scenario(reloaded, opts);
    ++stats.replays;
    bench::check(replayed.failed(), "replayed reproducer still fails");
    return bench::g_checks_failed == 0 ? 0 : 1;
  }
  bench::check(false, "injected bug was never caught");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("speedlight_fuzz");
  const Args args = parse(argc, argv);

  obs::MetricsRegistry registry;
  check::FuzzStats stats;
  stats.register_metrics(registry);

  int rc = 0;
  if (!args.replay.empty()) {
    try {
      rc = replay_one(args, stats);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  } else if (args.inject_bug) {
    bench::banner("speedlight_fuzz --inject-bug",
                  "self-test: a broken invariant must be found and shrunk");
    rc = inject_bug(args, stats);
  } else {
    std::size_t failures = 0;
    std::vector<std::string> seed_records;
    std::size_t i = 0;
    for (; i < args.runs; ++i) {
      if (args.time_budget_s > 0 &&
          report.elapsed_seconds() > args.time_budget_s) {
        std::cout << "Time budget exhausted after " << i << " runs\n";
        break;
      }
      const check::Scenario s = check::generate_scenario(args.seed + i);
      const check::RunResult r = check::run_scenario(s);
      stats.account(r);

      if (args.digest) {
        // Determinism backstop: the same scenario run twice must land on
        // the exact same observable end state. This catches nondeterminism
        // (unordered-container iteration leaking into behavior, racy event
        // tie-breaks) that the invariants alone would never notice. The
        // twin flips the wire encoding (delta+compact vs full frames), so
        // a divergence also convicts a lossy codec round-trip.
        const check::RunResult twin =
            check::run_scenario(s, {.wire = check::WireMode::FullV2});
        ++stats.digest_runs;
        seed_records.push_back(seed_record(s.seed, r, twin));
        if (twin.digest != r.digest ||
            twin.tie_fingerprint != r.tie_fingerprint) {
          ++stats.digest_divergences;
          std::cout << "DIGEST DIVERGENCE seed " << s.seed << " ("
                    << s.label() << "): digest " << std::hex << r.digest
                    << " vs " << twin.digest << ", tie fingerprint "
                    << r.tie_fingerprint << " vs " << twin.tie_fingerprint
                    << std::dec << " (" << r.tie_pairs
                    << " tie pair(s) audited)\n";
        }
      }

      if (!r.failed()) continue;

      ++failures;
      std::cout << "FAIL seed " << s.seed << " (" << s.label() << "), "
                << r.violations.size() << " violation(s):\n";
      print_violations(r);
      const check::ShrinkResult shrunk = check::shrink_scenario(s, {});
      stats.shrink_attempts += shrunk.attempts;
      stats.shrink_steps += shrunk.steps;
      const std::string path = fail_path(args, s.seed);
      if (check::save_scenario(path, shrunk.scenario)) {
        std::cout << "Minimal reproducer (" << shrunk.scenario.label()
                  << ") written to " << path << "\n";
      } else {
        std::cout << "Failed to write reproducer to " << path << "\n";
      }
    }
    std::cout << "Fuzzed " << stats.runs << " scenario(s), "
              << stats.snapshots_checked << " snapshots checked, "
              << stats.conservation_checked << " conservation checks, "
              << failures << " failing seed(s)\n";
    bench::check(failures == 0, "all fuzzed scenarios satisfied invariants");
    if (args.digest) {
      std::cout << "Digest mode: " << stats.digest_runs
                << " twin run(s), " << stats.digest_divergences
                << " divergence(s), " << stats.tie_pairs
                << " tie pair(s) audited, " << stats.datapath_allocs
                << " data-path allocation(s) flagged\n";
      bench::check(stats.digest_divergences == 0,
                   "twin runs produced identical digests");
      bench::check(stats.datapath_allocs == 0,
                   "no allocations inside data-path scopes");
    }
    rc = (failures == 0 && bench::g_checks_failed == 0) ? 0 : 1;
    if (args.digest) report.array("seeds", std::move(seed_records));
  }

  report.metric("runs", static_cast<double>(stats.runs));
  report.metric("failures", static_cast<double>(stats.failures));
  report.metric("snapshots_checked",
                static_cast<double>(stats.snapshots_checked));
  report.metric("conservation_checked",
                static_cast<double>(stats.conservation_checked));
  report.metric("simulated_ms", stats.simulated_ms);
  report.embed_registry(registry);
  report.write();
  return rc;
}
