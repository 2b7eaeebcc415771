// Corpus replay: every committed .scenario file in tests/corpus/ must load
// and run with zero invariant violations. The corpus holds shrunk
// reproducers of fixed bugs and near-miss seeds (wire-sid rollover under
// faults) promoted from fuzz runs; a regression that re-breaks one of them
// fails here with the exact scenario attached.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"

#ifndef SPEEDLIGHT_CORPUS_DIR
#error "SPEEDLIGHT_CORPUS_DIR must point at tests/corpus"
#endif

namespace speedlight {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SPEEDLIGHT_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplay, CorpusIsNonEmpty) {
  EXPECT_GE(corpus_files().size(), 3u);
}

TEST(CorpusReplay, EveryScenarioReplaysClean) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path);
    const check::Scenario s = check::load_scenario(path);
    const auto r = check::run_scenario(s, {.with_oracle = true});
    EXPECT_TRUE(r.violations.empty())
        << s.label() << ": " << r.violations.front().invariant << ": "
        << r.violations.front().detail;
    EXPECT_GT(r.completed, 0u) << s.label();
  }
}

TEST(CorpusReplay, WireTwinDigestsAgreeOnEveryScenario) {
  // Codec-equivalence pin: every corpus scenario must reach the same
  // observable end state under delta+compact and full-frame encodings. The compactts_* scenario makes this bite: its
  // fault burst straddles the 2^24 ns truncated-timestamp boundary, so the
  // 24-bit report timestamps only survive if epoch recovery is exact.
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path);
    const check::Scenario s = check::load_scenario(path);
    const auto delta = check::run_scenario(s, {.with_oracle = false});
    const auto full = check::run_scenario(
        s, {.with_oracle = false, .wire = check::WireMode::FullV2});
    EXPECT_TRUE(delta.violations.empty()) << s.label();
    EXPECT_EQ(delta.digest, full.digest) << s.label();
    EXPECT_GT(delta.completed, 0u) << s.label();
  }
}

TEST(CorpusReplay, CompactTsCorpusStraddlesTheEpochBoundary) {
  // At least one pinned scenario must keep a fault window open across the
  // 16,777,216 ns mark, so the twin replay above provably exercises 24-bit
  // timestamp recovery across an epoch rollover.
  constexpr sim::SimTime kEpoch = sim::SimTime{1} << 24;
  bool saw_straddle = false;
  for (const auto& path : corpus_files()) {
    const check::Scenario s = check::load_scenario(path);
    for (const auto& f : s.faults) {
      const sim::SimTime start = s.warmup + f.start;
      saw_straddle |= start < kEpoch && start + f.duration > kEpoch;
    }
  }
  EXPECT_TRUE(saw_straddle);
}

TEST(CorpusReplay, RolloverCorpusActuallyRollsOver) {
  // The corpus exists to pin wire-sid rollover behavior: at least one file
  // must use a small modulus and complete more snapshots than the wire
  // space holds, so ids provably wrap during the run.
  bool saw_rollover = false;
  for (const auto& path : corpus_files()) {
    const check::Scenario s = check::load_scenario(path);
    if (s.modulus == 0 || s.modulus > 16) continue;
    const auto r = check::run_scenario(s, {.with_oracle = false});
    // Virtual ids are issued sequentially from 1, so accepting more
    // requests than the wire space holds guarantees a wrap.
    saw_rollover |= r.requested >= s.modulus;
  }
  EXPECT_TRUE(saw_rollover);
}

}  // namespace
}  // namespace speedlight
