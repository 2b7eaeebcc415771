// SoA refactor equivalence battery: the struct-of-arrays topology core,
// lazy port materialization, compact interned routes, and streaming
// metrics must be *observationally invisible* — every scenario's end-state
// digest (FNV-1a over all completed snapshots, see check/fuzzer.cpp) must
// be byte-identical between the serial engine and the 4-shard parallel
// engine, for the whole committed corpus plus 100 fresh generated seeds.
//
// Equality is asserted within one process run (shards=1 vs shards=4, and
// serial-vs-serial repeats) rather than against absolute pinned constants:
// scenario generation draws from libm (exponential gaps), so constants
// would pin the math library, not the protocol.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/scenario.hpp"

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

check::RunResult run_at(const check::Scenario& s, std::size_t shards) {
  return check::run_scenario(s, {.with_oracle = true, .shards = shards});
}

TEST(SoaEquivalence, CorpusDigestsShardInvariant) {
  ASSERT_GE(corpus_files().size(), 4u);
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path);
    const check::Scenario s = check::load_scenario(path);
    const auto serial = run_at(s, 1);
    const auto sharded = run_at(s, 4);
    EXPECT_EQ(serial.digest, sharded.digest) << s.label();
    EXPECT_EQ(serial.completed, sharded.completed) << s.label();
    EXPECT_GT(serial.completed, 0u) << s.label();
  }
}

// 100 generated scenarios (seeds 1..100), the full spread of topologies,
// faults, and protocol variants, split into four 25-seed ranges so ctest
// runs them in parallel. The parameter is the range's first seed. Every
// scenario must digest identically at 1 and 4 shards.
constexpr std::uint64_t kSeedsPerRange = 25;

class FreshSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreshSeeds, ShardInvariant) {
  std::size_t checked = 0;
  for (std::uint64_t seed = GetParam(); seed < GetParam() + kSeedsPerRange;
       ++seed) {
    const check::Scenario s = check::generate_scenario(seed);
    const auto serial = run_at(s, 1);
    const auto sharded = run_at(s, 4);
    ASSERT_EQ(serial.digest, sharded.digest) << s.label();
    ASSERT_EQ(serial.completed, sharded.completed) << s.label();
    ++checked;
  }
  EXPECT_EQ(checked, kSeedsPerRange);
}

INSTANTIATE_TEST_SUITE_P(SoaEquivalence, FreshSeeds,
                         ::testing::Values(1, 26, 51, 76));

TEST(SoaEquivalence, SerialRunsAreReproducible) {
  // Same scenario, same engine, twice in one process: the digest is a pure
  // function of the scenario (no hidden global state in the SoA arenas or
  // the interned route pool).
  for (const std::uint64_t seed : {7ull, 42ull, 99ull}) {
    const check::Scenario s = check::generate_scenario(seed);
    const auto a = run_at(s, 1);
    const auto b = run_at(s, 1);
    EXPECT_EQ(a.digest, b.digest) << s.label();
  }
}

}  // namespace
}  // namespace speedlight
