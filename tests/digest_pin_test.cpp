// Absolute digest pins. Every other digest oracle compares two runs of the
// same build (wire twins, hardware vs ideal), so a change
// that reorders events identically in both twins passes all of them. The
// digests fold in snapshot ids and values, so they move when a switch's
// ingress unit runs at another instant. The constants were last re-derived
// when switches began charging their pipeline latency before the ingress
// unit; timing_pin_test pins that no departure or delivery on the Fig. 12
// testbed moved then. Retiring the v1 struct-shipping model moved one pin,
// the default column of rollover_fattree_observer_down: across an observer
// restart the wire session drops stale in-flight frames. Everywhere else
// these digests are the ones the v1 model produced.
//
// Each scenario runs twice, both with DeltaCompact frames at fixed-cost
// service: with default RunOptions (the idealized oracle folded in) and
// without the oracle. Seeds 12, 74 and 137 are generated `link_flap`
// scenarios whose digests depend on loss being decided when serialization
// completes, not at dequeue. With seed 4, also a `link_flap` scenario, they
// cover the three ways a fuzz run settles (DESIGN.md section 10): seed 4
// ends when its fault window closes, seeds 12 and 74 at a timed-out
// snapshot's deadline, and seed 137 when a link still down at its window's
// close comes back up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/scenario.hpp"

#ifndef SPEEDLIGHT_CORPUS_DIR
#error "SPEEDLIGHT_CORPUS_DIR must point at tests/corpus"
#endif

namespace speedlight {
namespace {

struct Pin {
  const char* name;  ///< Corpus file name, or "" for a generated seed.
  std::uint64_t seed;
  std::uint64_t defaults;   ///< Default RunOptions.
  std::uint64_t no_oracle;  ///< Default RunOptions without the oracle.
};

constexpr Pin kCorpusPins[] = {
    {"compactts_leafspine_epoch_rollover.scenario", 0,
     6299318861945241246ull, 10595487043035161012ull},
    {"fabric_k16_incast.scenario", 0, 9338882361662609889ull,
     4682856071083546115ull},
    {"rollover_fattree_observer_down.scenario", 0, 3062881999807534086ull,
     14912098301215532097ull},
    {"rollover_leafspine_cpu_spike.scenario", 0, 4315162860888115177ull,
     2283944240257676826ull},
    {"rollover_line_nocs_cpu_spike.scenario", 0, 15987549455431025599ull,
     17145809479148617962ull},
    {"rollover_ring_link_flap.scenario", 0, 3818481918626549728ull,
     17595050624373307862ull},
    {"rollover_ring_notif_burst.scenario", 0, 15168660745946147022ull,
     800554573357642861ull},
};

constexpr Pin kSeedPins[] = {
    {"", 4, 9558222361662236609ull, 17550950921835105657ull},
    {"", 12, 8067863809800943801ull, 4311465916822633396ull},
    {"", 74, 12634490188143622529ull, 4254613285373519218ull},
    {"", 137, 7322614437247943282ull, 472414733980010971ull},
};

/// Keeps test names stable (the default printer dumps the pointer bytes).
void PrintTo(const Pin& pin, std::ostream* os) {
  if (pin.name[0] != '\0') {
    *os << pin.name;
  } else {
    *os << "seed " << pin.seed;
  }
}

void expect_pinned(const check::Scenario& s, const Pin& pin) {
  const auto defaults = check::run_scenario(s, {});
  EXPECT_EQ(defaults.digest, pin.defaults) << s.label();
  const auto no_oracle = check::run_scenario(s, {.with_oracle = false});
  EXPECT_EQ(no_oracle.digest, pin.no_oracle) << s.label();
}

class CorpusDigest : public ::testing::TestWithParam<Pin> {};

TEST_P(CorpusDigest, MatchesPinnedValue) {
  const Pin& pin = GetParam();
  expect_pinned(
      check::load_scenario(std::string(SPEEDLIGHT_CORPUS_DIR) + "/" + pin.name),
      pin);
}

// Named functions, not lambdas: INSTANTIATE_TEST_SUITE_P's expansion
// already has a parameter called `info`, which a lambda's would shadow.
std::string corpus_pin_name(const ::testing::TestParamInfo<Pin>& param) {
  const std::string n = param.param.name;
  return n.substr(0, n.find('.'));
}

std::string seed_pin_name(const ::testing::TestParamInfo<Pin>& param) {
  return "seed" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(DigestPins, CorpusDigest,
                         ::testing::ValuesIn(kCorpusPins), corpus_pin_name);

class SeedDigest : public ::testing::TestWithParam<Pin> {};

TEST_P(SeedDigest, MatchesPinnedValue) {
  const Pin& pin = GetParam();
  expect_pinned(check::generate_scenario(pin.seed), pin);
}

INSTANTIATE_TEST_SUITE_P(DigestPins, SeedDigest,
                         ::testing::ValuesIn(kSeedPins), seed_pin_name);

TEST(DigestPins, EveryCorpusScenarioIsPinned) {
  // A scenario added to the corpus must get a pin here too.
  std::vector<std::string> pinned;
  for (const Pin& pin : kCorpusPins) pinned.emplace_back(pin.name);
  for (const auto& entry :
       std::filesystem::directory_iterator(SPEEDLIGHT_CORPUS_DIR)) {
    if (entry.path().extension() != ".scenario") continue;
    const std::string name = entry.path().filename().string();
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), name), pinned.end())
        << name << " has no digest pin";
  }
}

TEST(DigestPins, PinnedSeedsExerciseLinkFlaps) {
  // The seeds are pinned for their link_flap faults; keep them honest.
  for (const Pin& pin : kSeedPins) {
    const check::Scenario s = check::generate_scenario(pin.seed);
    EXPECT_TRUE(std::any_of(s.faults.begin(), s.faults.end(),
                            [](const check::FaultSpec& f) {
                              return f.kind == check::FaultKind::LinkFlap;
                            }))
        << s.label();
  }
}

}  // namespace
}  // namespace speedlight
