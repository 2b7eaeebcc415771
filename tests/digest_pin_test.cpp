// Absolute digest pins. Every other digest oracle compares two runs of the
// same build (wire twins, serial vs sharded, hardware vs ideal), so a change
// that reorders events identically in both twins passes all of them. These
// constants come from a build that scheduled a serialization-complete event
// on every switch hop, so they also pin that the reserved-place wake-ups
// reproduce its (time, merge key, seq) order wherever it reaches
// observable state.
//
// Each scenario runs twice: with default RunOptions (Legacy wire, with the
// idealized oracle folded in) and with DeltaCompact frames on 4 shards
// without the oracle. Seeds 12, 74 and 137 are generated `link_flap`
// scenarios whose digests depend on loss being decided when serialization
// completes, not at dequeue.
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
  std::uint64_t serial;   ///< Default RunOptions.
  std::uint64_t sharded;  ///< DeltaCompact, 4 shards, no oracle.
};

constexpr Pin kCorpusPins[] = {
    {"compactts_leafspine_epoch_rollover.scenario", 0,
     12889987300271129832ull, 4792972444559014927ull},
    {"fabric_k16_incast.scenario", 0, 9338882361662609889ull,
     4682856071083546115ull},
    {"rollover_fattree_observer_down.scenario", 0, 17107950321598666044ull,
     1290498365468346290ull},
    {"rollover_leafspine_cpu_spike.scenario", 0, 6281252262137712847ull,
     16627320648262743120ull},
    {"rollover_line_nocs_cpu_spike.scenario", 0, 12915632641610982798ull,
     9993698588705737007ull},
    {"rollover_ring_link_flap.scenario", 0, 5933277688584612637ull,
     10896074692219297008ull},
    {"rollover_ring_notif_burst.scenario", 0, 16534876307331067779ull,
     3847980844779690062ull},
};

constexpr Pin kSeedPins[] = {
    {"", 12, 5923945034942484791ull, 9970709565200846861ull},
    {"", 74, 17778790766365340235ull, 594041158452251836ull},
    {"", 137, 14109494087674827775ull, 14814013978303926250ull},
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
  const auto serial = check::run_scenario(s, {});
  EXPECT_EQ(serial.digest, pin.serial) << s.label();
  const auto sharded = check::run_scenario(
      s, {.with_oracle = false,
          .wire = check::WireMode::DeltaCompact,
          .shards = 4});
  EXPECT_EQ(sharded.digest, pin.sharded) << s.label();
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
