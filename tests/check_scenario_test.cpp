// Scenario generation and (de)serialization: determinism, exact round-trip,
// and parser diagnostics for the fuzzer's .scenario text format.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "check/scenario.hpp"

namespace speedlight {
namespace {

TEST(Scenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ULL, 42ULL, 7777ULL, 0xDEADBEEFULL}) {
    const auto a = check::generate_scenario(seed);
    const auto b = check::generate_scenario(seed);
    EXPECT_EQ(check::scenario_to_string(a), check::scenario_to_string(b));
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(Scenario, DifferentSeedsDiffer) {
  const auto a = check::generate_scenario(1);
  const auto b = check::generate_scenario(2);
  EXPECT_NE(check::scenario_to_string(a), check::scenario_to_string(b));
}

TEST(Scenario, RoundTripsByteIdentically) {
  // The shrinker ships reproducers as files; a reproducer that parses into
  // a different simulation than the in-memory scenario would be useless.
  // Everything the generator draws is quantized to exactly representable
  // decimals, so text -> Scenario -> text is a fixpoint.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto s = check::generate_scenario(seed);
    const std::string text = check::scenario_to_string(s);
    const auto parsed = check::scenario_from_string(text);
    EXPECT_EQ(check::scenario_to_string(parsed), text) << "seed " << seed;
  }
}

TEST(Scenario, GeneratedTopologiesAreValid) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto s = check::generate_scenario(seed);
    const auto spec = s.topology();
    EXPECT_GE(spec.switches.size(), 2u) << "seed " << seed;
    EXPECT_GE(spec.hosts.size(), 2u) << "seed " << seed;
  }
}

TEST(Scenario, ParserRejectsMissingHeader) {
  EXPECT_THROW((void)check::scenario_from_string("seed 1\n"),
               std::invalid_argument);
}

TEST(Scenario, ParserRejectsUnknownDirective) {
  try {
    (void)check::scenario_from_string("scenario v1\nfoo bar\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Diagnostics carry the line number.
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(Scenario, ParserRejectsMalformedFault) {
  EXPECT_THROW(
      (void)check::scenario_from_string("scenario v1\nfault link_flap oops\n"),
      std::invalid_argument);
}

TEST(Scenario, ParserRejectsNonPowerOfTwoModulus) {
  // Wire ids are masked, so only 0 (2^32) and powers of two >= 2 load.
  EXPECT_THROW((void)check::scenario_from_string("scenario v1\nmodulus 12\n"),
               std::invalid_argument);
  EXPECT_THROW((void)check::scenario_from_string("scenario v1\nmodulus 1\n"),
               std::invalid_argument);
  EXPECT_EQ(check::scenario_from_string("scenario v1\nmodulus 16\n").modulus,
            16u);
  // load_scenario reads files through the same parser.
  const auto path = std::filesystem::temp_directory_path() /
                    "speedlight_modulus_12.scenario";
  {
    std::ofstream(path) << "scenario v1\nmodulus 12\n";
  }
  EXPECT_THROW((void)check::load_scenario(path.string()),
               std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Scenario, ParserAcceptsCommentsAndBlankLines) {
  const auto s = check::generate_scenario(3);
  const std::string text =
      "# a comment\n\n" + check::scenario_to_string(s) + "\n# trailing\n";
  const auto parsed = check::scenario_from_string(text);
  EXPECT_EQ(check::scenario_to_string(parsed), check::scenario_to_string(s));
}

TEST(Scenario, MixTokenRoundTripsAndDefaultsOff) {
  // Non-default mixes serialize as a trailing token on the workload line;
  // the default (all_to_all) is omitted so pre-mix files stay
  // byte-identical through a round trip.
  check::Scenario s = check::generate_scenario(9);
  s.workload.mix = check::MixKind::Shuffle;
  const std::string text = check::scenario_to_string(s);
  EXPECT_NE(text.find(" shuffle\n"), std::string::npos);
  const auto parsed = check::scenario_from_string(text);
  EXPECT_EQ(parsed.workload.mix, check::MixKind::Shuffle);
  EXPECT_EQ(check::scenario_to_string(parsed), text);

  s.workload.mix = check::MixKind::AllToAll;
  const std::string plain = check::scenario_to_string(s);
  EXPECT_EQ(plain.find("all_to_all"), std::string::npos);
  EXPECT_EQ(check::scenario_from_string(plain).workload.mix,
            check::MixKind::AllToAll);
}

TEST(Scenario, ParserRejectsUnknownMix) {
  const std::string text =
      "scenario v1\nworkload 4 40000 1000 carrier_pigeon\n";
  EXPECT_THROW((void)check::scenario_from_string(text),
               std::invalid_argument);
}

TEST(Scenario, BudgetedGenerationIsDeterministicAndBounded) {
  const check::ScenarioBudget budget;
  bool saw_k16 = false;
  bool saw_mix = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto a = check::generate_scenario(seed, budget);
    const auto b = check::generate_scenario(seed, budget);
    EXPECT_EQ(check::scenario_to_string(a), check::scenario_to_string(b));
    EXPECT_LE(a.topology().switches.size(), budget.max_switches);
    EXPECT_LE(a.snapshots, budget.max_snapshots);
    // Budgeted scenarios must replay through the file format too.
    EXPECT_EQ(check::scenario_to_string(
                  check::scenario_from_string(check::scenario_to_string(a))),
              check::scenario_to_string(a));
    saw_k16 |= a.topo == check::TopoKind::FatTree && a.size_a == 16;
    saw_mix |= a.workload.mix != check::MixKind::AllToAll;
  }
  // The sampler actually reaches production scale and the new mixes.
  EXPECT_TRUE(saw_k16);
  EXPECT_TRUE(saw_mix);
}

TEST(Scenario, BudgetExcludesOversizedFabrics) {
  check::ScenarioBudget tight;
  tight.max_switches = 100;  // Excludes fat-tree k=16 (320 switches).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto s = check::generate_scenario(seed, tight);
    EXPECT_LE(s.topology().switches.size(), tight.max_switches);
  }
}

}  // namespace
}  // namespace speedlight
