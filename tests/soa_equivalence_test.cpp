// SoA equivalence: the struct-of-arrays topology core, lazy port
// materialization, compact interned routes, and streaming metrics keep no
// hidden state between runs — a scenario's end-state digest (FNV-1a over
// all completed snapshots, see check/fuzzer.cpp) is a pure function of the
// scenario.
//
// Equality is asserted within one process run rather than against absolute
// pinned constants: scenario generation draws from libm (exponential
// gaps), so constants would pin the math library, not the protocol.
// tests/digest_pin_test.cpp pins the corpus absolutely.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/fuzzer.hpp"
#include "check/scenario.hpp"

namespace speedlight {
namespace {

TEST(SoaEquivalence, SerialRunsAreReproducible) {
  // Same scenario twice in one process: the digest is a pure function of
  // the scenario (no hidden global state in the SoA arenas or the interned
  // route pool).
  for (const std::uint64_t seed : {7ull, 42ull, 99ull}) {
    const check::Scenario s = check::generate_scenario(seed);
    const auto a = check::run_scenario(s);
    const auto b = check::run_scenario(s);
    EXPECT_EQ(a.digest, b.digest) << s.label();
  }
}

}  // namespace
}  // namespace speedlight
