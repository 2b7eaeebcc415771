// Measuring how long a spin-wait stalls is a legitimate use of wall-clock
// time (it is meaningless in sim time), but it must still be explicit — a
// justified allow(wall-clock) pragma on the clock read — so every
// wall-clock source in the tree stays auditable. This fixture pins both
// sides: the bare reads are violations, the justified ones lint clean.
#include <atomic>
#include <chrono>
#include <cstdint>

std::uint64_t spin_wait_unjustified(std::atomic<std::uint64_t>& epoch) {
  const std::uint64_t seen = epoch.load(std::memory_order_acquire);
  const auto t0 = std::chrono::steady_clock::now();  // LINT-EXPECT: wall-clock
  while (epoch.load(std::memory_order_acquire) == seen) {
  }
  const auto t1 = std::chrono::steady_clock::now();  // LINT-EXPECT: wall-clock
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// The sanctioned idiom: clock read wrapped once, pragma and justification
// on the read itself.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // speedlight-lint: allow(wall-clock) sync-wait profiling only
              .time_since_epoch())
          .count());
}

std::uint64_t spin_wait_justified(std::atomic<std::uint64_t>& epoch) {
  const std::uint64_t seen = epoch.load(std::memory_order_acquire);
  const std::uint64_t t0 = mono_ns();
  while (epoch.load(std::memory_order_acquire) == seen) {
  }
  return mono_ns() - t0;
}
