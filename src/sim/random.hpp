// Deterministic random number generation for the simulator.
//
// Every stochastic component derives its own stream from a master seed so
// that simulations are reproducible bit-for-bit regardless of the order in
// which components are constructed or exercised.
#pragma once

#include <cstdint>
#include <string_view>

namespace speedlight::sim {

/// xoshiro256** PRNG. Small, fast, and good enough statistical quality for
/// simulation workloads; satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;
  /// Bernoulli trial.
  bool chance(double p) noexcept;
  /// Normal with the given mean and standard deviation (Box-Muller).
  double normal(double mean, double stddev) noexcept;
  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) noexcept;
  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean) noexcept;

  /// Derive an independent child stream; `salt` distinguishes siblings.
  Rng fork(std::uint64_t salt) noexcept;
  /// Derive a child stream from a component name (stable across runs).
  Rng fork(std::string_view name) noexcept;

 private:
  std::uint64_t s_[4];
  // Cached second output of Box-Muller.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace speedlight::sim
