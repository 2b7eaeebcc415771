// Streaming summary statistics (Welford) plus a batch standard deviation.
#pragma once

#include <cstddef>
#include <vector>

namespace speedlight::stats {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class Summary {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n). Returns 0 for n < 1.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Population standard deviation of a batch of samples.
[[nodiscard]] double stddev_of(const std::vector<double>& xs) noexcept;

}  // namespace speedlight::stats
