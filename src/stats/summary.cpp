#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

namespace speedlight::stats {

void Summary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const noexcept {
  return n_ >= 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double stddev_of(const std::vector<double>& xs) noexcept {
  Summary s;
  for (double x : xs) s.add(x);
  return s.stddev();
}

}  // namespace speedlight::stats
