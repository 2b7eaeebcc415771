// Spearman rank correlation with a significance test, used to reproduce the
// Figure 13 synchronized-traffic analysis.
#pragma once

#include <optional>
#include <vector>

namespace speedlight::stats {

struct Correlation {
  double rho;      ///< Spearman rank correlation coefficient in [-1, 1].
  double p_value;  ///< Two-sided significance via the t approximation.

  [[nodiscard]] bool significant(double alpha) const { return p_value < alpha; }
};

/// Fractional ranks (ties get the average rank), 1-based.
[[nodiscard]] std::vector<double> ranks(const std::vector<double>& xs);

/// Pearson correlation of two equal-length series. Returns nullopt when
/// either series is constant or they are shorter than 3 samples.
[[nodiscard]] std::optional<double> pearson(const std::vector<double>& xs,
                                            const std::vector<double>& ys);

/// Spearman rho + p-value. Returns nullopt when undefined (constant input
/// or fewer than 4 samples, where the t approximation is meaningless).
[[nodiscard]] std::optional<Correlation> spearman(
    const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace speedlight::stats
