#include "stats/spearman.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

namespace speedlight::stats {

namespace {

// Regularized incomplete beta function I_x(a, b) via Lentz's continued
// fraction (the standard approach; see Numerical Recipes betacf/betai).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

// Two-sided p-value for a t statistic with df degrees of freedom:
// p = I_{df/(df+t^2)}(df/2, 1/2).
double t_two_sided_p(double t, double df) {
  const double x = df / (df + t * t);
  return incomplete_beta(df / 2.0, 0.5, x);
}

}  // namespace

std::vector<double> ranks(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

  std::vector<double> out(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = avg;
    i = j + 1;
  }
  return out;
}

std::optional<double> pearson(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 3) return std::nullopt;
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return std::nullopt;
  return sxy / std::sqrt(sxx * syy);
}

std::optional<Correlation> spearman(const std::vector<double>& xs,
                                    const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 4) return std::nullopt;
  const auto rho = pearson(ranks(xs), ranks(ys));
  if (!rho) return std::nullopt;
  const double r = std::clamp(*rho, -1.0, 1.0);
  const auto df = static_cast<double>(xs.size() - 2);
  double p = 0.0;
  if (std::fabs(r) >= 1.0) {
    p = 0.0;
  } else {
    const double t = r * std::sqrt(df / (1.0 - r * r));
    p = t_two_sided_p(t, df);
  }
  return Correlation{r, p};
}

}  // namespace speedlight::stats
