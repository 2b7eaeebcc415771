// Unit tests for the statistics toolkit: summaries, CDFs, Spearman
// correlation, and the paper's two-phase EWMA.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/ewma.hpp"
#include "stats/spearman.hpp"
#include "stats/summary.hpp"

namespace speedlight::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
}

TEST(BatchStats, StddevAndQuantile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_NEAR(stddev_of(xs), std::sqrt(2.0), 1e-12);
}

TEST(Cdf, FractionsAndPercentiles) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.at(50), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 50.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
}

TEST(Cdf, PointsCoverFullRange) {
  Cdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(i * 0.5);
  const auto pts = cdf.points(20);
  ASSERT_FALSE(pts.empty());
  EXPECT_DOUBLE_EQ(pts.front().value, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().value, 999 * 0.5);
  EXPECT_DOUBLE_EQ(pts.back().fraction, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].value, pts[i].value);
    EXPECT_LT(pts[i - 1].fraction, pts[i].fraction);
  }
}

TEST(Cdf, PrintsReadableRows) {
  Cdf cdf({1000.0, 2000.0, 3000.0});
  std::ostringstream os;
  cdf.print(os, "latency", 1e-3, "us", 5);
  const std::string out = os.str();
  EXPECT_NE(out.find("latency"), std::string::npos);
  EXPECT_NE(out.find("median"), std::string::npos);
  EXPECT_NE(out.find("us"), std::string::npos);
}

TEST(Ranks, AverageTies) {
  const auto r = ranks({10.0, 20.0, 20.0, 30.0});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  const auto r = pearson(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 1.0, 1e-12);
}

TEST(Pearson, UndefinedOnConstantInput) {
  EXPECT_FALSE(pearson({1, 1, 1, 1}, {1, 2, 3, 4}).has_value());
  EXPECT_FALSE(pearson({1, 2}, {1, 2}).has_value());  // Too short.
  EXPECT_FALSE(pearson({1, 2, 3}, {1, 2}).has_value());  // Length mismatch.
}

TEST(Spearman, MonotoneNonlinearIsPerfect) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.3 * i));  // Monotone but very nonlinear.
  }
  const auto c = spearman(xs, ys);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->rho, 1.0, 1e-12);
  EXPECT_LT(c->p_value, 1e-6);
  EXPECT_TRUE(c->significant(0.1));
}

TEST(Spearman, AntiCorrelation) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 15; ++i) {
    xs.push_back(i);
    ys.push_back(-2.0 * i + 100);
  }
  const auto c = spearman(xs, ys);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->rho, -1.0, 1e-12);
  EXPECT_LT(c->p_value, 1e-6);
}

TEST(Spearman, IndependentSeriesInsignificant) {
  // Deterministic pseudo-random but uncorrelated series.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(std::sin(i * 12.9898) * 43758.5453);
    ys.push_back(std::sin(i * 78.233 + 1.0) * 12543.123);
  }
  const auto c = spearman(xs, ys);
  ASSERT_TRUE(c.has_value());
  EXPECT_LT(std::fabs(c->rho), 0.25);
  EXPECT_FALSE(c->significant(0.01));
}

TEST(Spearman, KnownSmallExample) {
  // Classic example: rho = 1 - 6*sum(d^2)/(n(n^2-1)).
  const std::vector<double> xs{86, 97, 99, 100, 101, 103, 106, 110, 112, 113};
  const std::vector<double> ys{2, 20, 28, 27, 50, 29, 7, 17, 6, 12};
  const auto c = spearman(xs, ys);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->rho, -0.1757575, 1e-6);
}

TEST(Spearman, UndefinedCases) {
  EXPECT_FALSE(spearman({1, 2, 3}, {1, 2, 3}).has_value());  // n < 4.
  EXPECT_FALSE(spearman({5, 5, 5, 5}, {1, 2, 3, 4}).has_value());
}

TEST(Ewma, BasicDecay) {
  Ewma e(0.5);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);  // Seeded with first sample.
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 17.5);
}

TEST(TwoPhaseEwma, ConstantInterarrivalConverges) {
  TwoPhaseInterarrivalEwma e;
  std::int64_t t = 0;
  for (int i = 0; i < 100; ++i) {
    e.on_packet(t);
    t += 1000;  // 1us gaps
  }
  EXPECT_NEAR(e.value(), 1000.0, 1.0);
}

TEST(TwoPhaseEwma, MatchesHalfDecayOverPairAverages) {
  // Reference: EWMA with alpha=0.5 over averages of consecutive
  // interarrival pairs.
  TwoPhaseInterarrivalEwma e;
  const std::vector<std::int64_t> gaps{100, 300, 500, 700, 200, 600, 400, 800};
  std::int64_t t = 0;
  e.on_packet(t);
  double ref = 0.0;
  bool seeded = false;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    t += gaps[i];
    e.on_packet(t);
    if (i % 2 == 1) {
      const double avg = (gaps[i - 1] + gaps[i]) / 2.0;
      ref = seeded ? (ref + avg) / 2.0 : avg;
      seeded = true;
    }
  }
  EXPECT_NEAR(e.value(), ref, 1e-9);
}

TEST(TwoPhaseEwma, TracksRateChanges) {
  TwoPhaseInterarrivalEwma e;
  std::int64_t t = 0;
  for (int i = 0; i < 50; ++i) {
    e.on_packet(t);
    t += 100;
  }
  const double fast = e.value();
  for (int i = 0; i < 50; ++i) {
    e.on_packet(t);
    t += 10000;
  }
  EXPECT_GT(e.value(), fast * 10);
  EXPECT_NEAR(e.value(), 10000.0, 500.0);
}

TEST(TwoPhaseEwma, ResetClearsState) {
  TwoPhaseInterarrivalEwma e;
  e.on_packet(0);
  e.on_packet(100);
  e.on_packet(200);
  EXPECT_GT(e.value(), 0.0);
  e.reset();
  EXPECT_EQ(e.value(), 0.0);
  EXPECT_EQ(e.packets_seen(), 0u);
}

}  // namespace
}  // namespace speedlight::stats
