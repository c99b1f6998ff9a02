// Streaming statistics, order statistics, and histograms.

#include <gtest/gtest.h>

#include <cmath>

#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace wormrt::util {
namespace {

TEST(StreamingStats, EmptyDefaults) {
  StreamingStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(StreamingStats, MatchesDirectComputation) {
  const double xs[] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  StreamingStats s;
  double sum = 0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  const double n = 11.0;
  const double mean = sum / n;
  double m2 = 0;
  for (const double x : xs) {
    m2 += (x - mean) * (x - mean);
  }
  EXPECT_EQ(s.count(), 11u);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), m2 / n, 1e-9);
  EXPECT_NEAR(s.stddev(), std::sqrt(m2 / (n - 1)), 1e-9);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), sum, 1e-9);
}

TEST(StreamingStats, MergeEqualsSinglePass) {
  StreamingStats a, b, whole;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    (i < 37 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmptySides) {
  StreamingStats a, empty;
  a.add(2.0);
  a.add(4.0);
  StreamingStats c = a;
  c.merge(empty);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  StreamingStats d = empty;
  d.merge(a);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(SampleSet, PercentilesNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.add(i);
  }
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.percentile(50), 50.0);
  EXPECT_EQ(s.percentile(99), 99.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, PercentileAfterLateAdds) {
  SampleSet s;
  s.add(10);
  EXPECT_EQ(s.percentile(50), 10.0);
  s.add(20);
  s.add(0);
  EXPECT_EQ(s.percentile(50), 10.0);
  EXPECT_EQ(s.percentile(100), 20.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 100.0, 10);
  h.add(-1);            // underflow
  h.add(0);             // bucket 0
  h.add(9.999);         // bucket 0
  h.add(10);            // bucket 1
  h.add(99.999);        // bucket 9
  h.add(100);           // overflow
  h.add(1000);          // overflow
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 20.0);
}

}  // namespace
}  // namespace wormrt::util
